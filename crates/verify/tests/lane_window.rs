//! Barriered thread nests drawn from a seed, run by both engines and
//! compared bit for bit with [`run_both`]. The flat engine runs a nest's
//! lanes on one shared register window, and each lane keeps a row of only
//! the registers it writes that are live where a turn starts: at its first
//! op, or right after a barrier. The shapes drawn leave values in such
//! registers: a value bound before a barrier and read after it, one read
//! at the top of a barriered loop's body (live across its back edge
//! only), a select made in lane-dependent branches, a reduce nest whose
//! sum a thread-local allocation holds across a barrier, and thread axes
//! read before the first barrier only. Shared staging and values bound
//! outside the nest, which the lanes share, are read in every turn. A
//! register the liveness pass misses, or a row handed over at the wrong
//! time, shows as a wrong bit.

use std::collections::BTreeMap;

use tvm_ir::{
    DType, Expr, ForKind, LoweredFunc, MemScope, Program, Stmt, StmtNode, ThreadTag, Var,
};
use tvm_verify::{f32_buffers, run_both};

/// A splitmix64 stream.
struct Draw(u64);

impl Draw {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A draw in `0..n`.
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pick<T: Clone>(&mut self, from: &[T]) -> T {
        from[self.below(from.len() as u64) as usize].clone()
    }

    fn values(&mut self, n: usize) -> Vec<f32> {
        (0..n)
            .map(|_| (self.next() % 2001) as f32 / 256.0 - 3.9)
            .collect()
    }
}

/// Elements of the input `A`.
const NA: i64 = 29;
/// Output slots of each lane: enough for four pieces of lane code, each a
/// loop of three around a loop of three.
const SLOTS: i64 = 600;
/// Iterations of a lane's reduction, `r1 × r2`.
const R: (i64, i64) = (2, 3);

fn barrier() -> Stmt {
    Stmt::new(StmtNode::Barrier)
}

fn let_(var: &Var, value: Expr, body: Stmt) -> Stmt {
    Stmt::new(StmtNode::LetStmt {
        var: var.clone(),
        value,
        body,
    })
}

/// A value in scope, and whether it was bound outside the thread nest.
#[derive(Clone)]
struct Value {
    expr: Expr,
    outer: bool,
}

/// One nest under construction.
struct Gen<'d> {
    draw: &'d mut Draw,
    a: Var,
    x: Var,
    y: Var,
    out: Var,
    /// The lane's number in its block, and its first output slot.
    lane: Expr,
    base: Expr,
    lanes: i64,
    next_slot: i64,
    floats: Vec<Value>,
    ints: Vec<Value>,
    /// Serial loops around the code being drawn, with their extents.
    loops: Vec<(Var, i64)>,
    /// Shared buffers of `lanes` elements, allocated around the nest.
    shared: Vec<Var>,
    names: usize,
    seen: BTreeMap<&'static str, usize>,
}

impl Gen<'_> {
    fn see(&mut self, what: &'static str) {
        *self.seen.entry(what).or_default() += 1;
    }

    fn name(&mut self, prefix: &str) -> String {
        self.names += 1;
        format!("{prefix}{}", self.names)
    }

    /// An integer in scope, lane-varying or not.
    fn int(&mut self) -> Value {
        let ints = self.ints.clone();
        self.draw.pick(&ints)
    }

    /// A float expression over one or two floats in scope and an integer,
    /// and whether it reads a value bound outside the nest.
    fn float(&mut self) -> (Expr, bool) {
        let floats = self.floats.clone();
        let (f, i) = (self.draw.pick(&floats), self.int());
        let mut e = f.expr * (1 + self.draw.below(3) as i64) + i.expr.cast(DType::float32());
        let mut outer = f.outer || i.outer;
        if self.draw.below(2) == 0 {
            let g = self.draw.pick(&floats);
            outer |= g.outer;
            e = e - g.expr;
        }
        (e, outer)
    }

    /// A lane-varying integer: the lane's number, scaled and shifted by an
    /// integer in scope, divided or reduced by a constant.
    fn lane_int(&mut self) -> Expr {
        let i = self.int().expr;
        let e = self.lane.clone() * (1 + self.draw.below(5) as i64) + i;
        let k = Expr::int(2 + self.draw.below(5) as i64);
        match self.draw.below(3) {
            0 => e.floordiv(k),
            1 => e.floormod(k),
            _ => e,
        }
    }

    /// A lane-varying load of `A`.
    fn lane_load(&mut self) -> Expr {
        let at = self.lane_int();
        Expr::load(&self.a, at.floormod(Expr::int(NA)))
    }

    /// Stores `value` to this lane's next output slot, one slot for each
    /// iteration of the loops around it.
    fn store(&mut self, value: Expr) -> Stmt {
        let mut at = self.base.clone() + self.next_slot;
        let mut span = 1;
        for (k, n) in self.loops.iter().rev() {
            at = at + k.to_expr() * span;
            span *= n;
        }
        self.next_slot += span;
        assert!(self.next_slot <= SLOTS, "too many output slots");
        Stmt::store(&self.out, at, value)
    }

    /// Stores a float drawn from scope; `after_barrier` when a barrier
    /// stands between the lane's first op and this store.
    fn store_float(&mut self, after_barrier: bool) -> Stmt {
        let (e, outer) = self.float();
        if outer && after_barrier {
            self.see("an outer value read after a barrier");
        }
        self.store(e)
    }

    /// `n` pieces of lane code, each holding at least one barrier or a
    /// lane-dependent branch; a piece that binds a value binds it over
    /// the pieces after it.
    fn pieces(&mut self, n: usize, depth: usize) -> Stmt {
        if n == 0 {
            return Stmt::seq(vec![]);
        }
        match self.draw.below(6) {
            0 | 1 => self.let_across(n, depth),
            2 if depth < 2 => self.barriered_loop(n, depth),
            3 => self.lane_branch(n, depth),
            4 => self.reduction(n, depth),
            5 => self.staging(n, depth),
            _ => self.let_across(n, depth),
        }
    }

    /// `let v = …; barrier; O[·] = f(v); rest`: `v` lives across the
    /// barrier.
    fn let_across(&mut self, n: usize, depth: usize) -> Stmt {
        self.see("a value bound before a barrier and read after it");
        let float = self.draw.below(2) == 0;
        let (var, value) = if float {
            let load = self.lane_load();
            (Var::new(self.name("f"), DType::float32()), load)
        } else {
            (Var::int(self.name("i")), self.lane_int())
        };
        let bound = Value {
            expr: var.to_expr(),
            outer: false,
        };
        let scope = if float {
            &mut self.floats
        } else {
            &mut self.ints
        };
        scope.push(bound.clone());
        let read = if float {
            bound.expr * 3 + self.float().0
        } else {
            bound.expr.cast(DType::float32()) + self.float().0
        };
        let stores = vec![self.store(read), self.store_float(true)];
        let rest = self.pieces(n - 1, depth);
        if float {
            self.floats.pop();
        } else {
            self.ints.pop();
        }
        let body = Stmt::seq([vec![barrier()], stores, vec![rest]].concat());
        let_(&var, value, body)
    }

    /// `let v = …; for k { O[·] = f(v, k); barrier; pieces }; rest`: `v`
    /// is read at the top of each iteration, before its barrier, so it
    /// lives across the loop's back edge only.
    fn barriered_loop(&mut self, n: usize, depth: usize) -> Stmt {
        self.see("a value live across a barriered loop's back edge");
        let v = Var::new(self.name("f"), DType::float32());
        let value = self.lane_load();
        let k = Var::int(self.name("k"));
        let extent = 1 + self.draw.below(3) as i64;
        self.floats.push(Value {
            expr: v.to_expr(),
            outer: false,
        });
        self.loops.push((k.clone(), extent));
        self.ints.push(Value {
            expr: k.to_expr(),
            outer: false,
        });
        let top = self.store(v.to_expr() + k.to_expr().cast(DType::float32()));
        let inner = 1 + self.draw.below(2) as usize;
        let inner = self.pieces(inner, depth + 1);
        self.ints.pop();
        self.loops.pop();
        let body = Stmt::seq(vec![top, barrier(), inner]);
        let rest = self.pieces(n - 1, depth);
        self.floats.pop();
        let_(
            &v,
            value,
            Stmt::seq(vec![Stmt::for_(&k, 0, extent, body), rest]),
        )
    }

    /// `if c(lane) { O[·] = … } else { O[·] = … }; let z = select(c, A[·],
    /// A[·]); barrier; O[·] = f(z); rest`: barrier-free code in
    /// lane-dependent branches, and a select made in branches (its arms
    /// load) whose register lives across the barrier.
    fn lane_branch(&mut self, n: usize, depth: usize) -> Stmt {
        self.see("lane-dependent branches around barrier-free code");
        let c = Expr::int(1 + self.draw.below(self.lanes as u64) as i64);
        let cond = match self.draw.below(2) {
            0 => self.lane.clone().lt(c),
            _ => self.lane.clone().floormod(Expr::int(2)).eq(Expr::int(0)),
        };
        let then_case = self.store_float(false);
        let else_case = self.store_float(false);
        let branch = Stmt::new(StmtNode::IfThenElse {
            cond: cond.clone(),
            then_case,
            else_case: Some(else_case),
        });
        let z = Var::new(self.name("z"), DType::float32());
        let (a, b) = (self.lane_load(), self.lane_load());
        let value = Expr::select(cond, a, b * 2);
        self.floats.push(Value {
            expr: z.to_expr(),
            outer: false,
        });
        let read = z.to_expr() - self.float().0;
        let read = self.store(read);
        let rest = self.pieces(n - 1, depth);
        self.floats.pop();
        let after = let_(&z, value, Stmt::seq(vec![barrier(), read, rest]));
        Stmt::seq(vec![branch, after])
    }

    /// A thread-local `acc[2]`: `acc[j] = …; acc[j] += X[·] * Y[·]` over
    /// `r1 × r2` (a reduce nest); `barrier; O[·] = acc[j]; rest`.
    fn reduction(&mut self, n: usize, depth: usize) -> Stmt {
        self.see("a reduce nest's sum read after a barrier");
        self.see("a thread-local allocation");
        let acc = Var::new(self.name("acc"), DType::float32());
        let j = Expr::int(self.draw.below(2) as i64);
        let (r1, r2) = (Var::int(self.name("r")), Var::int(self.name("r")));
        let init = Stmt::store(&acc, j.clone(), self.float().0);
        let k = r1.to_expr() * R.1 + r2.to_expr();
        let xi = self.lane.clone() * (R.0 * R.1) + k.clone();
        let product = Expr::load(&self.x, xi) * Expr::load(&self.y, k);
        let mac = Stmt::store(&acc, j.clone(), Expr::load(&acc, j.clone()) + product);
        let nest = Stmt::for_(&r1, 0, R.0, Stmt::for_(&r2, 0, R.1, mac));
        self.floats.push(Value {
            expr: Expr::load(&acc, j),
            outer: false,
        });
        let read = self.store_float(true);
        let rest = self.pieces(n - 1, depth);
        self.floats.pop();
        let body = Stmt::seq(vec![init, nest, barrier(), read, rest]);
        Stmt::allocate(&acc, DType::float32(), 2, MemScope::Local, body)
    }

    /// `S[lane] = …; barrier; O[·] = S[(lane + 1) % lanes]; rest`, `S`
    /// shared by the block and written again only after the next barrier.
    fn staging(&mut self, n: usize, depth: usize) -> Stmt {
        self.see("shared staging");
        let s = Var::new(self.name("S"), DType::float32());
        self.shared.push(s.clone());
        let write = Stmt::store(&s, self.lane.clone(), self.float().0);
        let next = (self.lane.clone() + 1).floormod(Expr::int(self.lanes));
        let read = Expr::load(&s, next) * 2 - self.float().0;
        let read = self.store(read);
        let rest = self.pieces(n - 1, depth);
        Stmt::seq(vec![write, barrier(), read, barrier(), rest])
    }
}

/// A drawn nest and its inputs.
struct Case {
    func: LoweredFunc,
    arrays: Vec<Vec<f32>>,
}

/// Draws one nest: maybe two blocks, one or two thread axes, values bound
/// outside the nest, and two to four pieces of lane code.
fn case(draw: &mut Draw, seen: &mut BTreeMap<&'static str, usize>) -> Case {
    let a = Var::new("A", DType::float32());
    let x = Var::new("X", DType::float32());
    let y = Var::new("Y", DType::float32());
    let out = Var::new("O", DType::float32());
    let blocks = 1 + draw.below(2) as i64;
    let (nx, ny) = (1 + draw.below(4) as i64, 1 + draw.below(3) as i64);
    let (tx, ty, blk) = (Var::int("tx"), Var::int("ty"), Var::int("blk"));
    let lanes = nx * ny;
    // Now and then the lane's number is bound once, at the top of its
    // code, in a form no later expression sees through: the thread axes
    // are read before the first barrier only.
    let number = ty.to_expr() * nx + tx.to_expr();
    let once = (draw.below(2) == 0).then(|| Var::int("lane"));
    let lane = once.as_ref().map_or(number.clone(), Var::to_expr);
    let (u, m) = (Var::new("u", DType::float32()), Var::int("m"));
    let outer = |e: &Var| Value {
        expr: e.to_expr(),
        outer: true,
    };
    let mut g = Gen {
        draw,
        a: a.clone(),
        x: x.clone(),
        y: y.clone(),
        out: out.clone(),
        base: (blk.to_expr() * lanes + lane.clone()) * SLOTS,
        lane,
        lanes,
        next_slot: 0,
        floats: vec![outer(&u)],
        ints: vec![outer(&m)],
        loops: Vec::new(),
        shared: Vec::new(),
        names: 0,
        seen: std::mem::take(seen),
    };
    if once.is_none() {
        g.ints.push(Value {
            expr: tx.to_expr(),
            outer: false,
        });
    }
    let n = 2 + g.draw.below(3) as usize;
    let mut body = g.pieces(n, 0);
    if let Some(lane) = &once {
        g.see("thread axes read before the first barrier only");
        body = let_(lane, number.min(Expr::int(lanes - 1)), body);
    }
    let threads =
        |var: &Var, n: i64, tag, body| Stmt::loop_(var, 0, n, ForKind::ThreadBinding(tag), body);
    let mut nest = threads(&tx, nx, ThreadTag::ThreadIdxX, body);
    if ny > 1 || g.draw.below(2) == 0 {
        g.see("two thread axes");
        nest = threads(&ty, ny, ThreadTag::ThreadIdxY, nest);
    } else {
        nest = let_(&ty, Expr::int(0), nest);
    }
    for s in &g.shared {
        nest = Stmt::allocate(s, DType::float32(), lanes, MemScope::Shared, nest);
    }
    // Outer values, read in every turn of every lane.
    let nest = let_(
        &u,
        Expr::load(&a, blk.to_expr()) * 2,
        let_(&m, blk.to_expr() * 3 + 1, nest),
    );
    let body = Stmt::loop_(
        &blk,
        0,
        blocks,
        ForKind::ThreadBinding(ThreadTag::BlockIdxX),
        nest,
    );
    *seen = std::mem::take(&mut g.seen);
    let lens = [NA, lanes * R.0 * R.1, R.0 * R.1, blocks * lanes * SLOTS];
    let func = LoweredFunc {
        name: "lanes".into(),
        params: vec![a, x, y, out],
        param_dtypes: vec![DType::float32(); 4],
        param_extents: lens.iter().map(|&n| n as usize).collect(),
        body,
    };
    let mut arrays: Vec<Vec<f32>> = lens[..3].iter().map(|&n| draw.values(n as usize)).collect();
    arrays.push(vec![0.0; lens[3] as usize]);
    Case { func, arrays }
}

#[test]
fn barriered_nests_run_as_the_walker_runs_them() {
    let mut draw = Draw(0x1A4E_0047);
    let mut seen = BTreeMap::new();
    let mut kept_of = Vec::new();
    for i in 0..300 {
        let Case { func, arrays } = case(&mut draw, &mut seen);
        let program = Program::compile_f32(&func);
        let registers = program.lane_registers();
        assert_eq!(
            registers.len(),
            1,
            "case {i}: one barriered nest\n{}",
            func.body
        );
        kept_of.push(registers[0]);
        let run = run_both(&func, f32_buffers(arrays), |_| {})
            .unwrap_or_else(|diff| panic!("case {i}: {diff}\n{}", func.body));
        assert!(
            run.result.is_ok(),
            "case {i}: {:?}\n{}",
            run.result,
            func.body
        );
        if program.reduce_loops() > 0 {
            *seen.entry("a reduce nest in a lane").or_default() += 1;
        }
    }
    for what in [
        "a value bound before a barrier and read after it",
        "a value live across a barriered loop's back edge",
        "lane-dependent branches around barrier-free code",
        "a reduce nest's sum read after a barrier",
        "a reduce nest in a lane",
        "a thread-local allocation",
        "shared staging",
        "an outer value read after a barrier",
        "two thread axes",
        "thread axes read before the first barrier only",
    ] {
        assert!(seen.get(what).is_some_and(|&n| n >= 10), "{what}: {seen:?}");
    }
    // Every lane keeps fewer registers than its window holds.
    assert!(
        kept_of.iter().all(|&(window, kept)| kept < window),
        "{kept_of:?}"
    );
}
