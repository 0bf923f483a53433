//! A seeded generator of small GPU-style loop programs for the analysis
//! passes: block and thread loops, serial and unrolled loops, `if` /
//! `else` on thread-dependent and uniform conditions, barriers, shared and
//! global loads and stores, and `select`s. A loop bound sometimes mentions
//! a thread variable or reads a buffer. Everything is a function of the
//! seed, so a failing seed replays.

use tvm_ir::{DType, Expr, ForKind, MemScope, Mutator, Stmt, StmtNode, ThreadTag, Var};

/// A closed program: `body` with its global buffer parameters.
pub struct Program {
    pub body: Stmt,
    pub params: Vec<Var>,
    pub extents: Vec<usize>,
}

/// The program of `seed`.
pub fn program(seed: u64) -> Program {
    let mut g = Gen {
        rng: Rng(seed),
        globals: vec![
            Var::new("A", DType::float32()),
            Var::new("B", DType::float32()),
        ],
        shared: vec![
            Var::new("S", DType::float32()),
            Var::new("T", DType::float32()),
        ],
        vars: Vec::new(),
        threads: Vec::new(),
        fresh: 0,
    };
    let tx = Var::int("tx");
    let tx_extent = if g.rng.below(8) == 0 { 1 } else { 4 };
    let block = g.with_var(&tx, true, |g| g.block(3));
    let mut body = Stmt::loop_(
        &tx,
        0,
        tx_extent,
        ForKind::ThreadBinding(ThreadTag::ThreadIdxX),
        block,
    );
    if g.rng.below(2) == 0 {
        let bx = Var::int("bx");
        body = Stmt::loop_(
            &bx,
            0,
            2,
            ForKind::ThreadBinding(ThreadTag::BlockIdxX),
            body,
        );
    }
    for s in &g.shared {
        body = Stmt::allocate(s, DType::float32(), 8, MemScope::Shared, body);
    }
    Program {
        body,
        params: g.globals.clone(),
        extents: vec![64; g.globals.len()],
    }
}

/// How many loops `body` holds.
pub fn loop_count(body: &Stmt) -> usize {
    let mut d = Double {
        target: usize::MAX,
        seen: 0,
    };
    d.mutate_stmt(body);
    d.seen
}

/// `body` with the body `B` of its `target`-th loop (in pre-order)
/// replaced by `B; B`.
pub fn double_loop_body(body: &Stmt, target: usize) -> Stmt {
    Double { target, seen: 0 }.mutate_stmt(body)
}

struct Double {
    target: usize,
    seen: usize,
}

impl Mutator for Double {
    fn mutate_stmt(&mut self, s: &Stmt) -> Stmt {
        if let StmtNode::For {
            var,
            min,
            extent,
            kind,
            body,
        } = &*s.0
        {
            self.seen += 1;
            if self.seen - 1 == self.target {
                return Stmt::new(StmtNode::For {
                    var: var.clone(),
                    min: min.clone(),
                    extent: extent.clone(),
                    kind: *kind,
                    body: Stmt::seq(vec![body.clone(), body.clone()]),
                });
            }
        }
        self.default_mutate_stmt(s)
    }
}

/// SplitMix64.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }
}

struct Gen {
    rng: Rng,
    globals: Vec<Var>,
    shared: Vec<Var>,
    /// Loop variables in scope, thread variables included.
    vars: Vec<Var>,
    /// Thread variables in scope.
    threads: Vec<Var>,
    fresh: usize,
}

impl Gen {
    fn with_var(&mut self, v: &Var, thread: bool, f: impl FnOnce(&mut Self) -> Stmt) -> Stmt {
        self.vars.push(v.clone());
        if thread {
            self.threads.push(v.clone());
        }
        let s = f(self);
        self.vars.pop();
        if thread {
            self.threads.pop();
        }
        s
    }

    fn block(&mut self, depth: u32) -> Stmt {
        let n = 1 + self.rng.below(4);
        Stmt::seq((0..n).map(|_| self.stmt(depth)).collect())
    }

    fn stmt(&mut self, depth: u32) -> Stmt {
        let kinds = if depth == 0 { 5 } else { 9 };
        match self.rng.below(kinds) {
            0 | 1 => {
                let buffer = self.rng.pick(&self.shared).clone();
                let index = self.index();
                let value = self.value(2);
                Stmt::store(&buffer, index, value)
            }
            2 => {
                let buffer = self.rng.pick(&self.globals).clone();
                let index = self.index();
                let value = self.value(2);
                Stmt::store(&buffer, index, value)
            }
            3 | 4 => Stmt::new(StmtNode::Barrier),
            5 | 6 => {
                let k = Var::int(format!("k{}", self.fresh));
                self.fresh += 1;
                let kind = *self.rng.pick(&[ForKind::Serial, ForKind::Unrolled]);
                let (min, extent) = self.bounds();
                let body = self.with_var(&k, false, |g| g.block(depth - 1));
                Stmt::loop_(&k, min, extent, kind, body)
            }
            7 if self.threads.len() < 2 => {
                let ty = Var::int("ty");
                let body = self.with_var(&ty, true, |g| g.block(depth - 1));
                Stmt::loop_(
                    &ty,
                    0,
                    2,
                    ForKind::ThreadBinding(ThreadTag::ThreadIdxY),
                    body,
                )
            }
            _ => {
                let cond = self.cond();
                let then_case = self.block(depth - 1);
                let else_case = (self.rng.below(2) == 0).then(|| self.block(depth - 1));
                Stmt::new(StmtNode::IfThenElse {
                    cond,
                    then_case,
                    else_case,
                })
            }
        }
    }

    /// A loop's `(min, extent)`: mostly constants, sometimes divergent on
    /// a thread variable or reading a buffer.
    fn bounds(&mut self) -> (Expr, Expr) {
        let extent = Expr::int(1 + self.rng.below(3) as i64);
        match self.rng.below(6) {
            0 => {
                let t = self.rng.pick(&self.threads).clone();
                (Expr::int(0), t + 1)
            }
            1 => {
                let read = self.load(1).lt(Expr::f32(0.5));
                (Expr::select(read, Expr::int(0), Expr::int(1)), extent)
            }
            _ => (Expr::int(0), extent),
        }
    }

    /// An integer index: a thread or loop variable, a constant, or a
    /// shifted or wrapped variable.
    fn index(&mut self) -> Expr {
        let v = self.rng.pick(&self.vars).clone();
        match self.rng.below(4) {
            0 => Expr::int(self.rng.below(4) as i64),
            1 => (v + 1) % 4,
            _ => v.to_expr(),
        }
    }

    fn cond(&mut self) -> Expr {
        match self.rng.below(3) {
            0 => self.load(1).lt(Expr::f32(0.5)),
            _ => self.index().lt(Expr::int(2)),
        }
    }

    fn load(&mut self, depth: u32) -> Expr {
        let buffer = if self.rng.below(3) == 0 {
            self.rng.pick(&self.globals).clone()
        } else {
            self.rng.pick(&self.shared).clone()
        };
        let index = if depth > 0 && self.rng.below(8) == 0 {
            let read = self.load(depth - 1).lt(Expr::f32(0.5));
            Expr::select(read, Expr::int(0), Expr::int(1))
        } else {
            self.index()
        };
        Expr::load(&buffer, index)
    }

    /// A float value.
    fn value(&mut self, depth: u32) -> Expr {
        match self.rng.below(if depth == 0 { 2 } else { 4 }) {
            0 => Expr::f32(1.0),
            1 => self.load(depth),
            2 => {
                let cond = self.cond();
                Expr::select(cond, self.value(depth - 1), self.value(depth - 1))
            }
            _ => self.value(depth - 1) + self.value(depth - 1),
        }
    }
}
