//! Compiling a lowered function to a program.

use super::nest::{nests, NestPlan};
use super::*;

/// A value number: one computed value, wherever its register lives.
pub(super) type Vid = u32;

/// What an expression evaluates to — the walker's `Value`, with the variant
/// known at compile time.
#[derive(Clone, Copy)]
pub(super) enum V {
    Int(Vid),
    Float(Vid),
    /// A buffer variable and its slot.
    Handle(VarId, u16),
}

#[derive(Clone, Copy)]
pub(super) struct ValInfo {
    kind: Kind,
    /// Loop level that computes it; it is invariant in every level deeper.
    pub(super) level: usize,
    /// Frame and register that hold it.
    frame: usize,
    pub(super) reg: Reg,
    /// Known to be 0 or 1.
    is_bool: bool,
    konst: Option<i64>,
}

/// Value-numbering key: the op and its operands' value numbers (or literal
/// fields), `u32::MAX` where there is none.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct Key(Code, [u32; 3]);

/// One register space: the function's, or a barriered nest's lane window.
#[derive(Clone, Default)]
struct Frame {
    parent: usize,
    ints: u32,
    floats: u32,
    /// Values of enclosing frames used here, and the window register each
    /// is copied into on nest entry.
    imports: HashMap<Vid, Reg>,
    import_ints: Vec<(Reg, Reg)>,
    import_floats: Vec<(Reg, Reg)>,
    lane_slots: Vec<(u16, usize)>,
}

/// One loop level under construction (level 0 is the function body).
#[derive(Clone, Default)]
pub(super) struct Level {
    frame: usize,
    /// Ops hoisted in front of this level's loop header; they use the
    /// registers of the enclosing level's frame.
    pub(super) pre: Vec<Op>,
    pub(super) body: Vec<Op>,
    /// The scope the header stands in, which owns what is hoisted to `pre`.
    outer_scope: usize,
}

pub(super) struct OpenLoop {
    pub(super) var: VarId,
    shadowed: Option<V>,
    pub(super) counter: Vid,
    pub(super) lo: Vid,
    pub(super) limit: Vid,
}

/// `c + Σ coeff · value`, the canonical form of integer `+ - *`.
#[derive(Clone)]
pub(super) struct Affine {
    pub(super) c: i64,
    pub(super) terms: Vec<(Vid, i64)>,
}

impl Affine {
    fn konst(c: i64) -> Affine {
        Affine {
            c,
            terms: Vec::new(),
        }
    }

    fn as_const(&self) -> Option<i64> {
        self.terms.is_empty().then_some(self.c)
    }

    fn add_scaled(&mut self, other: &Affine, k: i64) {
        self.c = self.c.wrapping_add(other.c.wrapping_mul(k));
        for &(v, coeff) in &other.terms {
            let coeff = coeff.wrapping_mul(k);
            match self.terms.iter_mut().find(|(w, _)| *w == v) {
                Some((_, sum)) => *sum = sum.wrapping_add(coeff),
                None => self.terms.push((v, coeff)),
            }
        }
        self.terms.retain(|&(_, coeff)| coeff != 0);
    }
}

#[derive(Clone)]
pub(super) struct Compiler<'a> {
    scalars: &'a HashMap<VarId, Value>,
    frames: Vec<Frame>,
    levels: Vec<Level>,
    pub(super) values: Vec<ValInfo>,
    vn: HashMap<Key, Vid>,
    /// Keys to forget when each open block (loop body, branch) closes: a
    /// value computed under a condition is not available after it.
    scopes: Vec<Vec<Key>>,
    pub(super) vars: HashMap<VarId, V>,
    iconsts: Vec<i64>,
    fconsts: Vec<f64>,
    pub(super) slots: Vec<SlotDecl>,
    errors: Vec<InterpError>,
    hw_calls: Vec<HwCall>,
    nests: Vec<Nest>,
    pub(super) handoffs: Vec<ReduceNest>,
    /// The reduce nest the loop closed last compiled to, which the loop
    /// around it may absorb.
    pub(super) nest: Option<NestPlan>,
    /// A frame ran out of `u16` registers.
    too_large: bool,
}

const NONE: u32 = u32::MAX;

impl<'a> Compiler<'a> {
    pub(super) fn new(scalars: &'a HashMap<VarId, Value>) -> Self {
        Compiler {
            scalars,
            frames: vec![Frame::default()],
            levels: vec![Level {
                frame: 0,
                pre: Vec::new(),
                body: Vec::new(),
                outer_scope: 0,
            }],
            values: Vec::new(),
            vn: HashMap::new(),
            scopes: vec![Vec::new()],
            vars: HashMap::new(),
            iconsts: Vec::new(),
            fconsts: Vec::new(),
            slots: Vec::new(),
            errors: Vec::new(),
            hw_calls: Vec::new(),
            nests: Vec::new(),
            handoffs: Vec::new(),
            nest: None,
            too_large: false,
        }
    }

    pub(super) fn finish(mut self, func: &LoweredFunc, params: &[(Storage, DType)]) -> Program {
        for (var, &(storage, dtype)) in func.params.iter().zip(params) {
            self.vars
                .insert(var.id(), V::Handle(var.id(), self.slots.len() as u16));
            self.slots.push(SlotDecl {
                id: var.id(),
                name: var.name().into(),
                dtype,
                storage,
            });
        }
        self.stmt(&func.body);
        // Level 0 stays open, so this is the function body.
        let mut ops = self.close_level().body;
        // Every index an op carries is a `u16`; one that wrapped on the way
        // here is never executed.
        let sizes = [
            ops.len(),
            self.slots.len(),
            self.iconsts.len(),
            self.fconsts.len(),
            self.errors.len(),
            self.hw_calls.len(),
            self.nests.len(),
            self.handoffs.len(),
        ];
        if self.too_large || sizes.iter().any(|&n| n > u16::MAX as usize) {
            self.errors = vec![InterpError::Unsupported(format!(
                "`{}` is too large for the flat engine",
                func.name
            ))];
            ops = vec![Op::new(Code::Raise, 0, 0, 0, 0)];
            self.handoffs.clear();
        }
        let mut program = Program {
            name: func.name.clone(),
            params: params.to_vec(),
            ops,
            ints: self.frames[0].ints as u16,
            floats: self.frames[0].floats as u16,
            iconsts: self.iconsts.into_boxed_slice(),
            fconsts: self.fconsts,
            slots: self.slots,
            errors: self.errors,
            hw_calls: self.hw_calls,
            nests: self.nests,
            handoffs: self.handoffs.into_boxed_slice(),
        };
        live::keep(&mut program);
        program
    }

    // --- registers, values, placement -------------------------------------

    pub(super) fn cur_level(&self) -> usize {
        self.levels.len() - 1
    }

    pub(super) fn cur_frame(&self) -> usize {
        self.levels[self.cur_level()].frame
    }

    fn alloc(&mut self, frame: usize, kind: Kind) -> Reg {
        let f = &mut self.frames[frame];
        let n = match kind {
            Kind::Int => &mut f.ints,
            Kind::Float => &mut f.floats,
        };
        if *n >= u16::MAX as u32 {
            self.too_large = true;
            return 0;
        }
        *n += 1;
        (*n - 1) as Reg
    }

    /// A value that is assigned where the code stands and never shared: a
    /// loop counter, a loaded element, the result of a branchy `select`.
    fn fresh(&mut self, kind: Kind) -> Vid {
        let level = self.cur_level();
        let frame = self.cur_frame();
        let reg = self.alloc(frame, kind);
        self.values.push(ValInfo {
            kind,
            level,
            frame,
            reg,
            is_bool: false,
            konst: None,
        });
        (self.values.len() - 1) as Vid
    }

    /// The register of `frame` that holds value `v`, importing it through
    /// every nest boundary between its home frame and `frame`.
    fn reg_in(&mut self, v: Vid, frame: usize) -> Reg {
        let info = self.values[v as usize];
        if info.frame == frame {
            return info.reg;
        }
        if let Some(&r) = self.frames[frame].imports.get(&v) {
            return r;
        }
        assert!(
            frame != 0,
            "a value is used outside the nest that computes it"
        );
        let outer = self.reg_in(v, self.frames[frame].parent);
        let inner = self.alloc(frame, info.kind);
        let f = &mut self.frames[frame];
        f.imports.insert(v, inner);
        match info.kind {
            Kind::Int => f.import_ints.push((outer, inner)),
            Kind::Float => f.import_floats.push((outer, inner)),
        }
        inner
    }

    pub(super) fn reg(&mut self, v: Vid) -> Reg {
        let frame = self.cur_frame();
        self.reg_in(v, frame)
    }

    /// Emits (or finds) the pure op `code` over `args`, with `lits` in the
    /// fields after them. Unless `pinned`, it is placed at the level of its
    /// deepest operand; a pinned op may fault and stays where it stands.
    fn pure(&mut self, code: Code, kind: Kind, args: &[Vid], lits: &[u16], pinned: bool) -> Vid {
        let mut key = [NONE; 3];
        let fields = args.iter().copied().chain(lits.iter().map(|&l| l as u32));
        for (k, v) in key.iter_mut().zip(fields) {
            *k = v;
        }
        let key = Key(code, key);
        if let Some(&v) = self.vn.get(&key) {
            return v;
        }
        let cur = self.cur_level();
        let level = if pinned {
            cur
        } else {
            args.iter()
                .map(|&v| self.values[v as usize].level)
                .max()
                .unwrap_or(0)
        };
        let frame = self.levels[level].frame;
        let mut f = [0u16; 3];
        for (slot, &v) in f.iter_mut().zip(args) {
            *slot = self.reg_in(v, frame);
        }
        f[args.len()..]
            .iter_mut()
            .zip(lits)
            .for_each(|(slot, &l)| *slot = l);
        let d = self.alloc(frame, kind);
        let op = Op::new(code, d, f[0], f[1], f[2]);
        if level == cur {
            self.levels[cur].body.push(op);
            if let Some(scope) = self.scopes.last_mut() {
                scope.push(key);
            }
        } else {
            let next = &mut self.levels[level + 1];
            next.pre.push(op);
            self.scopes[next.outer_scope].push(key);
        }
        let is_bool = matches!(
            code,
            Code::IEq
                | Code::INe
                | Code::ILt
                | Code::ILe
                | Code::INot
                | Code::IBool
                | Code::FEq
                | Code::FNe
                | Code::FLt
                | Code::FLe
        ) || (code == Code::IAnd
            && args.iter().all(|&v| self.values[v as usize].is_bool));
        self.values.push(ValInfo {
            kind,
            level,
            frame,
            reg: d,
            is_bool,
            konst: None,
        });
        let v = (self.values.len() - 1) as Vid;
        self.vn.insert(key, v);
        v
    }

    /// [`Compiler::pure`] for the common case: register operands only, free
    /// to move.
    fn op(&mut self, code: Code, kind: Kind, args: &[Vid]) -> Vid {
        self.pure(code, kind, args, &[], false)
    }

    fn iconst(&mut self, value: i64) -> Vid {
        let k = intern(&mut self.iconsts, value, |c| c == value);
        let v = self.pure(Code::IConst, Kind::Int, &[], &[k], false);
        let info = &mut self.values[v as usize];
        info.konst = Some(value);
        info.is_bool = value == 0 || value == 1;
        v
    }

    fn fconst(&mut self, value: f64) -> Vid {
        let k = intern(&mut self.fconsts, value, |c| c.to_bits() == value.to_bits());
        self.pure(Code::FConst, Kind::Float, &[], &[k], false)
    }

    fn push(&mut self, op: Op) {
        let cur = self.cur_level();
        self.levels[cur].body.push(op);
    }

    fn push_scope(&mut self) {
        self.scopes.push(Vec::new());
    }

    fn pop_scope(&mut self) {
        for key in self.scopes.pop().into_iter().flatten() {
            self.vn.remove(&key);
        }
    }

    /// Emits a fault at this point; what follows it is unreachable.
    fn raise(&mut self, err: InterpError) {
        self.push(Op::new(Code::Raise, 0, self.errors.len() as u16, 0, 0));
        self.errors.push(err);
    }

    fn unsupported(&mut self, what: &str) {
        self.raise(InterpError::Unsupported(what.into()));
    }

    /// A placeholder for the value of an expression that faulted.
    fn dummy(&mut self, float: bool) -> V {
        if float {
            V::Float(self.fconst(0.0))
        } else {
            V::Int(self.iconst(0))
        }
    }

    // --- control flow -------------------------------------------------------

    /// Emits a conditional jump on `cond` whose target [`Compiler::land`]
    /// fills in, and opens the scope of the code it guards.
    fn branch(&mut self, code: Code, cond: Vid) -> usize {
        let c = self.reg(cond);
        self.push(Op::new(code, 0, c, 0, 0));
        self.push_scope();
        self.levels[self.cur_level()].body.len() - 1
    }

    /// Points the jump at `at` to the next op emitted.
    fn patch(&mut self, at: usize) {
        let cur = self.cur_level();
        let body = &mut self.levels[cur].body;
        let off = (body.len() - at - 1) as u16;
        match body[at].code {
            Code::Jump => body[at].a = off,
            _ => body[at].b = off,
        }
    }

    /// Closes the scope [`Compiler::branch`] opened and lands its jump.
    fn land(&mut self, at: usize) {
        self.pop_scope();
        self.patch(at);
    }

    /// Opens a loop level (and its scope) whose code uses `frame`.
    pub(super) fn open_level(&mut self, frame: usize) {
        self.levels.push(Level {
            frame,
            pre: Vec::new(),
            body: Vec::new(),
            outer_scope: self.scopes.len() - 1,
        });
        self.push_scope();
    }

    /// Closes the innermost open level and its scope, and returns it. Each
    /// level is closed once, level 0 by `finish`, so one is always open.
    pub(super) fn close_level(&mut self) -> Level {
        self.pop_scope();
        self.levels.pop().unwrap_or_default()
    }

    fn open_loop(&mut self, var: &Var, lo: Vid, n: Vid) -> OpenLoop {
        let mut limit = self.affine_of(lo);
        limit.add_scaled(&self.affine_of(n), 1);
        let limit = self.materialize(limit);
        self.open_level(self.cur_frame());
        let counter = self.fresh(Kind::Int);
        OpenLoop {
            var: var.id(),
            shadowed: self.vars.insert(var.id(), V::Int(counter)),
            counter,
            lo,
            limit,
        }
    }

    /// Closes loop `l`; `source` is the kind and body of the `for`
    /// statement it compiles, if any. A serial, unrolled or `vectorized`
    /// multiply-accumulate loop, or one whose body is a loop that compiled
    /// to a reduce nest, gets a reduce nest where it can.
    fn close_loop(&mut self, l: OpenLoop, source: Option<(ForKind, &Stmt)>) {
        self.unbind(l.var, l.shadowed);
        let inner = self.nest.take();
        let mut level = self.close_level();
        let var = self.values[l.counter as usize].reg;
        let (lo, limit) = (self.reg(l.lo), self.reg(l.limit));
        let nest = match (source, inner) {
            (Some((kind, body)), inner) if nests(kind) => match (inner, &*body.0) {
                (Some(inner), StmtNode::For { kind, .. }) if nests(*kind) => self
                    .lift(inner, &l, &mut level.body)
                    .map(|plan| (Vec::new(), plan)),
                _ => self.plan_nest(&l, body),
            },
            _ => None,
        };
        let skip = (level.body.len() + 1) as u16;
        let mut out = level.pre;
        let mut handoff = None;
        if let Some((pre, plan)) = nest {
            out.extend(pre);
            // The scalar loop: `LoopGuard`, the body, `LoopNext`.
            let (bases, op) = self.nest_handoff(plan, (level.body.len() + 2) as u16);
            out.extend(bases);
            handoff = Some(op);
        }
        out.push(Op::new(Code::IMov, var, lo, 0, 0));
        out.extend(handoff);
        out.push(Op::new(Code::LoopGuard, 0, var, limit, skip));
        out.extend(level.body);
        out.push(Op::new(Code::LoopNext, 0, var, limit, skip));
        let cur = self.cur_level();
        self.levels[cur].body.extend(out);
    }

    pub(super) fn unbind(&mut self, var: VarId, shadowed: Option<V>) {
        match shadowed {
            Some(v) => self.vars.insert(var, v),
            None => self.vars.remove(&var),
        };
    }

    // --- statements ---------------------------------------------------------

    fn stmt(&mut self, s: &Stmt) {
        use StmtNode::*;
        match &*s.0 {
            LetStmt { var, value, body } => {
                let v = self.expr(value);
                let shadowed = self.vars.insert(var.id(), v);
                self.stmt(body);
                self.unbind(var.id(), shadowed);
            }
            AttrStmt { body, .. } => self.stmt(body),
            Store {
                buffer,
                index,
                value,
                predicate,
            } => {
                let guard = predicate.as_ref().map(|p| {
                    let c = self.truthy(p);
                    self.branch(Code::JumpIfZero, c)
                });
                let idx = self.index_of(index);
                let val = self.expr(value);
                self.store(buffer, idx, val);
                if let Some(at) = guard {
                    self.land(at);
                }
            }
            Allocate {
                buffer,
                dtype,
                extent,
                body,
                ..
            } => {
                let n = self.int_of(extent);
                let slot = self.slots.len() as u16;
                self.slots.push(SlotDecl {
                    id: buffer.id(),
                    name: buffer.name().into(),
                    dtype: *dtype,
                    storage: Storage::of(*dtype),
                });
                let frame = self.cur_frame();
                if frame == 0 {
                    let n = self.reg(n);
                    self.push(Op::new(Code::Alloc, 0, slot, n, 0));
                } else {
                    // Inside a barriered nest the walker creates the buffer
                    // once per thread and keeps it, unzeroed, until the nest
                    // ends: one copy per lane, made on nest entry.
                    match self.values[n as usize].konst {
                        Some(k) => self.frames[frame]
                            .lane_slots
                            .push((slot, k.max(0) as usize)),
                        None => self.unsupported(
                            "allocation of non-constant extent inside a barriered thread nest",
                        ),
                    }
                }
                let shadowed = self.vars.insert(buffer.id(), V::Handle(buffer.id(), slot));
                self.stmt(body);
                self.unbind(buffer.id(), shadowed);
            }
            For {
                var,
                min,
                extent,
                kind,
                body,
            } => match kind {
                ForKind::ThreadBinding(tag) if !tag.is_block() => self.thread_nest(s),
                _ => {
                    let lo = self.int_of(min);
                    let n = self.int_of(extent);
                    let l = self.open_loop(var, lo, n);
                    self.stmt(body);
                    self.close_loop(l, Some((*kind, body)));
                }
            },
            Seq(stmts) => {
                for st in stmts {
                    self.stmt(st);
                }
            }
            IfThenElse {
                cond,
                then_case,
                else_case,
            } => {
                let c = self.truthy(cond);
                let to_else = self.branch(Code::JumpIfZero, c);
                self.stmt(then_case);
                match else_case {
                    Some(e) => {
                        self.pop_scope();
                        self.push(Op::new(Code::Jump, 0, 0, 0, 0));
                        let to_end = self.levels[self.cur_level()].body.len() - 1;
                        self.patch(to_else);
                        self.push_scope();
                        self.stmt(e);
                        self.land(to_end);
                    }
                    None => self.land(to_else),
                }
            }
            Evaluate(e) => match &*e.0 {
                ExprNode::Call {
                    name,
                    args,
                    kind: CallKind::HardwareIntrinsic,
                    ..
                } => self.hw_call(name, args, None),
                _ => {
                    self.expr(e);
                }
            },
            Barrier => {
                // Outside a barriered nest there is nobody to wait for.
                if self.cur_frame() != 0 {
                    self.push(Op::new(Code::Barrier, 0, 0, 0, 0));
                }
            }
            PushDep { .. } | PopDep { .. } => {} // timing-only; no data effect
        }
    }

    fn store(&mut self, buffer: &Var, (base, last): (Vid, Vid), val: V) {
        let Some(&V::Handle(_, slot)) = self.vars.get(&buffer.id()) else {
            return self.raise(InterpError::UnknownBuffer("?".into()));
        };
        let (code, v) = self.store_value(slot, val);
        let (base, last, v) = (self.reg(base), self.reg(last), self.reg(v));
        self.push(Op::new(code, last, slot, base, v));
    }

    /// The op that stores `val` into `slot`, and `val` as the slot holds it.
    fn store_value(&mut self, slot: u16, val: V) -> (Code, Vid) {
        let decl = &self.slots[slot as usize];
        let code = match (decl.storage, decl.dtype.bits) {
            (Storage::F32, 16) => Code::StoreF16,
            (Storage::F32, _) => Code::StoreF32,
            (Storage::F64, _) => Code::StoreF64,
            (Storage::I64, _) => Code::StoreI64,
        };
        let v = match decl.storage.kind() {
            Kind::Float => self.as_float(val),
            Kind::Int => self.as_int(val),
        };
        (code, v)
    }

    /// A run of consecutive thread-bound loops: lanes taking turns between
    /// barriers when the body has one, plain loops when it has none.
    ///
    /// Inlined into `stmt`, its one caller, by request: left to the
    /// optimizer, whether it is depends on how the rest of the crate splits
    /// into codegen units, and compiling a GPU kernel was 35-45 % slower
    /// when it was not.
    #[inline(always)]
    fn thread_nest(&mut self, root: &Stmt) {
        // Like the walker, evaluate every axis before binding any.
        let mut axes: Vec<(&Var, Vid, Vid)> = Vec::new();
        let mut body = root;
        while let StmtNode::For {
            var,
            min,
            extent,
            kind: ForKind::ThreadBinding(tag),
            body: inner,
        } = &*body.0
        {
            if tag.is_block() {
                break;
            }
            let lo = self.int_of(min);
            let n = self.int_of(extent);
            axes.push((var, lo, n));
            body = inner;
        }
        if static_barriers(body).is_err() {
            self.raise(InterpError::Malformed(
                "barrier count diverges across branches".into(),
            ));
        }
        if !body.contains_barrier() {
            let loops: Vec<OpenLoop> = axes
                .iter()
                .map(|&(var, lo, n)| self.open_loop(var, lo, n))
                .collect();
            self.stmt(body);
            for l in loops.into_iter().rev() {
                self.close_loop(l, None);
            }
            return;
        }
        let outer = self.cur_frame();
        let frame = self.frames.len();
        self.frames.push(Frame {
            parent: outer,
            ..Frame::default()
        });
        self.open_level(frame);
        let bound: Vec<(VarId, Option<V>, Vid)> = axes
            .iter()
            .map(|&(var, _, _)| {
                let t = self.fresh(Kind::Int);
                (var.id(), self.vars.insert(var.id(), V::Int(t)), t)
            })
            .collect();
        self.stmt(body);
        for &(var, shadowed, _) in bound.iter().rev() {
            self.unbind(var, shadowed);
        }
        let level = self.close_level();
        let nest_axes = axes
            .iter()
            .zip(&bound)
            .map(|(&(_, lo, n), &(_, _, t))| {
                (
                    self.values[t as usize].reg,
                    self.reg_in(lo, outer),
                    self.reg_in(n, outer),
                )
            })
            .collect();
        let f = std::mem::take(&mut self.frames[frame]);
        let id = self.nests.len() as u16;
        self.nests.push(Nest {
            axes: nest_axes,
            len: level.body.len() as u16,
            ints: f.ints as u16,
            floats: f.floats as u16,
            import_ints: f.import_ints,
            import_floats: f.import_floats,
            keep_ints: Box::default(),
            keep_floats: Box::default(),
            lane_slots: f.lane_slots,
        });
        let cur = self.cur_level();
        let out = &mut self.levels[cur].body;
        out.extend(level.pre);
        out.push(Op::new(Code::Nest, 0, id, 0, 0));
        out.extend(level.body);
    }

    // --- expressions --------------------------------------------------------

    /// The walker's `as_int`.
    fn as_int(&mut self, v: V) -> Vid {
        match v {
            V::Int(x) => x,
            V::Float(x) => self.op(Code::FToITrunc, Kind::Int, &[x]),
            V::Handle(..) => {
                self.unsupported("handle used as int");
                self.iconst(0)
            }
        }
    }

    /// The walker's `as_float`.
    fn as_float(&mut self, v: V) -> Vid {
        match v {
            V::Float(x) => x,
            V::Int(x) => self.op(Code::IToF, Kind::Float, &[x]),
            V::Handle(..) => {
                self.unsupported("handle used as float");
                self.fconst(0.0)
            }
        }
    }

    /// `e` evaluated and tested for non-zero: a 0/1 value.
    fn truthy(&mut self, e: &Expr) -> Vid {
        let v = self.expr(e);
        let x = self.as_int(v);
        if self.values[x as usize].is_bool {
            x
        } else {
            self.op(Code::IBool, Kind::Int, &[x])
        }
    }

    /// `e` evaluated as an integer, `+ - *` regrouped by level.
    fn int_of(&mut self, e: &Expr) -> Vid {
        let a = self.affine(e);
        self.materialize(a)
    }

    /// `e` as a buffer index: two values whose sum it is, the second its
    /// deepest term when that has coefficient one (zero otherwise), which
    /// the load or store adds itself.
    fn index_of(&mut self, e: &Expr) -> (Vid, Vid) {
        let mut a = self.affine(e);
        a.terms
            .sort_by_key(|&(v, _)| (self.values[v as usize].level, v));
        let last = match a.terms.last() {
            Some(&(v, 1)) if a.terms.len() > 1 || a.c != 0 => {
                a.terms.pop();
                v
            }
            _ => self.iconst(0),
        };
        (self.materialize(a), last)
    }

    pub(super) fn affine(&mut self, e: &Expr) -> Affine {
        match &*e.0 {
            ExprNode::IntImm { value, .. } => Affine::konst(*value),
            ExprNode::Binary {
                op: op @ (BinOp::Add | BinOp::Sub | BinOp::Mul),
                a,
                b,
                ..
            } if !a.dtype().is_float() => {
                let mut x = self.affine(a);
                let y = self.affine(b);
                match (op, x.as_const(), y.as_const()) {
                    (BinOp::Add, _, _) => x.add_scaled(&y, 1),
                    (BinOp::Sub, _, _) => x.add_scaled(&y, -1),
                    (_, _, Some(k)) => {
                        let unscaled = std::mem::replace(&mut x, Affine::konst(0));
                        x.add_scaled(&unscaled, k);
                    }
                    (_, Some(k), None) => {
                        x = Affine::konst(0);
                        x.add_scaled(&y, k);
                    }
                    (_, None, None) => {
                        let (vx, vy) = (self.materialize(x), self.materialize(y));
                        let product = self.op(Code::IMul, Kind::Int, &[vx, vy]);
                        x = Affine {
                            c: 0,
                            terms: vec![(product, 1)],
                        };
                    }
                }
                x
            }
            _ => {
                let v = self.expr(e);
                let x = self.as_int(v);
                self.affine_of(x)
            }
        }
    }

    fn affine_of(&self, x: Vid) -> Affine {
        match self.values[x as usize].konst {
            Some(k) => Affine::konst(k),
            None => Affine {
                c: 0,
                terms: vec![(x, 1)],
            },
        }
    }

    /// Sums the terms shallowest level first, so that each partial sum is
    /// hoisted as far as its own terms allow.
    pub(super) fn materialize(&mut self, mut a: Affine) -> Vid {
        a.terms
            .sort_by_key(|&(v, _)| (self.values[v as usize].level, v));
        let mut acc = (a.c != 0).then(|| self.iconst(a.c));
        for (v, k) in a.terms {
            acc = Some(match (acc, k) {
                (None, 1) => v,
                (None, _) => {
                    let k = self.iconst(k);
                    self.op(Code::IMul, Kind::Int, &[v, k])
                }
                (Some(s), 1) => self.op(Code::IAdd, Kind::Int, &[s, v]),
                (Some(s), -1) => self.op(Code::ISub, Kind::Int, &[s, v]),
                (Some(s), _) => {
                    let k = self.iconst(k);
                    self.op(Code::IMulAdd, Kind::Int, &[s, v, k])
                }
            });
        }
        acc.unwrap_or_else(|| self.iconst(0))
    }

    fn expr(&mut self, e: &Expr) -> V {
        use ExprNode::*;
        match &*e.0 {
            IntImm { value, .. } => V::Int(self.iconst(*value)),
            FloatImm { value, .. } => V::Float(self.fconst(*value)),
            StringImm(_) => {
                self.unsupported("string immediate");
                self.dummy(false)
            }
            Var(v) => {
                if let Some(&bound) = self.vars.get(&v.id()) {
                    return bound;
                }
                match self.scalars.get(&v.id()) {
                    Some(Value::Int(x)) => V::Int(self.iconst(*x)),
                    Some(Value::Float(x)) => V::Float(self.fconst(*x)),
                    Some(Value::Handle(_)) => {
                        self.unsupported("buffer handle bound as a scalar");
                        self.dummy(false)
                    }
                    None => {
                        self.raise(InterpError::UnboundVar(v.name().to_string()));
                        self.dummy(v.dtype().is_float())
                    }
                }
            }
            Cast { dtype, value } => {
                let v = self.expr(value);
                let t = dtype.element();
                if t.is_int() {
                    let x = match v {
                        V::Int(x) => x,
                        V::Float(x) => self.op(Code::FToIFloor, Kind::Int, &[x]),
                        V::Handle(..) => {
                            self.unsupported("handle cast");
                            self.iconst(0)
                        }
                    };
                    if t.bits >= 64 {
                        return V::Int(x);
                    }
                    let spec = t.bits as u16 | ((t.code == TypeCode::Int) as u16) << 8;
                    V::Int(self.pure(Code::IQuant, Kind::Int, &[x], &[spec], false))
                } else {
                    let x = self.as_float(v);
                    V::Float(match t.bits {
                        16 => self.op(Code::FRound16, Kind::Float, &[x]),
                        32 => self.op(Code::FRound32, Kind::Float, &[x]),
                        _ => x,
                    })
                }
            }
            Binary { op, a, b, .. } => self.binary(e, *op, a, b),
            Cmp { op, a, b } => {
                let float = a.dtype().is_float();
                let (x, y) = if float {
                    let va = self.expr(a);
                    let x = self.as_float(va);
                    let vb = self.expr(b);
                    (x, self.as_float(vb))
                } else {
                    (self.int_of(a), self.int_of(b))
                };
                let (code, x, y) = match (op, float) {
                    (CmpOp::Eq, false) => (Code::IEq, x, y),
                    (CmpOp::Ne, false) => (Code::INe, x, y),
                    (CmpOp::Lt, false) => (Code::ILt, x, y),
                    (CmpOp::Le, false) => (Code::ILe, x, y),
                    (CmpOp::Gt, false) => (Code::ILt, y, x),
                    (CmpOp::Ge, false) => (Code::ILe, y, x),
                    (CmpOp::Eq, true) => (Code::FEq, x, y),
                    (CmpOp::Ne, true) => (Code::FNe, x, y),
                    (CmpOp::Lt, true) => (Code::FLt, x, y),
                    (CmpOp::Le, true) => (Code::FLe, x, y),
                    (CmpOp::Gt, true) => (Code::FLt, y, x),
                    (CmpOp::Ge, true) => (Code::FLe, y, x),
                };
                V::Int(self.op(code, Kind::Int, &[x, y]))
            }
            And { a, b } => self.short_circuit(a, b, Code::JumpIfZero),
            Or { a, b } => self.short_circuit(a, b, Code::JumpIfNonZero),
            Not { a } => {
                let v = self.expr(a);
                let x = self.as_int(v);
                V::Int(self.op(Code::INot, Kind::Int, &[x]))
            }
            Select {
                cond,
                then_case,
                else_case,
            } => self.select(cond, then_case, else_case),
            Load {
                buffer,
                index,
                predicate,
            } => match predicate {
                None => {
                    let idx = self.index_of(index);
                    self.load(buffer, idx)
                }
                Some(p) => {
                    // The walker yields a zero of the variable's type when
                    // the predicate fails and an element of the storage's
                    // kind when it holds; where the two differ, a float.
                    let c = self.truthy(p);
                    let stored = match self.vars.get(&buffer.id()) {
                        Some(&V::Handle(_, s)) => self.slots[s as usize].storage.kind(),
                        _ => Kind::Int,
                    };
                    let float = buffer.dtype().is_float() || stored == Kind::Float;
                    let zero = self.dummy(float);
                    let d = self.fresh(if float { Kind::Float } else { Kind::Int });
                    self.assign(d, zero);
                    let skip = self.branch(Code::JumpIfZero, c);
                    let idx = self.index_of(index);
                    let v = self.load(buffer, idx);
                    self.assign(d, v);
                    self.land(skip);
                    if float {
                        V::Float(d)
                    } else {
                        V::Int(d)
                    }
                }
            },
            Ramp { .. } | Broadcast { .. } => {
                self.unsupported("vector value (run pre-vectorized IR)");
                self.dummy(e.dtype().is_float())
            }
            Let { var, value, body } => {
                let v = self.expr(value);
                let shadowed = self.vars.insert(var.id(), v);
                let r = self.expr(body);
                self.unbind(var.id(), shadowed);
                r
            }
            Call {
                name,
                args,
                kind,
                dtype,
            } => match kind {
                CallKind::PureIntrinsic => self.pure_call(name, args, *dtype),
                CallKind::HardwareIntrinsic => {
                    let kind = if dtype.is_float() {
                        Kind::Float
                    } else {
                        Kind::Int
                    };
                    let d = self.fresh(kind);
                    let ret = (kind, self.values[d as usize].reg);
                    self.hw_call(name, args, Some(ret));
                    match kind {
                        Kind::Float => V::Float(d),
                        Kind::Int => V::Int(d),
                    }
                }
            },
        }
    }

    fn binary(&mut self, e: &Expr, op: BinOp, a: &Expr, b: &Expr) -> V {
        use BinOp::*;
        if a.dtype().is_float() {
            let va = self.expr(a);
            let x = self.as_float(va);
            let vb = self.expr(b);
            let y = self.as_float(vb);
            let code = match op {
                Add => Code::FAdd,
                Sub => Code::FSub,
                Mul => Code::FMul,
                Div => Code::FDiv,
                Mod => Code::FMod,
                Min => Code::FMin,
                Max => Code::FMax,
                _ => {
                    self.unsupported("bitwise op on float");
                    return self.dummy(true);
                }
            };
            return V::Float(self.op(code, Kind::Float, &[x, y]));
        }
        if matches!(op, Add | Sub | Mul) {
            return V::Int(self.int_of(e));
        }
        let x = self.int_of(a);
        let y = self.affine(b);
        let konst = y.as_const();
        if let (Div | Mod, Some(k @ 1..)) = (op, konst) {
            return V::Int(self.by_constant(x, k, op == Mod));
        }
        let y = self.materialize(y);
        // Only a zero divisor faults: a division by any other constant may
        // move.
        let checked = konst.is_none_or(|k| k == 0);
        let (code, pinned) = match op {
            Div => (Code::IDiv, checked),
            Mod => (Code::IMod, checked),
            Min => (Code::IMin, false),
            Max => (Code::IMax, false),
            BitAnd => (Code::IAnd, false),
            BitOr => (Code::IOr, false),
            BitXor => (Code::IXor, false),
            Shl => (Code::IShl, false),
            Shr => (Code::IShr, false),
            Add | Sub | Mul => unreachable!("affine ops are handled above"),
        };
        V::Int(self.pure(code, Kind::Int, &[x, y], &[], pinned))
    }

    /// `x // k`, or `x % k` when `rem`, for a constant `k > 0`: the quotient
    /// a multiply-high by the [`magic`] of `k` (`x` itself when `k` is one),
    /// the remainder `x - k * (x // k)`. The magic is the op's literals, the
    /// multiplier in the constant pool, so a division takes no register: in
    /// a barriered nest a constant is a register of the lanes' shared
    /// window, filled once per nest entry.
    fn by_constant(&mut self, x: Vid, k: i64, rem: bool) -> Vid {
        let q = if k == 1 {
            x
        } else {
            let (m, shift) = magic(k);
            let m = intern(&mut self.iconsts, m as i64, |c| c == m as i64);
            self.pure(Code::IDivNz, Kind::Int, &[x], &[m, shift], false)
        };
        if !rem {
            return q;
        }
        let k = self.iconst(k);
        self.op(Code::IMulSub, Kind::Int, &[x, q, k])
    }

    /// `a && b` (`skip` = `JumpIfZero`) or `a || b` (`JumpIfNonZero`): `b`
    /// is evaluated only when `a` does not decide, unless evaluating it
    /// cannot be observed.
    fn short_circuit(&mut self, a: &Expr, b: &Expr, skip: Code) -> V {
        let x = self.truthy(a);
        let code = if skip == Code::JumpIfZero {
            Code::IAnd
        } else {
            Code::IOr
        };
        let y = if self.speculable(b) {
            self.truthy(b)
        } else {
            let d = self.fresh(Kind::Int);
            self.values[d as usize].is_bool = true;
            self.assign(d, V::Int(x));
            let at = self.branch(skip, x);
            let y = self.truthy(b);
            self.assign(d, V::Int(y));
            self.land(at);
            return V::Int(d);
        };
        let v = self.op(code, Kind::Int, &[x, y]);
        self.values[v as usize].is_bool = true;
        V::Int(v)
    }

    fn select(&mut self, cond: &Expr, then_case: &Expr, else_case: &Expr) -> V {
        let c = self.truthy(cond);
        let (t, f) = if self.speculable(then_case) && self.speculable(else_case) {
            (self.expr(then_case), self.expr(else_case))
        } else {
            return self.branchy_select(c, then_case, else_case);
        };
        match (t, f) {
            (V::Int(t), V::Int(f)) => V::Int(self.op(Code::ISelect, Kind::Int, &[c, t, f])),
            (V::Handle(..), _) | (_, V::Handle(..)) => {
                self.unsupported("select between buffer handles");
                self.dummy(false)
            }
            (t, f) => {
                let (t, f) = (self.as_float(t), self.as_float(f));
                V::Float(self.op(Code::FSelect, Kind::Float, &[c, t, f]))
            }
        }
    }

    /// A `select` whose arms may fault or read memory, in scalar code.
    fn branchy_select(&mut self, c: Vid, then_case: &Expr, else_case: &Expr) -> V {
        // Each arm runs only when chosen and moves its value into `d`; the
        // moves are emitted once both kinds are known.
        let to_else = self.branch(Code::JumpIfZero, c);
        let t = self.expr(then_case);
        self.push(Op::new(Code::IMov, 0, 0, 0, 0));
        let then_mov = self.levels[self.cur_level()].body.len() - 1;
        self.pop_scope();
        self.push(Op::new(Code::Jump, 0, 0, 0, 0));
        let to_end = then_mov + 1;
        self.patch(to_else);
        self.push_scope();
        let f = self.expr(else_case);
        self.push(Op::new(Code::IMov, 0, 0, 0, 0));
        let else_mov = self.levels[self.cur_level()].body.len() - 1;
        self.land(to_end);
        let kind = match (t, f) {
            (V::Int(_), V::Int(_)) => Kind::Int,
            (V::Handle(..), _) | (_, V::Handle(..)) => {
                self.unsupported("select between buffer handles");
                return self.dummy(false);
            }
            _ => Kind::Float,
        };
        let d = self.fresh(kind);
        for (at, v) in [(then_mov, t), (else_mov, f)] {
            let mov = self.mov(d, v);
            let cur = self.cur_level();
            self.levels[cur].body[at] = mov;
        }
        match kind {
            Kind::Int => V::Int(d),
            Kind::Float => V::Float(d),
        }
    }

    /// The op that moves `v` into the register of `d`, converting an
    /// integer to a float where `d` is one.
    fn mov(&mut self, d: Vid, v: V) -> Op {
        let info = self.values[d as usize];
        match (info.kind, v) {
            (Kind::Int, V::Int(x)) => Op::new(Code::IMov, info.reg, self.reg(x), 0, 0),
            (Kind::Float, V::Float(x)) => Op::new(Code::FMov, info.reg, self.reg(x), 0, 0),
            (Kind::Float, V::Int(x)) => Op::new(Code::IToF, info.reg, self.reg(x), 0, 0),
            _ => unreachable!("a float or a handle is never moved into an integer"),
        }
    }

    fn assign(&mut self, d: Vid, v: V) {
        let op = self.mov(d, v);
        self.push(op);
    }

    fn load(&mut self, buffer: &Var, (base, last): (Vid, Vid)) -> V {
        let Some(&V::Handle(_, slot)) = self.vars.get(&buffer.id()) else {
            self.raise(InterpError::UnknownBuffer("?".into()));
            return self.dummy(buffer.dtype().is_float());
        };
        let storage = self.slots[slot as usize].storage;
        let d = self.fresh(storage.kind());
        let code = match storage {
            Storage::F32 => Code::LoadF32,
            Storage::F64 => Code::LoadF64,
            Storage::I64 => Code::LoadI64,
        };
        let (base, last) = (self.reg(base), self.reg(last));
        self.push(Op::new(code, self.values[d as usize].reg, slot, base, last));
        match storage.kind() {
            Kind::Float => V::Float(d),
            Kind::Int => V::Int(d),
        }
    }

    fn pure_call(&mut self, name: &str, args: &[Expr], dtype: DType) -> V {
        let vals: Vec<V> = args.iter().map(|a| self.expr(a)).collect();
        let arity = if name == "pow" { 2 } else { 1 };
        let unary = unary_index(name);
        let known = unary.is_some() || name == "pow" || name == "popcount";
        if !known {
            self.raise(InterpError::UnknownIntrinsic(name.to_string()));
            return self.dummy(dtype.is_float());
        }
        if vals.len() < arity {
            self.raise(InterpError::Malformed("missing intrinsic arg".into()));
            return self.dummy(dtype.is_float());
        }
        match (name, unary) {
            ("pow", _) => {
                let (x, y) = (self.as_float(vals[0]), self.as_float(vals[1]));
                V::Float(self.op(Code::FPow, Kind::Float, &[x, y]))
            }
            ("popcount", _) => {
                // Count within the operand's width: a negative narrow word
                // is sign-extended in its `i64` register.
                let mut x = self.as_int(vals[0]);
                let operand = args[0].dtype();
                if !operand.is_float() && operand.bits < 64 {
                    let mask = self.iconst((1i64 << operand.bits) - 1);
                    x = self.op(Code::IAnd, Kind::Int, &[x, mask]);
                }
                V::Int(self.op(Code::IPopcount, Kind::Int, &[x]))
            }
            ("abs", _) if !dtype.is_float() => {
                let x = self.as_int(vals[0]);
                V::Int(self.op(Code::IAbs, Kind::Int, &[x]))
            }
            (_, Some(f)) => {
                let x = self.as_float(vals[0]);
                V::Float(self.pure(Code::FUnary, Kind::Float, &[x], &[f], false))
            }
            // Every other name was raised as unknown above.
            (_, None) => self.dummy(dtype.is_float()),
        }
    }

    fn hw_call(&mut self, name: &str, args: &[Expr], ret: Option<(Kind, Reg)>) {
        let vals: Vec<V> = args.iter().map(|a| self.expr(a)).collect();
        let args = vals
            .into_iter()
            .map(|v| match v {
                V::Int(x) => HwArg::Int(self.reg(x)),
                V::Float(x) => HwArg::Float(self.reg(x)),
                V::Handle(id, slot) => HwArg::Handle(id, slot),
            })
            .collect();
        self.push(Op::new(Code::HwCall, 0, self.hw_calls.len() as u16, 0, 0));
        self.hw_calls.push(HwCall {
            name: name.to_string(),
            args,
            ret,
        });
    }

    /// True if evaluating `e` can neither fault nor be observed, so that it
    /// may run where the walker would have skipped it.
    fn speculable(&self, e: &Expr) -> bool {
        use ExprNode::*;
        match &*e.0 {
            IntImm { .. } | FloatImm { .. } => true,
            Var(v) => matches!(self.vars.get(&v.id()), Some(V::Int(_) | V::Float(_))),
            Cast { value, .. } => self.speculable(value),
            Binary { op, a, b, .. } => {
                let float = a.dtype().is_float();
                let safe = match op {
                    BinOp::Div | BinOp::Mod => float || b.as_int().is_some_and(|k| k != 0),
                    BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Min | BinOp::Max => true,
                    _ => !float,
                };
                safe && self.speculable(a) && self.speculable(b)
            }
            Cmp { a, b, .. } | And { a, b } | Or { a, b } => {
                self.speculable(a) && self.speculable(b)
            }
            Not { a } => self.speculable(a),
            Select {
                cond,
                then_case,
                else_case,
            } => self.speculable(cond) && self.speculable(then_case) && self.speculable(else_case),
            StringImm(_)
            | Load { .. }
            | Ramp { .. }
            | Broadcast { .. }
            | Let { .. }
            | Call { .. } => false,
        }
    }
}

/// The multiplier `m` and shift `l - 1` by which [`Code::IDivNz`] divides
/// by `k >= 2`: `l = ceil(log2 k)` and `m = ceil(2^(63 + l) / k)`. Then
/// `floor(n / k) = (n * m) >> (63 + l)` for every `0 <= n < 2^63`
/// (Granlund and Montgomery, PLDI 1994, with 63-bit dividends):
/// `m * k - 2^(63 + l) < k <= 2^l`, so the product overshoots `n / k` by
/// less than `1 / k`. `2^(l-1) < k` keeps `m` below `2^64`; a power of two
/// `2^l` gets `m = 2^63`, a shift by `l`.
pub(super) fn magic(k: i64) -> (u64, u16) {
    let k = k as u128;
    let l = 128 - (k - 1).leading_zeros();
    let m = (1u128 << (63 + l)).div_ceil(k);
    (m as u64, (l - 1) as u16)
}

/// Index of `value` in `pool`, added if `same` finds no equal. An index past
/// `u16` wraps; [`Compiler::finish`] rejects a program whose pools are that
/// large.
fn intern<T: Copy>(pool: &mut Vec<T>, value: T, same: impl Fn(T) -> bool) -> u16 {
    let k = pool.iter().position(|&c| same(c)).unwrap_or_else(|| {
        pool.push(value);
        pool.len() - 1
    });
    k as u16
}

/// The walker's static barrier count of one thread running `s`: `Err` when
/// two branches of a conditional disagree, `Ok(None)` when a loop extent on
/// the way is not a constant (the lanes' turns catch a divergence then).
fn static_barriers(s: &Stmt) -> std::result::Result<Option<u64>, ()> {
    use StmtNode::*;
    Ok(match &*s.0 {
        Barrier => Some(1),
        For { extent, body, .. } => match extent.as_int() {
            Some(n) if n <= 0 => Some(0),
            n => match (n, static_barriers(body)?) {
                (_, Some(0)) => Some(0),
                (Some(n), Some(per)) => Some(per * n as u64),
                _ => None,
            },
        },
        Seq(stmts) => {
            let mut total = Some(0);
            for st in stmts {
                total = total.zip(static_barriers(st)?).map(|(t, n)| t + n);
            }
            total
        }
        IfThenElse {
            then_case,
            else_case,
            ..
        } => {
            let a = static_barriers(then_case)?;
            let b = match else_case {
                Some(e) => static_barriers(e)?,
                None => Some(0),
            };
            if a.zip(b).is_some_and(|(a, b)| a != b) {
                return Err(());
            }
            a.zip(b).map(|(a, _)| a)
        }
        LetStmt { body, .. } | AttrStmt { body, .. } | Allocate { body, .. } => {
            static_barriers(body)?
        }
        _ => Some(0),
    })
}

#[cfg(test)]
mod tests {
    //! A `vectorized` loop that no reduce nest takes compiles to the very
    //! ops the same loop marked `serial` does.

    use super::*;
    use crate::expr::Expr;
    use crate::interval::floor_div;

    /// Each op's code and fields.
    fn ops(p: &Program) -> Vec<(Code, u16, u16, u16, u16)> {
        p.ops.iter().map(|o| (o.code, o.d, o.a, o.b, o.c)).collect()
    }

    /// Compiles `loop_of(kind)` over `params`, each a buffer of 16 held as
    /// its [`Storage`] says, as `serial` and as `vectorized`, and checks
    /// that the two programs are the same.
    fn same_as_serial(params: &[(&Var, Storage)], loop_of: impl Fn(ForKind) -> Stmt) {
        let held: Vec<(Storage, DType)> = params.iter().map(|(v, s)| (*s, v.dtype())).collect();
        let compile = |kind| {
            let func = LoweredFunc {
                name: "t".into(),
                params: params.iter().map(|(v, _)| (*v).clone()).collect(),
                param_dtypes: held.iter().map(|&(_, t)| t).collect(),
                param_extents: vec![16; params.len()],
                body: loop_of(kind),
            };
            Program::compile(&func, &held, &HashMap::new())
        };
        let (serial, vectorized) = (compile(ForKind::Serial), compile(ForKind::Vectorized));
        assert_eq!(ops(&vectorized), ops(&serial));
        assert_eq!(
            (vectorized.ints, vectorized.floats),
            (serial.ints, serial.floats)
        );
        assert_eq!((serial.reduce_loops(), vectorized.reduce_loops()), (0, 0));
    }

    fn f32_var(name: &str) -> Var {
        Var::new(name, DType::float32())
    }

    #[test]
    fn a_padded_select_row() {
        // O[i] = max(O[i], A[i + k - 1] if 0 <= i + k - 1 < 8 else 0)
        let (a, o, k, i) = (f32_var("A"), f32_var("O"), Var::int("k"), Var::int("i"));
        let x = i.clone() + k.clone() - 1;
        let inside = x.clone().ge(Expr::int(0)).and(x.clone().lt(Expr::int(8)));
        let padded = Expr::select(inside, Expr::load(&a, x), Expr::f32(0.0));
        let row = Stmt::store(&o, i.to_expr(), Expr::load(&o, i.to_expr()).max(padded));
        same_as_serial(&[(&a, Storage::F32), (&o, Storage::F32)], |kind| {
            Stmt::for_(&k, 0, 3, Stmt::loop_(&i, 0, 8, kind, row.clone()))
        });
    }

    #[test]
    fn a_predicated_tail_store() {
        // O[8 f.o + f.i] = A[8 f.o + f.i] * 0.5 where 8 f.o + f.i < 10
        let (a, o, fo, fi) = (f32_var("A"), f32_var("O"), Var::int("f.o"), Var::int("f.i"));
        let x = fo.clone() * 8 + fi.clone();
        let store = Stmt::new(StmtNode::Store {
            buffer: o.clone(),
            index: x.clone(),
            value: Expr::load(&a, x.clone()) * Expr::f32(0.5),
            predicate: Some(x.lt(Expr::int(10))),
        });
        same_as_serial(&[(&a, Storage::F32), (&o, Storage::F32)], |kind| {
            Stmt::for_(&fo, 0, 2, Stmt::loop_(&fi, 0, 8, kind, store.clone()))
        });
    }

    #[test]
    fn a_checked_division() {
        // O[i] = 12 / (i - 3), which divides by zero at i = 3.
        let (o, i) = (Var::new("O", DType::int32()), Var::int("i"));
        let store = Stmt::store(&o, i.to_expr(), Expr::int(12) / (i.clone() - 3));
        same_as_serial(&[(&o, Storage::I64)], |kind| {
            Stmt::loop_(&i, 0, 8, kind, store.clone())
        });
    }

    #[test]
    fn an_f16_store() {
        // O[i] = i / 3 into float16, held as f32.
        let (o, i) = (Var::new("O", DType::float16()), Var::int("i"));
        let third = i.to_expr().cast(DType::float32()) / Expr::f32(3.0);
        let store = Stmt::store(&o, i.to_expr(), third);
        same_as_serial(&[(&o, Storage::F32)], |kind| {
            Stmt::loop_(&i, 0, 11, kind, store.clone())
        });
    }

    #[test]
    fn the_magic_of_every_divisor_floors_exactly() {
        // Every `k` from 2 to 2^14, powers of two above it, the largest
        // `k`, and dividends at both ends of `i64`, around each multiple of
        // `k` there, and drawn from a xorshift.
        let large = [
            (1i64 << 31) - 1,
            1_000_000_007,
            (1 << 62) + 1,
            i64::MAX - 1,
            i64::MAX,
        ];
        let ks = (2..1i64 << 14).chain((15..63).map(|j| 1 << j)).chain(large);
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        for k in ks {
            let (m, shift) = magic(k);
            let top = i64::MAX - i64::MAX % k;
            let mut ns = vec![
                i64::MIN,
                i64::MIN + 1,
                -1,
                0,
                1,
                i64::MAX,
                top,
                -top,
                -top - 1,
            ];
            ns.extend([
                -k - 1,
                -k,
                -k + 1,
                k - 1,
                k,
                k.wrapping_add(1),
                top - 1,
                -top + 1,
            ]);
            for _ in 0..16 {
                seed ^= seed << 13;
                seed ^= seed >> 7;
                seed ^= seed << 17;
                ns.push(seed as i64);
            }
            for n in ns {
                let q = super::super::machine::div_magic(n, m, shift as u32);
                assert_eq!(q, floor_div(n, k), "{n} // {k}");
            }
        }
    }

    #[test]
    fn no_positive_constant_divisor_reaches_a_hardware_divide() {
        // O[i] = A[i] // k + A[i] % k for each constant `k`, and by `A[0]`.
        let (a, o, i) = (
            Var::new("A", DType::int64()),
            Var::new("O", DType::int64()),
            Var::int("i"),
        );
        let program = |k: Expr| {
            let x = Expr::load(&a, i.to_expr());
            let value = x.clone().floordiv(k.clone()) + x % k;
            let func = LoweredFunc {
                name: "t".into(),
                params: vec![a.clone(), o.clone()],
                param_dtypes: vec![DType::int64(); 2],
                param_extents: vec![16; 2],
                body: Stmt::for_(&i, 0, 16, Stmt::store(&o, i.to_expr(), value)),
            };
            let held = [(Storage::I64, DType::int64()); 2];
            Program::compile(&func, &held, &HashMap::new())
        };
        let codes = |p: &Program| p.ops.iter().map(|o| o.code).collect::<Vec<_>>();
        for k in [1, 2, 8, 1 << 40, 3, 10, i64::MAX] {
            let p = program(Expr::int(k));
            assert_eq!(p.hardware_divides(), 0, "{k}: {:?}", codes(&p));
            assert_eq!(codes(&p).contains(&Code::IDivNz), k > 1, "{k}");
            assert!(codes(&p).contains(&Code::IMulSub), "{k}");
        }
        // A negative constant and a variable divide in hardware, once for
        // `//` and once for `%` (each reads its own `A[i]`).
        assert_eq!(program(Expr::int(-3)).hardware_divides(), 2);
        assert_eq!(program(Expr::load(&a, Expr::int(0))).hardware_divides(), 2);
    }

    #[test]
    fn a_conv_epilogue() {
        // O[8 c + i] = max(C[8 c + i] + B[c], 0)
        let (cv, b, o) = (f32_var("C"), f32_var("B"), f32_var("O"));
        let (c, i) = (Var::int("c"), Var::int("i"));
        let at = c.clone() * 8 + i.clone();
        let sum = Expr::load(&cv, at.clone()) + Expr::load(&b, c.to_expr());
        let store = Stmt::store(&o, at, sum.max(Expr::f32(0.0)));
        let params = [(&cv, Storage::F32), (&b, Storage::F32), (&o, Storage::F32)];
        same_as_serial(&params, |kind| {
            Stmt::for_(&c, 0, 2, Stmt::loop_(&i, 0, 8, kind, store.clone()))
        });
    }
}
