//! Flat register programs: what [`Interp::run`](crate::Interp::run)
//! executes.
//!
//! [`Program::compile`] lowers a [`LoweredFunc`] once into a vector of
//! fixed-width `Op`s over two register files (`i64` and `f64`) and a slot
//! table of buffers:
//!
//! * every `Var` is resolved to a register, every buffer to a slot whose
//!   storage kind is known, so no op inspects a type at run time;
//! * pure operations are value-numbered, and each is placed at the
//!   outermost loop level that defines its operands (its *level*), in the
//!   preheader of the next loop in — common subexpressions are computed
//!   once and loop-invariant ones leave the loop. Integer `+ - *` is
//!   regrouped as an affine sum ordered by level first, which is exact
//!   because the walker computes them wrapping in `i64`;
//! * loads, stores, checked division, intrinsic calls and faults stay where
//!   the statement stands, so they happen in the walker's order and raise
//!   the walker's errors.
//!
//! A thread nest that contains a barrier becomes a `Nest`: its body is
//! compiled once, for one thread (a *lane*), into a frame with registers of
//! its own. At run time every lane gets a window of those registers and its
//! own copy of the allocations made inside the nest, and the lanes take
//! turns in row-major thread order, each running until its next barrier:
//! every statement runs once per thread, between the same barriers as on
//! hardware (§4.2). A nest without barriers is compiled as plain loops.
//!
//! A `vectorized` loop is compiled twice: to scalar code as above, and, when
//! its body allows, to *lane form*, in which each op computes every lane of
//! a chunk of up to eight iterations before the next op runs (§4.1's
//! `vectorize`, on our own ISA). A value defined in the body is a lane
//! vector; a value hoisted out of it stays a scalar operand. Conditions
//! become masks: a guarded `select(c, load, 0.0)` is a masked load, whose
//! lanes that `c` excludes neither load nor bounds-check, and an `if` around
//! the store is a store mask. The body's single store checks every active
//! lane, then writes them all.
//!
//! * *Eligible*: a body with exactly one store, whose index is affine in the
//!   loop variable with a non-zero coefficient; which reads the stored
//!   buffer only at that index; and which holds no loop, allocation,
//!   barrier, `else` or hardware intrinsic. Any other `vectorized` loop,
//!   and any inside a barriered nest, compiles to scalar code only;
//!   [`Program::lane_loops`] counts the loops that compiled to lane form.
//! * *Replay*: lane form has no side effect before its final store. If
//!   anything in a chunk faults — an out-of-bounds lane, a checked division
//!   by zero, a lane the store cannot write — the chunk is discarded and its
//!   iterations rerun through the scalar code, which stores and raises
//!   exactly where the walker does. Each lane does the walker's `f64`
//!   operations and store rounding, and the store count grows by one per
//!   lane stored, so buffers, store counts and faults are the walker's.
//!
//! A multiply-accumulate loop nest is also compiled twice: to scalar code,
//! and to a *reduce nest* that runs every iteration of the nest in one op
//! (a conv kernel's padded accumulation, a dense layer's reduction; §4.3's
//! tensorized multiply-accumulate, on our own ISA).
//!
//! * *Eligible*: a `serial`, `unrolled` or `vectorized` loop whose body is
//!   a single unpredicated float32 store `S[s] = S[s] + a * b`, the sum in
//!   either order, where each factor is `X[x]` or a padded read
//!   `select(c, X[x], k)` with `c` a conjunction of integer `< <= > >=`
//!   comparisons and `k` a float constant. `s`, `x` and both sides of each
//!   comparison must be affine in the loop variable with every other term
//!   invariant in the loop; `S` is held as `f32`, and each factor's buffer
//!   is another buffer held as `f32`. A loop of those kinds whose whole
//!   body is a loop that compiled to a reduce nest then takes it over as
//!   its new outermost level (up to eight levels), when every
//!   integer of the nest is affine in its variable too and no inner level's
//!   range depends on it; [`Program::reduce_depths`] gives each nest's
//!   levels. A nest in a barriered thread nest runs on that lane's
//!   registers and its own copy of `S` when it is thread-local.
//!   Where such a nest is not eligible, a `vectorized` loop may still run
//!   in lane form.
//! * *Exact*: the op runs the walker's iterations in its row-major order,
//!   each `S[s] = (S[s] as f64 + a as f64 * b as f64) as f32`, the walker's
//!   arithmetic and store rounding, and counts one store per iteration. In
//!   each innermost row a guard is an interval, found by division from the
//!   comparisons' affine forms; outside it the factor is `k` and nothing
//!   is loaded. An unguarded nest whose every level walks each access on
//!   from where the level inside it ends (a split reduction `k.o × k.i`)
//!   runs as one row.
//! * *Replay*: before it writes anything, the op checks with checked
//!   arithmetic that every integer stays an `i64` over the nest's box and
//!   that `S` and every unguarded factor stay in bounds at its corners; a
//!   guarded factor is checked at both ends of its interval in each row.
//!   The indices are affine, so every index between is in bounds too. If
//!   the box is empty or a check fails, the scalar code of every level
//!   runs instead and stores and faults where the walker does.
//!
//! A lane loop or a reduce nest is entered through a `Yield` op that
//! returns from the dispatch loop to [`Program::execute`] (in a barriered
//! nest, to the lanes' scheduler), which runs it and resumes after it: work
//! outside the dispatch loop does not perturb how the dispatch loop's
//! registers are allocated. A barrier has an op of its own, so a `Yield`
//! always means a handoff.
//!
//! Limits the walker does not have, each raised as
//! [`InterpError::Unsupported`]: more than 65,535 ops or registers in one
//! function, an allocation of non-constant extent inside a barriered nest,
//! and a `select` between buffer handles. A `select` (or predicated load)
//! whose arms are an integer and a float yields a float.

use std::collections::HashMap;
use std::sync::Arc;

use crate::dtype::{DType, TypeCode};
use crate::expr::{BinOp, CallKind, CmpOp, Expr, ExprNode, Var, VarId};
use crate::interp::{
    round_f16, Buffer, Data, HwHandlerFn, InterpError, MemState, Result, Slot, Value,
};
use crate::interval::{floor_div, floor_mod};
use crate::stmt::{ForKind, LoweredFunc, Stmt, StmtNode};

/// How the elements of a bound buffer are held.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Storage {
    /// `Vec<f32>`.
    F32,
    /// `Vec<f64>`.
    F64,
    /// `Vec<i64>`.
    I64,
}

impl Storage {
    /// Storage of an allocation of `dtype`: the narrowest that holds every
    /// value of the type exactly.
    fn of(dtype: DType) -> Storage {
        match (dtype.code, dtype.bits) {
            (TypeCode::Float, 64) => Storage::F64,
            (TypeCode::Float, _) => Storage::F32,
            _ => Storage::I64,
        }
    }

    fn zeros(self, n: usize) -> Data {
        match self {
            Storage::F32 => Data::F32(vec![0.0; n]),
            Storage::F64 => Data::F64(vec![0.0; n]),
            Storage::I64 => Data::I64(vec![0; n]),
        }
    }

    fn kind(self) -> Kind {
        match self {
            Storage::I64 => Kind::Int,
            _ => Kind::Float,
        }
    }
}

type Reg = u16;

/// Iterations one lane-form op computes.
const LANES: usize = 8;

/// Marks an operand of a lane-form op as a scalar register, which every
/// lane reads, rather than a lane register.
const SCALAR: u16 = 0x8000;

/// Operation codes. `d`, `a`, `b`, `c` are the fields of [`Op`]; `i[x]` /
/// `f[x]` is integer / float register `x`.
///
/// Lane form uses the same codes over lane registers (see [`SCALAR`]).
/// There a load is `lane[d] = slot[a][b]` on the lanes mask `c` selects,
/// zero on the others; a store `slot[a][b] = c` on the lanes mask `d`
/// selects; and a checked division takes its mask in `c`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[repr(u8)]
enum Code {
    /// `i[d] = iconsts[a]`
    IConst,
    /// `f[d] = fconsts[a]`
    FConst,
    IMov,
    FMov,
    IAdd,
    ISub,
    IMul,
    /// `i[d] = i[a] + i[b] * i[c]`
    IMulAdd,
    /// Floor division; faults on zero.
    IDiv,
    IMod,
    /// Floor division by a register known to hold a non-zero constant.
    IDivNz,
    IModNz,
    IMin,
    IMax,
    IAnd,
    IOr,
    IXor,
    IShl,
    IShr,
    IEq,
    INe,
    ILt,
    ILe,
    /// `i[d] = (i[a] == 0)`
    INot,
    /// `i[d] = (i[a] != 0)`
    IBool,
    /// `i[d] = i[a]` wrapped to `b & 0xff` bits, sign-extended if `b >> 8`.
    IQuant,
    IAbs,
    IPopcount,
    /// `i[d] = i[a] != 0 ? i[b] : i[c]`
    ISelect,
    FAdd,
    FSub,
    FMul,
    FDiv,
    FMod,
    FMin,
    FMax,
    /// Float comparisons write an integer register.
    FEq,
    FNe,
    FLt,
    FLe,
    /// `f[d] = f[a] as f32 as f64`
    FRound32,
    FRound16,
    /// `f[d] = UNARY[b](f[a])`
    FUnary,
    FPow,
    /// `f[d] = i[a] != 0 ? f[b] : f[c]`
    FSelect,
    IToF,
    /// `i[d] = f[a] as i64` (the walker's `as_int`).
    FToITrunc,
    /// `i[d] = f[a].floor() as i64` (the walker's integer cast).
    FToIFloor,
    /// `f[d] = slot[a][i[b] + i[c]]`, by storage kind. The index is a sum
    /// so that its last term, the one that changes fastest, costs no op.
    LoadF32,
    LoadF64,
    LoadI64,
    /// `slot[a][i[b] + i[d]] = f[c]` rounded to the slot's type.
    StoreF32,
    StoreF16,
    StoreF64,
    StoreI64,
    /// Slot `a` becomes `max(i[b], 0)` zeros.
    Alloc,
    /// `pc += a`
    Jump,
    /// `if i[a] == 0 { pc += b }`
    JumpIfZero,
    JumpIfNonZero,
    /// `if i[a] >= i[b] { pc += c }`: loop entry, `a` the variable, `b` the
    /// limit.
    LoopGuard,
    /// `i[a] += 1; if i[a] < i[b] { pc -= c }`
    LoopNext,
    /// Returns `errors[a]`.
    Raise,
    /// Calls `hw_calls[a]`.
    HwCall,
    /// Runs `nests[a]`, whose code follows this op.
    Nest,
    /// Returns to the caller, which hands over `handoffs[a]` and resumes
    /// after it: a lane loop, whose lane code and then scalar code follow,
    /// or a reduce nest, whose scalar code follows. Both run outside the
    /// dispatch loop, so that scalar code keeps its registers. In a
    /// barriered nest the handoff runs on the current lane's window.
    Yield,
    /// Ends the current lane's turn in a barriered nest; the lane resumes
    /// at the next op when every lane has reached it.
    Barrier,
}

/// One instruction: ten bytes, so that the programs a module caches stay a
/// few KiB per kernel.
#[derive(Clone, Copy)]
struct Op {
    code: Code,
    d: u16,
    a: u16,
    b: u16,
    c: u16,
}

impl Op {
    fn new(code: Code, d: u16, a: u16, b: u16, c: u16) -> Op {
        Op { code, d, a, b, c }
    }
}

const UNARY: [fn(f64) -> f64; 8] = [
    f64::exp,
    f64::ln,
    f64::sqrt,
    f64::tanh,
    |x| 1.0 / (1.0 + (-x).exp()),
    f64::abs,
    f64::floor,
    f64::round,
];

fn unary_index(name: &str) -> Option<u16> {
    [
        "exp", "log", "sqrt", "tanh", "sigmoid", "abs", "floor", "round",
    ]
    .iter()
    .position(|n| *n == name)
    .map(|i| i as u16)
}

#[derive(Clone)]
struct SlotDecl {
    id: VarId,
    name: Arc<str>,
    dtype: DType,
    storage: Storage,
}

#[derive(Clone)]
enum HwArg {
    Int(Reg),
    Float(Reg),
    /// A buffer handle and the slot it names at this call.
    Handle(VarId, u16),
}

#[derive(Clone)]
struct HwCall {
    name: String,
    args: Vec<HwArg>,
    /// Where the handler's return value goes, when the call is an operand.
    ret: Option<(Kind, Reg)>,
}

/// A barriered thread nest. Register numbers on the `inner` side index a
/// lane's window.
#[derive(Clone)]
struct Nest {
    /// Thread variable (inner) and the registers of the enclosing frame
    /// that hold its `min` and `extent`, outermost axis first.
    axes: Vec<(Reg, Reg, Reg)>,
    /// Ops of lane code following the `Nest` op.
    len: u16,
    ints: u16,
    floats: u16,
    /// `(outer, inner)` registers copied into each lane's window on entry.
    live_ints: Vec<(Reg, Reg)>,
    live_floats: Vec<(Reg, Reg)>,
    /// Allocations made inside the nest, one copy per lane: `(slot, extent)`.
    lane_slots: Vec<(u16, usize)>,
}

/// A `vectorized` loop in lane form. Its `Yield` op is followed by
/// `lanes_len` ops of lane code, then `scalar_len` ops of the loop's scalar
/// body, which replays a chunk whose lane code faulted.
#[derive(Clone)]
struct LaneLoop {
    /// Scalar registers of the loop variable, which holds the chunk's first
    /// iteration, and of the loop's limit.
    counter: Reg,
    limit: Reg,
    /// Lane register holding the chunk's iterations.
    iv: Reg,
    lanes_len: u16,
    scalar_len: u16,
}

/// Most loop levels one reduce nest spans.
const MAX_DEPTH: usize = 8;

/// Most affine integers one reduce nest tracks: the three indices and both
/// sides of up to six guard comparisons.
const MAX_LINS: usize = 15;

/// A perfect nest of loops around `S[s] = S[s] + a * b` run as one op, in
/// the walker's row-major order. Each factor is `X[x]` or a guarded
/// `select(c, X[x], k)`. Its `Yield` op is followed by the outermost
/// loop's scalar code, `scalar_len` ops from its `LoopGuard` to its
/// `LoopNext`, which runs instead when the nest cannot.
#[derive(Clone)]
struct ReduceNest {
    /// Outermost first.
    levels: Vec<NestLevel>,
    /// Slots of `S` and of the two factors' buffers.
    slots: [u16; 3],
    /// The indices of `S` and of the two factors, then both sides of every
    /// guard comparison.
    lins: Vec<Lin>,
    /// Each factor's guard, if it has one.
    guards: [Option<Guard>; 2],
    scalar_len: u16,
}

/// Registers of a nest level's loop variable, first iteration and limit.
#[derive(Clone, Copy)]
struct NestLevel {
    counter: Reg,
    lo: Reg,
    limit: Reg,
}

/// `i[base] + Σ strides[j] * k[j]` over the nest's loop variables `k`,
/// outermost first.
#[derive(Clone, Copy)]
struct Lin {
    base: Reg,
    strides: [i64; MAX_DEPTH],
}

/// A factor's guard: where every comparison holds it loads, elsewhere it is
/// `konst`.
#[derive(Clone)]
struct Guard {
    /// `(a, b, strict)`: `lins[a] < lins[b]`, or `<=` unless strict.
    cmps: Vec<(usize, usize, bool)>,
    konst: f64,
}

/// What a `Yield` hands over to [`Program::execute`], or, in a barriered
/// nest, to [`Machine::run_nest`].
#[derive(Clone)]
enum Handoff {
    Lanes(LaneLoop),
    Reduce(Box<ReduceNest>),
}

/// A lowered function compiled for one binding of its parameters.
pub struct Program {
    name: String,
    params: Vec<(Storage, DType)>,
    ops: Vec<Op>,
    ints: u16,
    floats: u16,
    lane_ints: u16,
    lane_floats: u16,
    iconsts: Vec<i64>,
    fconsts: Vec<f64>,
    /// Parameters first, then one per `Allocate`.
    slots: Vec<SlotDecl>,
    errors: Vec<InterpError>,
    hw_calls: Vec<HwCall>,
    nests: Vec<Nest>,
    handoffs: Vec<Handoff>,
}

impl Program {
    /// Compiles `func` for parameters held as `params` says (storage and
    /// element type of each, in order), with `scalars` as constants.
    pub fn compile(
        func: &LoweredFunc,
        params: &[(Storage, DType)],
        scalars: &HashMap<VarId, Value>,
    ) -> Program {
        Compiler::new(scalars).finish(func, params)
    }

    /// Compiles `func` for [`Interp::run_compiled`](crate::Interp::run_compiled):
    /// every parameter a `float32` array.
    pub fn compile_f32(func: &LoweredFunc) -> Program {
        let params = vec![(Storage::F32, DType::float32()); func.params.len()];
        Program::compile(func, &params, &HashMap::new())
    }

    /// Name of the function this was compiled from.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of buffers a run binds.
    pub fn param_count(&self) -> usize {
        self.params.len()
    }

    /// Number of `vectorized` loops compiled to lane form.
    pub fn lane_loops(&self) -> usize {
        let lanes = |h: &&Handoff| matches!(h, Handoff::Lanes(_));
        self.handoffs.iter().filter(lanes).count()
    }

    /// Number of loop nests compiled to reduce nests.
    pub fn reduce_loops(&self) -> usize {
        self.reduce_nests().count()
    }

    /// Loop levels of each reduce nest, in program order.
    pub fn reduce_depths(&self) -> Vec<usize> {
        self.reduce_nests().map(|r| r.levels.len()).collect()
    }

    /// Number of factors, over every reduce nest, that are a guarded
    /// `select(c, X[x], k)`.
    pub fn guarded_factors(&self) -> usize {
        self.reduce_nests()
            .map(|r| r.guards.iter().flatten().count())
            .sum()
    }

    fn reduce_nests(&self) -> impl Iterator<Item = &ReduceNest> {
        self.handoffs.iter().filter_map(|h| match h {
            Handoff::Reduce(r) => Some(&**r),
            Handoff::Lanes(_) => None,
        })
    }

    pub(crate) fn takes_f32_arrays(&self) -> bool {
        self.params
            .iter()
            .all(|p| *p == (Storage::F32, DType::float32()))
    }

    /// Runs the program on `buffers` (one per parameter, held as it was
    /// compiled for), which it leaves as the first slots of `mem`. Returns
    /// the outcome and the number of stores executed.
    pub(crate) fn execute(
        &self,
        buffers: Vec<Buffer>,
        mem: &mut MemState,
        hw: &mut HashMap<String, HwHandlerFn>,
    ) -> (Result<()>, u64) {
        let mut buffers = buffers.into_iter();
        for (i, decl) in self.slots.iter().enumerate() {
            let buf = match buffers.next() {
                Some(buf) => buf,
                None => Buffer {
                    dtype: decl.dtype,
                    data: decl.storage.zeros(0),
                },
            };
            mem.slots.push(Slot::whole(Arc::clone(&decl.name), buf));
            if i < self.params.len() && !self.hw_calls.is_empty() {
                mem.alias(decl.id, i);
            }
        }
        let mismatch = self
            .params
            .iter()
            .zip(&mem.slots)
            .any(|(p, s)| *p != (s.buf.data.storage(), s.buf.dtype));
        if mismatch {
            let msg = format!("`{}` run on buffers it was not compiled for", self.name);
            return (Err(InterpError::Malformed(msg)), 0);
        }
        let mut machine = Machine {
            program: self,
            mem,
            hw,
            stores: 0,
        };
        let mut ints = vec![0i64; self.ints as usize];
        let mut floats = vec![0f64; self.floats as usize];
        let mut lanes = LaneRegs {
            ints: vec![[0; LANES]; self.lane_ints as usize],
            floats: vec![[0.0; LANES]; self.lane_floats as usize],
        };
        let mut pc = 0;
        let result = loop {
            let start = match machine.run(pc, self.ops.len(), &mut ints, &mut floats) {
                Ok(Stop::Yield(start)) => start,
                Ok(Stop::End) => break Ok(()),
                Ok(Stop::Barrier(_)) => break Err(malformed("a barrier outside a thread nest")),
                Err(e) => break Err(e),
            };
            pc = match self.handoffs.get(self.ops[start - 1].a as usize) {
                Some(Handoff::Lanes(l)) => {
                    let ran = machine.run_lane_loop(l, &mut lanes, start, &mut ints, &mut floats);
                    if let Err(e) = ran {
                        break Err(e);
                    }
                    start + l.lanes_len as usize + l.scalar_len as usize
                }
                Some(Handoff::Reduce(r)) => match machine.run_reduce(r, start, &mut ints) {
                    Ok(next) => next,
                    Err(e) => break Err(e),
                },
                None => break Err(malformed("a yield names no loop")),
            };
        };
        (result, machine.stores)
    }
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

struct Machine<'a> {
    program: &'a Program,
    mem: &'a mut MemState,
    hw: &'a mut HashMap<String, HwHandlerFn>,
    stores: u64,
}

/// Lane registers: one value per lane of a chunk.
struct LaneRegs {
    ints: Vec<[i64; LANES]>,
    floats: Vec<[f64; LANES]>,
}

/// Why [`Machine::run`] returned.
enum Stop {
    /// Reached the end of its range.
    End,
    /// Reached a `Yield` op; the caller resumes at this op.
    Yield(usize),
    /// Reached a `Barrier` op; the lane resumes at this op.
    Barrier(usize),
}

fn wrap_int(v: i64, spec: u16) -> i64 {
    let bits = (spec & 0xff) as u32;
    let low = v & ((1i64 << bits) - 1);
    if spec >> 8 != 0 && low & (1i64 << (bits - 1)) != 0 {
        low - (1i64 << bits)
    } else {
        low
    }
}

#[cold]
fn wrong_storage(slot: &Slot) -> InterpError {
    InterpError::Malformed(format!(
        "buffer `{}` changed storage under a run",
        slot.name
    ))
}

#[cold]
fn malformed(what: &str) -> InterpError {
    InterpError::Malformed(format!("flat program: {what}"))
}

/// The iteration box of a reduce nest: each level's first and last
/// iteration, outermost first.
#[derive(Clone, Copy)]
struct NestBox {
    depth: usize,
    lo: [i64; MAX_DEPTH],
    hi: [i64; MAX_DEPTH],
}

impl NestBox {
    /// Iterations of the innermost level.
    fn row_len(&self) -> usize {
        let d = self.depth - 1;
        (self.hi[d].abs_diff(self.lo[d]) + 1) as usize
    }

    /// The value of `lin`, whose base is `base`, at the box's first point,
    /// and its least and greatest value over the box; `None` if a step to
    /// any of them leaves `i64`. When all are `i64`s, so is every value
    /// between.
    fn range(&self, lin: &Lin, base: i64) -> Option<(i64, i64, i64)> {
        let (mut first, mut down, mut up) = (base, 0i64, 0i64);
        for j in 0..self.depth {
            let s = lin.strides[j];
            first = first.checked_add(s.checked_mul(self.lo[j])?)?;
            let d = s.checked_mul(self.hi[j].checked_sub(self.lo[j])?)?;
            if d < 0 {
                down = down.checked_add(d)?;
            } else {
                up = up.checked_add(d)?;
            }
        }
        Some((first, first.checked_add(down)?, first.checked_add(up)?))
    }

    /// This box with each outer level along which none of the lins that
    /// `seen` selects moves held at its first iteration: its rows show
    /// those lins every value the whole box's rows do.
    fn seen_by(&self, lins: &[Lin], seen: impl Fn(usize) -> bool) -> NestBox {
        let mut b = *self;
        for j in 0..self.depth - 1 {
            let mut lins = lins.iter().enumerate();
            if lins.all(|(i, lin)| !seen(i) || lin.strides[j] == 0) {
                b.hi[j] = b.lo[j];
            }
        }
        b
    }

    /// Calls `f` with the value of every lin at the first iteration of each
    /// row, rows in row-major order, until it returns `false`; returns
    /// whether every call returned `true`. `vals` holds the values at the
    /// box's first point. Values are kept with wrapping arithmetic, so one
    /// that is an `i64` at a point is exact there.
    fn rows(
        &self,
        lins: &[Lin],
        mut vals: [i64; MAX_LINS],
        mut f: impl FnMut(&[i64; MAX_LINS]) -> bool,
    ) -> bool {
        let mut k = self.lo;
        loop {
            if !f(&vals) {
                return false;
            }
            // The odometer over every level but the innermost.
            let mut j = self.depth - 1;
            loop {
                if j == 0 {
                    return true;
                }
                j -= 1;
                if k[j] < self.hi[j] {
                    k[j] += 1;
                    for (v, lin) in vals.iter_mut().zip(lins) {
                        *v = v.wrapping_add(lin.strides[j]);
                    }
                    break;
                }
                let back = self.hi[j].wrapping_sub(self.lo[j]);
                k[j] = self.lo[j];
                for (v, lin) in vals.iter_mut().zip(lins) {
                    *v = v.wrapping_sub(lin.strides[j].wrapping_mul(back));
                }
            }
        }
    }
}

/// Iterations `t0..t1` of a row of `n` where factor `f` of `r` loads, given
/// the lins' values `v` at the row's first iteration: all of them when it
/// is unguarded, else those where every guard comparison holds. Each
/// side of a comparison is an `i64` everywhere in the box, so its value is
/// exact and their difference is exact in `i128`.
fn span(r: &ReduceNest, f: usize, v: &[i64; MAX_LINS], n: usize) -> (usize, usize) {
    let Some(g) = &r.guards[f] else {
        return (0, n);
    };
    let d = r.levels.len() - 1;
    let (mut t0, mut t1) = (0i128, n as i128);
    for &(a, b, strict) in &g.cmps {
        // The comparison holds at iteration `t` iff `r0 + c * t <= 0`.
        let r0 = v[a] as i128 - v[b] as i128 + strict as i128;
        let c = r.lins[a].strides[d] as i128 - r.lins[b].strides[d] as i128;
        if c > 0 {
            t1 = t1.min(floor_div_pos(-r0, c) + 1);
        } else if c < 0 {
            t0 = t0.max(-floor_div_pos(-r0, -c));
        } else if r0 > 0 {
            return (0, 0);
        }
    }
    if t0 < t1 {
        (t0 as usize, t1 as usize)
    } else {
        (0, 0)
    }
}

/// `floor(a / b)` for `b > 0`, without a division for the usual `b = 1`.
fn floor_div_pos(a: i128, b: i128) -> i128 {
    if b == 1 {
        a
    } else {
        a.div_euclid(b)
    }
}

/// A factor of a reduce nest along a row: its value at iteration `t`.
trait RowFactor: Copy {
    fn get(&self, t: usize) -> f64;
}

/// Element `at + t * step` of `data` at iteration `t`.
#[derive(Clone, Copy)]
struct Plain<'a> {
    data: &'a [f32],
    at: usize,
    step: usize,
}

impl RowFactor for Plain<'_> {
    #[inline(always)]
    fn get(&self, t: usize) -> f64 {
        self.data[self.at.wrapping_add(t.wrapping_mul(self.step))] as f64
    }
}

/// [`Plain`] where `t0 <= t < t1`, `konst` elsewhere.
#[derive(Clone, Copy)]
struct Guarded<'a> {
    plain: Plain<'a>,
    t0: usize,
    t1: usize,
    konst: f64,
}

impl RowFactor for Guarded<'_> {
    #[inline(always)]
    fn get(&self, t: usize) -> f64 {
        if t.wrapping_sub(self.t0) < self.t1 - self.t0 {
            self.plain.get(t)
        } else {
            self.konst
        }
    }
}

/// Runs `n` iterations of `s[si] = (s[si] as f64 + x * y) as f32`, `si`
/// advancing by `ss` (wrapping, so a negative stride works), keeping the
/// sum in a register while `ss` is zero.
#[inline(always)]
fn mac_row(
    s: &mut [f32],
    mut si: usize,
    ss: usize,
    n: usize,
    x: impl RowFactor,
    y: impl RowFactor,
) {
    if ss == 0 {
        let mut acc = s[si];
        for t in 0..n {
            acc = (acc as f64 + x.get(t) * y.get(t)) as f32;
        }
        s[si] = acc;
    } else {
        for t in 0..n {
            s[si] = (s[si] as f64 + x.get(t) * y.get(t)) as f32;
            si = si.wrapping_add(ss);
        }
    }
}

/// The slots of a reduce nest's `S`, to write, and of its two factors, to
/// read: the compiler admits no factor in `S`'s own slot.
#[inline(always)]
fn split_slots(slots: &mut [Slot], [s, x, y]: [u16; 3]) -> (&mut Slot, &Slot, &Slot) {
    let s = s as usize;
    let (before, rest) = slots.split_at_mut(s);
    let (slot, after) = rest.split_first_mut().expect("a nest names its slots");
    let (before, after): (&[Slot], &[Slot]) = (before, after);
    let other = |i: u16| match (i as usize).checked_sub(s + 1) {
        Some(k) => &after[k],
        None => &before[i as usize],
    };
    (slot, other(x), other(y))
}

impl Machine<'_> {
    /// Executes `ops[pc..end]` on one register window.
    fn run(
        &mut self,
        mut pc: usize,
        end: usize,
        ints: &mut [i64],
        floats: &mut [f64],
    ) -> Result<Stop> {
        use Code::*;
        let program = self.program;
        let ops = &program.ops[..end];
        while let Some(&Op { code, d, a, b, c }) = ops.get(pc) {
            let (d, a, b, c) = (d as usize, a as usize, b as usize, c as usize);
            pc += 1;
            match code {
                IConst => ints[d] = program.iconsts[a],
                FConst => floats[d] = program.fconsts[a],
                IMov => ints[d] = ints[a],
                FMov => floats[d] = floats[a],
                IAdd => ints[d] = ints[a].wrapping_add(ints[b]),
                ISub => ints[d] = ints[a].wrapping_sub(ints[b]),
                IMul => ints[d] = ints[a].wrapping_mul(ints[b]),
                IMulAdd => ints[d] = ints[a].wrapping_add(ints[b].wrapping_mul(ints[c])),
                IDiv | IMod => {
                    if ints[b] == 0 {
                        return Err(InterpError::DivideByZero);
                    }
                    ints[d] = if code == IDiv {
                        floor_div(ints[a], ints[b])
                    } else {
                        floor_mod(ints[a], ints[b])
                    };
                }
                IDivNz => ints[d] = floor_div(ints[a], ints[b]),
                IModNz => ints[d] = floor_mod(ints[a], ints[b]),
                IMin => ints[d] = ints[a].min(ints[b]),
                IMax => ints[d] = ints[a].max(ints[b]),
                IAnd => ints[d] = ints[a] & ints[b],
                IOr => ints[d] = ints[a] | ints[b],
                IXor => ints[d] = ints[a] ^ ints[b],
                IShl => ints[d] = ints[a].wrapping_shl(ints[b] as u32),
                IShr => ints[d] = ints[a].wrapping_shr(ints[b] as u32),
                IEq => ints[d] = (ints[a] == ints[b]) as i64,
                INe => ints[d] = (ints[a] != ints[b]) as i64,
                ILt => ints[d] = (ints[a] < ints[b]) as i64,
                ILe => ints[d] = (ints[a] <= ints[b]) as i64,
                INot => ints[d] = (ints[a] == 0) as i64,
                IBool => ints[d] = (ints[a] != 0) as i64,
                IQuant => ints[d] = wrap_int(ints[a], b as u16),
                IAbs => ints[d] = ints[a].wrapping_abs(),
                IPopcount => ints[d] = ints[a].count_ones() as i64,
                ISelect => ints[d] = if ints[a] != 0 { ints[b] } else { ints[c] },
                FAdd => floats[d] = floats[a] + floats[b],
                FSub => floats[d] = floats[a] - floats[b],
                FMul => floats[d] = floats[a] * floats[b],
                FDiv => floats[d] = floats[a] / floats[b],
                FMod => floats[d] = floats[a].rem_euclid(floats[b]),
                FMin => floats[d] = floats[a].min(floats[b]),
                FMax => floats[d] = floats[a].max(floats[b]),
                FEq => ints[d] = (floats[a] == floats[b]) as i64,
                FNe => ints[d] = (floats[a] != floats[b]) as i64,
                FLt => ints[d] = (floats[a] < floats[b]) as i64,
                FLe => ints[d] = (floats[a] <= floats[b]) as i64,
                FRound32 => floats[d] = floats[a] as f32 as f64,
                FRound16 => floats[d] = round_f16(floats[a]),
                FUnary => floats[d] = UNARY[b](floats[a]),
                FPow => floats[d] = floats[a].powf(floats[b]),
                FSelect => floats[d] = if ints[a] != 0 { floats[b] } else { floats[c] },
                IToF => floats[d] = ints[a] as f64,
                FToITrunc => ints[d] = floats[a] as i64,
                FToIFloor => ints[d] = floats[a].floor() as i64,
                LoadF32 => {
                    let slot = &self.mem.slots[a];
                    let i = slot.at(ints[b].wrapping_add(ints[c]))?;
                    let Data::F32(v) = &slot.buf.data else {
                        return Err(wrong_storage(slot));
                    };
                    floats[d] = v[i] as f64;
                }
                LoadF64 => {
                    let slot = &self.mem.slots[a];
                    let i = slot.at(ints[b].wrapping_add(ints[c]))?;
                    let Data::F64(v) = &slot.buf.data else {
                        return Err(wrong_storage(slot));
                    };
                    floats[d] = v[i];
                }
                LoadI64 => {
                    let slot = &self.mem.slots[a];
                    let i = slot.at(ints[b].wrapping_add(ints[c]))?;
                    let Data::I64(v) = &slot.buf.data else {
                        return Err(wrong_storage(slot));
                    };
                    ints[d] = v[i];
                }
                StoreF32 | StoreF16 => {
                    self.stores += 1;
                    let slot = &mut self.mem.slots[a];
                    let i = slot.at(ints[b].wrapping_add(ints[d]))?;
                    let Data::F32(v) = &mut slot.buf.data else {
                        return Err(wrong_storage(slot));
                    };
                    v[i] = if code == StoreF32 {
                        floats[c] as f32
                    } else {
                        round_f16(floats[c]) as f32
                    };
                }
                StoreF64 => {
                    self.stores += 1;
                    let slot = &mut self.mem.slots[a];
                    let i = slot.at(ints[b].wrapping_add(ints[d]))?;
                    let bits = slot.buf.dtype.bits;
                    let Data::F64(v) = &mut slot.buf.data else {
                        return Err(wrong_storage(slot));
                    };
                    v[i] = match bits {
                        16 => round_f16(floats[c]),
                        32 => floats[c] as f32 as f64,
                        _ => floats[c],
                    };
                }
                StoreI64 => {
                    self.stores += 1;
                    let slot = &mut self.mem.slots[a];
                    let i = slot.at(ints[b].wrapping_add(ints[d]))?;
                    let dtype = slot.buf.dtype;
                    let Data::I64(v) = &mut slot.buf.data else {
                        return Err(wrong_storage(slot));
                    };
                    v[i] = if dtype.bits >= 64 {
                        ints[c]
                    } else {
                        let signed = (dtype.code == TypeCode::Int) as u16;
                        wrap_int(ints[c], dtype.bits as u16 | signed << 8)
                    };
                }
                Alloc => {
                    let n = ints[b].max(0) as usize;
                    let slot = &mut self.mem.slots[a];
                    slot.buf.data.zero(n);
                    (slot.base, slot.len) = (0, n);
                }
                Jump => pc += a,
                JumpIfZero => {
                    if ints[a] == 0 {
                        pc += b;
                    }
                }
                JumpIfNonZero => {
                    if ints[a] != 0 {
                        pc += b;
                    }
                }
                LoopGuard => {
                    if ints[a] >= ints[b] {
                        pc += c;
                    }
                }
                LoopNext => {
                    ints[a] += 1;
                    if ints[a] < ints[b] {
                        pc -= c;
                    }
                }
                Raise => return Err(program.errors[a].clone()),
                HwCall => self.hw_call(&program.hw_calls[a], ints, floats)?,
                Nest => {
                    let nest = &program.nests[a];
                    self.run_nest(nest, pc, ints, floats)?;
                    pc += nest.len as usize;
                }
                Yield => return Ok(Stop::Yield(pc)),
                Barrier => return Ok(Stop::Barrier(pc)),
            }
        }
        Ok(Stop::End)
    }

    fn hw_call(&mut self, call: &HwCall, ints: &mut [i64], floats: &mut [f64]) -> Result<()> {
        let mut args = Vec::with_capacity(call.args.len());
        for arg in &call.args {
            args.push(match *arg {
                HwArg::Int(r) => Value::Int(ints[r as usize]),
                HwArg::Float(r) => Value::Float(floats[r as usize]),
                HwArg::Handle(id, slot) => {
                    self.mem.alias(id, slot as usize);
                    Value::Handle(id)
                }
            });
        }
        let handler = self
            .hw
            .get_mut(&call.name)
            .ok_or_else(|| InterpError::UnknownIntrinsic(call.name.clone()))?;
        let value = handler(&args, self.mem)?;
        match call.ret {
            Some((Kind::Int, r)) => ints[r as usize] = value.as_int()?,
            Some((Kind::Float, r)) => floats[r as usize] = value.as_float()?,
            None => {}
        }
        Ok(())
    }

    /// Runs the lanes of `nest`, whose code starts at `start`, in turns
    /// from barrier to barrier. A reduce nest a lane yields runs on that
    /// lane's window, within its turn.
    fn run_nest(&mut self, nest: &Nest, start: usize, ints: &[i64], floats: &[f64]) -> Result<()> {
        let mut lanes = 1usize;
        for &(_, _, n) in &nest.axes {
            lanes = lanes.saturating_mul(ints[n as usize].max(0) as usize);
        }
        if lanes == 0 {
            return Ok(());
        }
        let (ni, nf) = (nest.ints as usize, nest.floats as usize);
        let mut lane_ints = vec![0i64; lanes * ni];
        let mut lane_floats = vec![0f64; lanes * nf];
        for lane in 0..lanes {
            let wi = &mut lane_ints[lane * ni..(lane + 1) * ni];
            let wf = &mut lane_floats[lane * nf..(lane + 1) * nf];
            for &(outer, inner) in &nest.live_ints {
                wi[inner as usize] = ints[outer as usize];
            }
            for &(outer, inner) in &nest.live_floats {
                wf[inner as usize] = floats[outer as usize];
            }
            // Row-major: the last axis varies fastest.
            let mut rest = lane as i64;
            for &(var, lo, n) in nest.axes.iter().rev() {
                let n = ints[n as usize];
                wi[var as usize] = ints[lo as usize].wrapping_add(rest % n);
                rest /= n;
            }
        }
        for &(slot, extent) in &nest.lane_slots {
            let slot = &mut self.mem.slots[slot as usize];
            slot.buf.data.zero(lanes * extent);
            slot.len = extent;
        }
        let end = start + nest.len as usize;
        let mut pcs = vec![start; lanes];
        loop {
            let mut waiting = 0;
            for (lane, pc) in pcs.iter_mut().enumerate() {
                for &(slot, extent) in &nest.lane_slots {
                    self.mem.slots[slot as usize].base = lane * extent;
                }
                let wi = &mut lane_ints[lane * ni..(lane + 1) * ni];
                let wf = &mut lane_floats[lane * nf..(lane + 1) * nf];
                loop {
                    match self.run(*pc, end, wi, wf)? {
                        Stop::Yield(next) => {
                            let a = self.program.ops[next - 1].a as usize;
                            let Some(Handoff::Reduce(r)) = self.program.handoffs.get(a) else {
                                return Err(malformed("a nest yields no reduce nest"));
                            };
                            *pc = self.run_reduce(r, next, wi)?;
                        }
                        Stop::Barrier(next) => {
                            *pc = next;
                            waiting += 1;
                            break;
                        }
                        Stop::End => {
                            *pc = end;
                            break;
                        }
                    }
                }
            }
            if waiting == 0 {
                return Ok(());
            }
            if waiting != lanes {
                return Err(InterpError::Malformed(
                    "barrier count diverges across threads".into(),
                ));
            }
        }
    }

    /// Runs lane loop `l`, whose lane code starts at `start`, a chunk of up
    /// to [`LANES`] iterations at a time. A chunk whose lane code faults
    /// reruns through the scalar code.
    fn run_lane_loop(
        &mut self,
        l: &LaneLoop,
        regs: &mut LaneRegs,
        start: usize,
        ints: &mut [i64],
        floats: &mut [f64],
    ) -> Result<()> {
        let scalar = start + l.lanes_len as usize;
        let end = scalar + l.scalar_len as usize;
        let (counter, limit) = (l.counter as usize, ints[l.limit as usize]);
        let mut first = ints[counter];
        while first < limit {
            let n = (limit as i128 - first as i128).min(LANES as i128) as usize;
            regs.ints[l.iv as usize] = std::array::from_fn(|lane| first.wrapping_add(lane as i64));
            if !self.run_lanes(regs, start, scalar, n, ints, floats) {
                for i in first..first + n as i64 {
                    ints[counter] = i;
                    self.run(scalar, end, ints, floats)?;
                }
            }
            first += n as i64;
        }
        Ok(())
    }

    /// Runs reduce nest `r`, whose scalar code starts at `start`, as one
    /// op: every iteration in the walker's row-major order, each rounding
    /// the walker's `f64` sum to `f32` as its store does, and counting one
    /// store; returns the op after the scalar code. Returns `start`, having
    /// changed nothing, if the box is empty, an access is out of bounds or
    /// an integer leaves `i64` anywhere in it: the scalar code then runs,
    /// and stores and faults where the walker does. Each access goes
    /// through its slot's `base`, so in a barriered nest a lane's own
    /// allocation is the current lane's copy.
    fn run_reduce(&mut self, r: &ReduceNest, start: usize, ints: &mut [i64]) -> Result<usize> {
        let ran =
            matches!(r.guards, [None, None]) && self.run_row(r, ints) || self.run_box(r, ints);
        Ok(if ran {
            start + r.scalar_len as usize
        } else {
            start
        })
    }

    /// Runs reduce nest `r` a row at a time. Returns whether it ran; if
    /// not, it changed nothing.
    #[inline(never)]
    fn run_box(&mut self, r: &ReduceNest, ints: &mut [i64]) -> bool {
        let mut b = NestBox {
            depth: r.levels.len(),
            lo: [0; MAX_DEPTH],
            hi: [0; MAX_DEPTH],
        };
        let mut volume = 1u64;
        for (j, l) in r.levels.iter().enumerate() {
            let (first, limit) = (ints[l.lo as usize], ints[l.limit as usize]);
            if first >= limit {
                return false;
            }
            (b.lo[j], b.hi[j]) = (first, limit - 1);
            match volume.checked_mul(limit.abs_diff(first)) {
                Some(v) => volume = v,
                None => return false,
            }
        }
        let (s, x, y) = split_slots(&mut self.mem.slots, r.slots);
        let (Data::F32(sv), Data::F32(xs), Data::F32(ys)) =
            (&mut s.buf.data, &x.buf.data, &y.buf.data)
        else {
            return false;
        };
        // Every lin is an `i64` all over the box, so the values `rows`
        // keeps are exact; `S`'s index and an unguarded factor's are in
        // bounds all over it too.
        let lens = [
            Some(s.len),
            r.guards[0].is_none().then_some(x.len),
            r.guards[1].is_none().then_some(y.len),
        ];
        let mut vals = [0i64; MAX_LINS];
        for (i, lin) in r.lins.iter().enumerate() {
            let Some((first, min, max)) = b.range(lin, ints[lin.base as usize]) else {
                return false;
            };
            if let Some(&Some(len)) = lens.get(i) {
                if min < 0 || max as u64 >= len as u64 {
                    return false;
                }
            }
            vals[i] = first;
        }
        let (d, n) = (b.depth - 1, b.row_len());
        let stride = |i: usize| r.lins[i].strides[d];
        // A guarded factor loads only where its guard holds: in each row,
        // both ends of that span are in bounds, and so every index between.
        // Rows that differ only at levels the factor and its guard do not
        // move along are checked once.
        for (f, slot) in [x, y].into_iter().enumerate() {
            let Some(g) = &r.guards[f] else {
                continue;
            };
            let seen = |i: usize| i == f + 1 || g.cmps.iter().any(|&(a, b, _)| i == a || i == b);
            let in_bounds = |v: &[i64; MAX_LINS]| {
                let (t0, t1) = span(r, f, v, n);
                let index = |t: usize| v[f + 1].wrapping_add(stride(f + 1).wrapping_mul(t as i64));
                let len = slot.len as u64;
                t0 == t1 || (index(t0) as u64) < len && (index(t1 - 1) as u64) < len
            };
            if !b.seen_by(&r.lins, seen).rows(&r.lins, vals, in_bounds) {
                return false;
            }
        }
        let plain = |f: usize, v: &[i64; MAX_LINS]| Plain {
            data: [xs, ys][f],
            at: [x.base, y.base][f].wrapping_add(v[f + 1] as usize),
            step: stride(f + 1) as usize,
        };
        let guarded = |f: usize, v: &[i64; MAX_LINS]| {
            let (t0, t1) = span(r, f, v, n);
            let konst = r.guards[f].as_ref().map_or(0.0, |g| g.konst);
            Guarded {
                plain: plain(f, v),
                t0,
                t1,
                konst,
            }
        };
        let (ss, sbase) = (stride(0) as usize, s.base);
        let si = |v: &[i64; MAX_LINS]| sbase.wrapping_add(v[0] as usize);
        match (r.guards[0].is_some(), r.guards[1].is_some()) {
            (false, false) => b.rows(&r.lins, vals, |v| {
                mac_row(sv, si(v), ss, n, plain(0, v), plain(1, v));
                true
            }),
            (true, false) => b.rows(&r.lins, vals, |v| {
                mac_row(sv, si(v), ss, n, guarded(0, v), plain(1, v));
                true
            }),
            (false, true) => b.rows(&r.lins, vals, |v| {
                mac_row(sv, si(v), ss, n, plain(0, v), guarded(1, v));
                true
            }),
            (true, true) => b.rows(&r.lins, vals, |v| {
                mac_row(sv, si(v), ss, n, guarded(0, v), guarded(1, v));
                true
            }),
        };
        self.stores += volume;
        for l in &r.levels {
            ints[l.counter as usize] = ints[l.limit as usize];
        }
        true
    }

    /// Runs unguarded reduce nest `r` as one row, when it is one: when
    /// every level walks each access on from where the level inside it
    /// ends, as a dense layer's split reduction does, the iterations in
    /// row-major order are one run at the innermost strides, and its bounds
    /// check is both ends of each access. Returns whether it ran; if not,
    /// it changed nothing.
    fn run_row(&mut self, r: &ReduceNest, ints: &mut [i64]) -> bool {
        let (lins, d) = (&r.lins[..3], r.levels.len() - 1);
        // The row's length, the extent of the level inside the current one,
        // and each access's index at the first iteration.
        let (mut n, mut inner) = (1u64, 1i64);
        let mut firsts = [0i64; 3];
        for (i, at) in firsts.iter_mut().enumerate() {
            *at = ints[lins[i].base as usize];
        }
        for (j, l) in r.levels.iter().enumerate().rev() {
            let (first, limit) = (ints[l.lo as usize], ints[l.limit as usize]);
            let extent = limit.wrapping_sub(first);
            if first >= limit || extent <= 0 {
                return false;
            }
            for (lin, at) in lins.iter().zip(&mut firsts) {
                let s = lin.strides[j];
                if j < d && lin.strides[j + 1].checked_mul(inner) != Some(s) {
                    return false;
                }
                match s.checked_mul(first).and_then(|k| at.checked_add(k)) {
                    Some(k) => *at = k,
                    None => return false,
                }
            }
            match n.checked_mul(extent as u64) {
                Some(m) => (n, inner) = (m, extent),
                None => return false,
            }
        }
        let (s, x, y) = split_slots(&mut self.mem.slots, r.slots);
        let (Data::F32(sv), Data::F32(xs), Data::F32(ys)) =
            (&mut s.buf.data, &x.buf.data, &y.buf.data)
        else {
            return false;
        };
        // Where in its slot's storage each access starts, if it is in
        // bounds at both ends of the row, and so everywhere between.
        let last = i64::try_from(n - 1).unwrap_or(i64::MAX);
        let mut starts = [0usize; 3];
        for (i, (base, len)) in [(s.base, s.len), (x.base, x.len), (y.base, y.len)]
            .into_iter()
            .enumerate()
        {
            let at = firsts[i];
            let Some(end) = lins[i].strides[d]
                .checked_mul(last)
                .and_then(|k| at.checked_add(k))
            else {
                return false;
            };
            if (at as u64) >= len as u64 || (end as u64) >= len as u64 {
                return false;
            }
            starts[i] = base + at as usize;
        }
        let [si, xi, yi] = starts;
        let step = |i: usize| r.lins[i].strides[d] as usize;
        let (x, y) = (
            Plain {
                data: xs,
                at: xi,
                step: step(1),
            },
            Plain {
                data: ys,
                at: yi,
                step: step(2),
            },
        );
        mac_row(sv, si, step(0), n as usize, x, y);
        self.stores += n;
        for l in &r.levels {
            ints[l.counter as usize] = ints[l.limit as usize];
        }
        true
    }

    /// Executes the lane code `ops[pc..end]` on the first `n` lanes.
    /// Returns `false` if an active lane faults, having changed nothing:
    /// only the last op stores, and it checks every lane before writing one.
    fn run_lanes(
        &mut self,
        regs: &mut LaneRegs,
        pc: usize,
        end: usize,
        n: usize,
        ints: &[i64],
        floats: &[f64],
    ) -> bool {
        use Code::*;
        let program = self.program;
        macro_rules! int {
            ($r:expr) => {
                operand(&regs.ints, ints, $r)
            };
        }
        macro_rules! float {
            ($r:expr) => {
                operand(&regs.floats, floats, $r)
            };
        }
        for &Op { code, d, a, b, c } in &program.ops[pc..end] {
            let dst = d as usize;
            match code {
                IAdd => regs.ints[dst] = zip(int!(a), int!(b), i64::wrapping_add),
                ISub => regs.ints[dst] = zip(int!(a), int!(b), i64::wrapping_sub),
                IMul => regs.ints[dst] = zip(int!(a), int!(b), i64::wrapping_mul),
                IMulAdd => {
                    let (x, y, z) = (int!(a), int!(b), int!(c));
                    regs.ints[dst] =
                        std::array::from_fn(|l| x[l].wrapping_add(y[l].wrapping_mul(z[l])));
                }
                IDiv | IMod => {
                    let (x, y, mask) = (int!(a), int!(b), int!(c));
                    if (0..n).any(|l| mask[l] != 0 && y[l] == 0) {
                        return false;
                    }
                    let f = if code == IDiv { div_total } else { mod_total };
                    regs.ints[dst] = zip(x, y, f);
                }
                IDivNz => regs.ints[dst] = zip(int!(a), int!(b), div_total),
                IModNz => regs.ints[dst] = zip(int!(a), int!(b), mod_total),
                IMin => regs.ints[dst] = zip(int!(a), int!(b), i64::min),
                IMax => regs.ints[dst] = zip(int!(a), int!(b), i64::max),
                IAnd => regs.ints[dst] = zip(int!(a), int!(b), |x, y| x & y),
                IOr => regs.ints[dst] = zip(int!(a), int!(b), |x, y| x | y),
                IXor => regs.ints[dst] = zip(int!(a), int!(b), |x, y| x ^ y),
                IShl => regs.ints[dst] = zip(int!(a), int!(b), |x, y| x.wrapping_shl(y as u32)),
                IShr => regs.ints[dst] = zip(int!(a), int!(b), |x, y| x.wrapping_shr(y as u32)),
                IEq => regs.ints[dst] = zip(int!(a), int!(b), |x, y| (x == y) as i64),
                INe => regs.ints[dst] = zip(int!(a), int!(b), |x, y| (x != y) as i64),
                ILt => regs.ints[dst] = zip(int!(a), int!(b), |x, y| (x < y) as i64),
                ILe => regs.ints[dst] = zip(int!(a), int!(b), |x, y| (x <= y) as i64),
                INot => regs.ints[dst] = int!(a).map(|x| (x == 0) as i64),
                IBool => regs.ints[dst] = int!(a).map(|x| (x != 0) as i64),
                IQuant => regs.ints[dst] = int!(a).map(|x| wrap_int(x, b)),
                IAbs => regs.ints[dst] = int!(a).map(i64::wrapping_abs),
                IPopcount => regs.ints[dst] = int!(a).map(|x| x.count_ones() as i64),
                ISelect => {
                    let (m, x, y) = (int!(a), int!(b), int!(c));
                    regs.ints[dst] = std::array::from_fn(|l| if m[l] != 0 { x[l] } else { y[l] });
                }
                FAdd => regs.floats[dst] = zip(float!(a), float!(b), |x, y| x + y),
                FSub => regs.floats[dst] = zip(float!(a), float!(b), |x, y| x - y),
                FMul => regs.floats[dst] = zip(float!(a), float!(b), |x, y| x * y),
                FDiv => regs.floats[dst] = zip(float!(a), float!(b), |x, y| x / y),
                FMod => regs.floats[dst] = zip(float!(a), float!(b), f64::rem_euclid),
                FMin => regs.floats[dst] = zip(float!(a), float!(b), f64::min),
                FMax => regs.floats[dst] = zip(float!(a), float!(b), f64::max),
                FEq => regs.ints[dst] = zip(float!(a), float!(b), |x, y| (x == y) as i64),
                FNe => regs.ints[dst] = zip(float!(a), float!(b), |x, y| (x != y) as i64),
                FLt => regs.ints[dst] = zip(float!(a), float!(b), |x, y| (x < y) as i64),
                FLe => regs.ints[dst] = zip(float!(a), float!(b), |x, y| (x <= y) as i64),
                FRound32 => regs.floats[dst] = float!(a).map(|x| x as f32 as f64),
                FRound16 => regs.floats[dst] = float!(a).map(round_f16),
                FUnary => regs.floats[dst] = float!(a).map(UNARY[b as usize]),
                FPow => regs.floats[dst] = zip(float!(a), float!(b), f64::powf),
                FSelect => {
                    let (m, x, y) = (int!(a), float!(b), float!(c));
                    regs.floats[dst] = std::array::from_fn(|l| if m[l] != 0 { x[l] } else { y[l] });
                }
                IToF => regs.floats[dst] = int!(a).map(|x| x as f64),
                FToITrunc => regs.ints[dst] = float!(a).map(|x| x as i64),
                FToIFloor => regs.ints[dst] = float!(a).map(|x| x.floor() as i64),
                LoadF32 | LoadF64 | LoadI64 => {
                    let slot = &self.mem.slots[a as usize];
                    let Some(at) = positions(slot, int!(b), int!(c), n) else {
                        return false;
                    };
                    match (&slot.buf.data, code) {
                        (Data::F32(v), LoadF32) => regs.floats[dst] = gather(v, at, |x| x as f64),
                        (Data::F64(v), LoadF64) => regs.floats[dst] = gather(v, at, |x| x),
                        (Data::I64(v), LoadI64) => regs.ints[dst] = gather(v, at, |x| x),
                        _ => return false,
                    }
                }
                StoreF32 | StoreF16 | StoreF64 | StoreI64 => {
                    let slot = &mut self.mem.slots[a as usize];
                    let Some(at) = positions(slot, int!(b), int!(d), n) else {
                        return false;
                    };
                    let dtype = slot.buf.dtype;
                    match (&mut slot.buf.data, code) {
                        (Data::F32(v), StoreF32) => scatter(v, at, float!(c), |x| x as f32),
                        (Data::F32(v), StoreF16) => {
                            scatter(v, at, float!(c), |x| round_f16(x) as f32)
                        }
                        (Data::F64(v), StoreF64) => {
                            scatter(v, at, float!(c), |x| match dtype.bits {
                                16 => round_f16(x),
                                32 => x as f32 as f64,
                                _ => x,
                            })
                        }
                        (Data::I64(v), StoreI64) => {
                            let signed = (dtype.code == TypeCode::Int) as u16;
                            let spec = dtype.bits as u16 | signed << 8;
                            let wide = dtype.bits >= 64;
                            scatter(v, at, int!(c), |x| if wide { x } else { wrap_int(x, spec) })
                        }
                        _ => return false,
                    }
                    self.stores += at.0.count_ones() as u64;
                }
                _ => unreachable!("`{code:?}` is not emitted in lane form"),
            }
        }
        true
    }
}

/// Operand `r` of a lane-form op: lane register `r`, or, with the
/// [`SCALAR`] bit, scalar register `r` in every lane.
#[inline(always)]
fn operand<T: Copy>(lanes: &[[T; LANES]], scalars: &[T], r: u16) -> [T; LANES] {
    if r & SCALAR != 0 {
        [scalars[(r & !SCALAR) as usize]; LANES]
    } else {
        lanes[r as usize]
    }
}

#[inline(always)]
fn zip<T: Copy, U: Copy, R>(x: [T; LANES], y: [U; LANES], f: impl Fn(T, U) -> R) -> [R; LANES] {
    std::array::from_fn(|l| f(x[l], y[l]))
}

/// [`floor_div`] on a lane that may not be active: a zero divisor gives
/// zero and `i64::MIN / -1` wraps, where the scalar op would fault or panic.
fn div_total(a: i64, b: i64) -> i64 {
    match b {
        0 => 0,
        -1 => a.wrapping_neg(),
        _ => floor_div(a, b),
    }
}

/// [`floor_mod`] on a lane that may not be active, as [`div_total`].
fn mod_total(a: i64, b: i64) -> i64 {
    a.wrapping_sub(div_total(a, b).wrapping_mul(b))
}

/// The elements of `slot` that lanes access: which of the first `n` lanes
/// `mask` selects, as bits, and where in storage each one's element `idx`
/// is. `None` if an active lane's index is out of bounds.
#[inline(always)]
fn positions(
    slot: &Slot,
    idx: [i64; LANES],
    mask: [i64; LANES],
    n: usize,
) -> Option<(u8, [usize; LANES])> {
    let (mut active, mut at) = (0u8, [0usize; LANES]);
    for l in 0..n {
        if mask[l] != 0 {
            if idx[l] as u64 >= slot.len as u64 {
                return None;
            }
            active |= 1 << l;
            at[l] = slot.base + idx[l] as usize;
        }
    }
    Some((active, at))
}

/// The active lanes' elements, zero in the others.
#[inline(always)]
fn gather<T: Copy, U: Default>(
    v: &[T],
    (active, at): (u8, [usize; LANES]),
    f: impl Fn(T) -> U,
) -> [U; LANES] {
    std::array::from_fn(|l| {
        if active >> l & 1 != 0 {
            f(v[at[l]])
        } else {
            U::default()
        }
    })
}

#[inline(always)]
fn scatter<T, U: Copy>(
    v: &mut [T],
    (active, at): (u8, [usize; LANES]),
    x: [U; LANES],
    f: impl Fn(U) -> T,
) {
    for l in 0..LANES {
        if active >> l & 1 != 0 {
            v[at[l]] = f(x[l]);
        }
    }
}

// ---------------------------------------------------------------------------
// Compilation
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    Int,
    Float,
}

/// A value number: one computed value, wherever its register lives.
type Vid = u32;

/// What an expression evaluates to — the walker's `Value`, with the variant
/// known at compile time.
#[derive(Clone, Copy)]
enum V {
    Int(Vid),
    Float(Vid),
    /// A buffer variable and its slot.
    Handle(VarId, u16),
}

#[derive(Clone, Copy)]
struct ValInfo {
    kind: Kind,
    /// Loop level that computes it; it is invariant in every level deeper.
    level: usize,
    /// Frame and register that hold it.
    frame: usize,
    reg: Reg,
    /// Held in a lane register: one value per lane of a lane-form chunk.
    lane: bool,
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
    live_ints: Vec<(Reg, Reg)>,
    live_floats: Vec<(Reg, Reg)>,
    lane_slots: Vec<(u16, usize)>,
}

/// One loop level under construction (level 0 is the function body).
#[derive(Clone)]
struct Level {
    frame: usize,
    /// Ops hoisted in front of this level's loop header; they use the
    /// registers of the enclosing level's frame.
    pre: Vec<Op>,
    body: Vec<Op>,
    /// The scope the header stands in, which owns what is hoisted to `pre`.
    outer_scope: usize,
}

struct OpenLoop {
    var: VarId,
    shadowed: Option<V>,
    counter: Vid,
    lo: Vid,
    limit: Vid,
}

/// `c + Σ coeff · value`, the canonical form of integer `+ - *`.
#[derive(Clone)]
struct Affine {
    c: i64,
    terms: Vec<(Vid, i64)>,
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

/// An affine integer of a reduce nest under construction: `rest` plus
/// `strides[j]` times the variable of level `j`, outermost first, where
/// `rest` is invariant in every level.
#[derive(Clone)]
struct LinPlan {
    rest: Affine,
    strides: Vec<i64>,
}

/// A reduce nest under construction: [`ReduceNest`] over value numbers,
/// so that the loop around it can take it over as a new outermost level.
#[derive(Clone)]
struct NestPlan {
    /// Counter, first iteration and limit of each level, outermost first.
    levels: Vec<(Vid, Vid, Vid)>,
    slots: [u16; 3],
    lins: Vec<LinPlan>,
    guards: [Option<Guard>; 2],
    /// The handoff it compiled to.
    handoff: usize,
}

/// The `vectorized` loop body being compiled to lane form.
#[derive(Clone, Copy)]
struct LaneBody {
    /// The loop variable's lanes.
    iv: Vid,
    /// The lanes the code being compiled runs on: a 0/1 value.
    mask: Vid,
    /// Slot of the body's one store, and that store's index once compiled.
    slot: u16,
    index: Option<Vid>,
    /// The store has been emitted.
    stored: bool,
    /// The body holds something lane form cannot express.
    failed: bool,
}

#[derive(Clone)]
struct Compiler<'a> {
    scalars: &'a HashMap<VarId, Value>,
    frames: Vec<Frame>,
    levels: Vec<Level>,
    values: Vec<ValInfo>,
    vn: HashMap<Key, Vid>,
    /// Keys to forget when each open block (loop body, branch) closes: a
    /// value computed under a condition is not available after it.
    scopes: Vec<Vec<Key>>,
    vars: HashMap<VarId, V>,
    iconsts: Vec<i64>,
    fconsts: Vec<f64>,
    slots: Vec<SlotDecl>,
    errors: Vec<InterpError>,
    hw_calls: Vec<HwCall>,
    nests: Vec<Nest>,
    handoffs: Vec<Handoff>,
    /// Lane registers in use.
    lane_ints: u32,
    lane_floats: u32,
    /// Set while a loop body is compiled to lane form.
    lane: Option<LaneBody>,
    /// The reduce nest the loop closed last compiled to, which the loop
    /// around it may absorb.
    nest: Option<NestPlan>,
    /// A frame ran out of `u16` registers.
    too_large: bool,
}

const NONE: u32 = u32::MAX;

impl<'a> Compiler<'a> {
    fn new(scalars: &'a HashMap<VarId, Value>) -> Self {
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
            lane_ints: 0,
            lane_floats: 0,
            lane: None,
            nest: None,
            too_large: false,
        }
    }

    fn finish(mut self, func: &LoweredFunc, params: &[(Storage, DType)]) -> Program {
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
        let mut ops = self.levels.pop().expect("level 0 stays open").body;
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
        Program {
            name: func.name.clone(),
            params: params.to_vec(),
            ops,
            ints: self.frames[0].ints as u16,
            floats: self.frames[0].floats as u16,
            lane_ints: self.lane_ints as u16,
            lane_floats: self.lane_floats as u16,
            iconsts: self.iconsts,
            fconsts: self.fconsts,
            slots: self.slots,
            errors: self.errors,
            hw_calls: self.hw_calls,
            nests: self.nests,
            handoffs: self.handoffs,
        }
    }

    // --- registers, values, placement -------------------------------------

    fn cur_level(&self) -> usize {
        self.levels.len() - 1
    }

    fn cur_frame(&self) -> usize {
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

    /// A lane register; lane-form operands address them below [`SCALAR`].
    fn alloc_lane(&mut self, kind: Kind) -> Reg {
        let n = match kind {
            Kind::Int => &mut self.lane_ints,
            Kind::Float => &mut self.lane_floats,
        };
        *n += 1;
        let reg = *n - 1;
        if reg >= SCALAR as u32 {
            self.lane_fail();
        }
        reg as Reg
    }

    /// A value that is assigned where the code stands and never shared: a
    /// loop counter, a loaded element, the result of a branchy `select`.
    /// In lane form, a lane vector.
    fn fresh(&mut self, kind: Kind) -> Vid {
        let level = self.cur_level();
        let frame = self.cur_frame();
        let lane = self.lane.is_some();
        let reg = if lane {
            self.alloc_lane(kind)
        } else {
            self.alloc(frame, kind)
        };
        self.values.push(ValInfo {
            kind,
            level,
            frame,
            reg,
            lane,
            is_bool: false,
            konst: None,
        });
        (self.values.len() - 1) as Vid
    }

    /// The register of `frame` that holds value `v`, importing it through
    /// every nest boundary between its home frame and `frame`.
    fn reg_in(&mut self, v: Vid, frame: usize) -> Reg {
        let info = self.values[v as usize];
        debug_assert!(!info.lane, "a lane vector is used as a scalar");
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
            Kind::Int => f.live_ints.push((outer, inner)),
            Kind::Float => f.live_floats.push((outer, inner)),
        }
        inner
    }

    fn reg(&mut self, v: Vid) -> Reg {
        let frame = self.cur_frame();
        self.reg_in(v, frame)
    }

    /// Value `v` as an operand of a lane-form op.
    fn lane_operand(&mut self, v: Vid) -> u16 {
        let info = self.values[v as usize];
        if info.lane {
            return info.reg;
        }
        if info.reg >= SCALAR {
            self.lane_fail();
        }
        info.reg | SCALAR
    }

    /// Emits (or finds) the pure op `code` over `args`, with `lit` in the
    /// field after them. Unless `pinned`, it is placed at the level of its
    /// deepest operand; a pinned op may fault and stays where it stands.
    /// In lane form, an op with a lane operand, and a pinned op, computes
    /// lanes.
    fn pure(
        &mut self,
        code: Code,
        kind: Kind,
        args: &[Vid],
        lit: Option<u16>,
        pinned: bool,
    ) -> Vid {
        let mut key = [NONE; 3];
        for (k, &v) in key.iter_mut().zip(args) {
            *k = v;
        }
        if let Some(l) = lit {
            key[args.len()] = l as u32;
        }
        let key = Key(code, key);
        if let Some(&v) = self.vn.get(&key) {
            return v;
        }
        let cur = self.cur_level();
        let lane =
            self.lane.is_some() && (pinned || args.iter().any(|&v| self.values[v as usize].lane));
        let level = if pinned || lane {
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
            *slot = if lane {
                self.lane_operand(v)
            } else {
                self.reg_in(v, frame)
            };
        }
        if let Some(l) = lit {
            f[args.len()] = l;
        }
        let d = if lane {
            self.alloc_lane(kind)
        } else {
            self.alloc(frame, kind)
        };
        let op = Op::new(code, d, f[0], f[1], f[2]);
        if level == cur {
            self.levels[cur].body.push(op);
            self.scopes.last_mut().expect("a scope is open").push(key);
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
            lane,
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
        self.pure(code, kind, args, None, false)
    }

    fn iconst(&mut self, value: i64) -> Vid {
        let k = intern(&mut self.iconsts, value, |c| c == value);
        let v = self.pure(Code::IConst, Kind::Int, &[], Some(k), false);
        let info = &mut self.values[v as usize];
        info.konst = Some(value);
        info.is_bool = value == 0 || value == 1;
        v
    }

    fn fconst(&mut self, value: f64) -> Vid {
        let k = intern(&mut self.fconsts, value, |c| c.to_bits() == value.to_bits());
        self.pure(Code::FConst, Kind::Float, &[], Some(k), false)
    }

    fn push(&mut self, op: Op) {
        let cur = self.cur_level();
        self.levels[cur].body.push(op);
    }

    fn push_scope(&mut self) {
        self.scopes.push(Vec::new());
    }

    fn pop_scope(&mut self) {
        for key in self.scopes.pop().expect("a scope is open") {
            self.vn.remove(&key);
        }
    }

    /// Emits a fault at this point; what follows it is unreachable.
    fn raise(&mut self, err: InterpError) {
        if self.lane.is_some() {
            return self.lane_fail();
        }
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
    fn open_level(&mut self, frame: usize) {
        self.levels.push(Level {
            frame,
            pre: Vec::new(),
            body: Vec::new(),
            outer_scope: self.scopes.len() - 1,
        });
        self.push_scope();
    }

    fn close_level(&mut self) -> Level {
        self.pop_scope();
        self.levels.pop().expect("a level is open")
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

    /// Closes loop `l`; `source` is the kind, variable and body of the `for`
    /// statement it compiles, if any. A serial, unrolled or `vectorized`
    /// multiply-accumulate loop, or one whose body is a loop that compiled
    /// to a reduce nest, gets a reduce nest where it can; a `vectorized`
    /// loop that does not has its body compiled a second time, to lane
    /// form, where it can.
    fn close_loop(&mut self, l: OpenLoop, source: Option<(ForKind, &Var, &Stmt)>) {
        self.unbind(l.var, l.shadowed);
        let inner = self.nest.take();
        let mut level = self.close_level();
        let var = self.values[l.counter as usize].reg;
        let (lo, limit) = (self.reg(l.lo), self.reg(l.limit));
        let nest = match (source, inner) {
            (Some((kind, _, body)), inner) if nests(kind) => match (inner, &*body.0) {
                (Some(inner), StmtNode::For { kind, .. }) if nests(*kind) => self
                    .lift(inner, &l, &mut level.body)
                    .map(|plan| (Vec::new(), plan)),
                _ => self.plan_nest(&l, body),
            },
            _ => None,
        };
        let skip = (level.body.len() + 1) as u16;
        let lanes = match source {
            Some((ForKind::Vectorized, v, body)) if nest.is_none() => self.lane_form(v, body),
            _ => None,
        };
        let mut out = level.pre;
        if let Some((lanes, iv)) = lanes {
            let handoff = self.handoff(Handoff::Lanes(LaneLoop {
                counter: var,
                limit,
                iv,
                lanes_len: lanes.body.len() as u16,
                scalar_len: level.body.len() as u16,
            }));
            out.extend(lanes.pre);
            out.push(Op::new(Code::IMov, var, lo, 0, 0));
            out.push(handoff);
            out.extend(lanes.body);
            out.extend(level.body);
        } else {
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
        }
        let cur = self.cur_level();
        self.levels[cur].body.extend(out);
    }

    /// Records `h` and returns the `Yield` that hands it over.
    fn handoff(&mut self, h: Handoff) -> Op {
        self.handoffs.push(h);
        Op::new(Code::Yield, 0, (self.handoffs.len() - 1) as u16, 0, 0)
    }

    /// The one-level reduce nest of loop `l`, and the ops in front of the
    /// loop that its integers use. `None`, with nothing changed, unless
    /// `body` is `S[s] = S[s] + a * b` ([`mac_form`]) with `S` a float32
    /// buffer held as `f32`, both factors' buffers other than `S` and held
    /// as `f32`, and every index and guard side affine in the loop
    /// variable with every other term invariant in the loop.
    fn plan_nest(&mut self, l: &OpenLoop, body: &Stmt) -> Option<(Vec<Op>, NestPlan)> {
        let form = mac_form(body)?;
        let mut slots = [0u16; 3];
        let buffers = [form.acc, form.factors[0].buffer, form.factors[1].buffer];
        for (slot, buffer) in slots.iter_mut().zip(buffers) {
            let &V::Handle(_, s) = self.vars.get(&buffer.id())? else {
                return None;
            };
            *slot = s;
        }
        let [s, x, y] = slots;
        let held_f32 = |slot: u16| self.slots[slot as usize].storage == Storage::F32;
        let float32 = self.slots[s as usize].dtype == DType::float32();
        if !(float32 && slots.iter().all(|&s| held_f32(s))) || x == s || y == s {
            return None;
        }
        // The integers: `S` as stored and as loaded, each factor's index,
        // then both sides of each guard comparison.
        let mut ints = vec![form.at[0], form.at[1]];
        ints.extend(form.factors.iter().map(|f| f.index));
        for f in &form.factors {
            ints.extend(f.cmps.iter().flat_map(|&(a, b, _)| [a, b]));
        }
        if ints.len() > MAX_LINS + 1 {
            return None;
        }
        let before = self.clone();
        self.open_level(self.cur_frame());
        let shadowed = self.vars.insert(l.var, V::Int(l.counter));
        let affines: Vec<Affine> = ints.iter().map(|e| self.affine(e)).collect();
        self.unbind(l.var, shadowed);
        let level = self.close_level();
        let inner = self.cur_level() + 1;
        let lins: Option<Vec<LinPlan>> = affines
            .into_iter()
            .map(|a| {
                let (rest, stride) = self.split(a, l.counter, inner)?;
                Some(LinPlan {
                    rest,
                    strides: vec![stride],
                })
            })
            .collect();
        match lins {
            Some(mut lins) if level.body.is_empty() && same(&lins[0], &lins[1]) => {
                lins.remove(1);
                let mut next = 3;
                let guards = form.factors.map(|f| {
                    let konst = f.konst?;
                    let cmps = f
                        .cmps
                        .iter()
                        .map(|&(_, _, strict)| {
                            next += 2;
                            (next - 2, next - 1, strict)
                        })
                        .collect();
                    Some(Guard { cmps, konst })
                });
                let plan = NestPlan {
                    levels: vec![(l.counter, l.lo, l.limit)],
                    slots,
                    lins,
                    guards,
                    handoff: 0,
                };
                Some((level.pre, plan))
            }
            _ => {
                *self = before;
                None
            }
        }
    }

    /// `inner`, the reduce nest that the body of loop `l` compiled to, with
    /// `l` as its new outermost level; `None`, with nothing changed, unless
    /// every inner level's range and every term of every integer but `l`'s
    /// variable is invariant in `l`. `body` is the loop's scalar code, from
    /// which the inner nest's `Yield` is taken out: the new nest falls back
    /// to the scalar code of every level.
    fn lift(&mut self, inner: NestPlan, l: &OpenLoop, body: &mut Vec<Op>) -> Option<NestPlan> {
        let level = self.cur_level() + 1;
        let invariant = |v: Vid| self.values[v as usize].level < level;
        let ranges = inner
            .levels
            .iter()
            .all(|&(_, lo, limit)| invariant(lo) && invariant(limit));
        if inner.levels.len() == MAX_DEPTH || !ranges {
            return None;
        }
        let mut lins = Vec::with_capacity(inner.lins.len());
        for lin in &inner.lins {
            let (rest, stride) = self.split(lin.rest.clone(), l.counter, level)?;
            let mut strides = vec![stride];
            strides.extend(&lin.strides);
            lins.push(LinPlan { rest, strides });
        }
        let at = body
            .iter()
            .position(|op| op.code == Code::Yield && op.a as usize == inner.handoff)?;
        body.remove(at);
        debug_assert_eq!(self.handoffs.len(), inner.handoff + 1);
        self.handoffs.truncate(inner.handoff);
        let mut levels = vec![(l.counter, l.lo, l.limit)];
        levels.extend(inner.levels);
        Some(NestPlan {
            levels,
            lins,
            ..inner
        })
    }

    /// Computes the bases of `plan`'s integers in ops placed in front of
    /// the loop, which are returned with the `Yield` that hands the nest
    /// over; the nest's scalar code is `scalar_len` ops. The plan is kept
    /// for the loop around this one.
    fn nest_handoff(&mut self, mut plan: NestPlan, scalar_len: u16) -> (Vec<Op>, Op) {
        self.open_level(self.cur_frame());
        let bases: Vec<Vid> = plan
            .lins
            .iter()
            .map(|lin| self.materialize(lin.rest.clone()))
            .collect();
        let level = self.close_level();
        debug_assert!(level.body.is_empty(), "every term is invariant");
        let lins = plan
            .lins
            .iter()
            .zip(bases)
            .map(|(lin, base)| {
                let mut strides = [0; MAX_DEPTH];
                strides[..lin.strides.len()].copy_from_slice(&lin.strides);
                Lin {
                    base: self.reg(base),
                    strides,
                }
            })
            .collect();
        let levels = plan
            .levels
            .iter()
            .map(|&(counter, lo, limit)| NestLevel {
                counter: self.values[counter as usize].reg,
                lo: self.reg(lo),
                limit: self.reg(limit),
            })
            .collect();
        let op = self.handoff(Handoff::Reduce(Box::new(ReduceNest {
            levels,
            slots: plan.slots,
            lins,
            guards: plan.guards.clone(),
            scalar_len,
        })));
        plan.handoff = self.handoffs.len() - 1;
        self.nest = Some(plan);
        (level.pre, op)
    }

    /// `a` as `rest + stride * k`, with `k` the counter of the loop at
    /// `level`: `None` if a term of `rest` varies at that level or deeper.
    fn split(&self, mut a: Affine, k: Vid, level: usize) -> Option<(Affine, i64)> {
        let stride = match a.terms.iter().position(|&(v, _)| v == k) {
            Some(p) => a.terms.remove(p).1,
            None => 0,
        };
        let invariant = a
            .terms
            .iter()
            .all(|&(v, _)| self.values[v as usize].level < level);
        invariant.then_some((a, stride))
    }

    /// Compiles `body`, the body of a `vectorized` loop over `var`, to lane
    /// form, and returns its level and the lane register of `var`; `None`,
    /// with nothing changed, if lane form cannot express it.
    fn lane_form(&mut self, var: &Var, body: &Stmt) -> Option<(Level, Reg)> {
        if self.cur_frame() != 0 {
            return None; // inside a barriered nest
        }
        let buffer = lone_store(body)?;
        let &V::Handle(_, slot) = self.vars.get(&buffer.id())? else {
            return None;
        };
        let before = self.clone();
        let mask = self.iconst(1);
        self.open_level(0);
        self.lane = Some(LaneBody {
            iv: 0,
            mask,
            slot,
            index: None,
            stored: false,
            failed: false,
        });
        let iv = self.fresh(Kind::Int);
        let shadowed = self.vars.insert(var.id(), V::Int(iv));
        self.lane_body().iv = iv;
        self.stmt(body);
        self.unbind(var.id(), shadowed);
        let lane = self.lane.take().expect("set above");
        let level = self.close_level();
        if lane.failed || !lane.stored {
            *self = before;
            return None;
        }
        Some((level, self.values[iv as usize].reg))
    }

    fn lane_body(&mut self) -> &mut LaneBody {
        self.lane.as_mut().expect("compiling lane form")
    }

    fn lane_fail(&mut self) {
        if let Some(lane) = self.lane.as_mut() {
            lane.failed = true;
        }
    }

    /// Narrows the lanes the code compiled next runs on to those where
    /// `c` holds, in a scope of its own; returns the mask to restore.
    fn narrow(&mut self, c: Vid) -> Vid {
        let outer = self.lane_body().mask;
        let mask = match self.values[outer as usize].konst {
            Some(1) => c,
            _ => self.op(Code::IAnd, Kind::Int, &[outer, c]),
        };
        self.push_scope();
        self.lane_body().mask = mask;
        outer
    }

    /// Ends what [`Compiler::narrow`] began.
    fn widen(&mut self, outer: Vid) {
        self.pop_scope();
        self.lane_body().mask = outer;
    }

    /// Checks that an op that reads memory or may fault can run here: it
    /// must come before the store, which is lane form's last effect.
    fn lane_effect(&mut self) {
        if self.lane_body().stored {
            self.lane_fail();
        }
    }

    fn unbind(&mut self, var: VarId, shadowed: Option<V>) {
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
                index,
                value,
                predicate,
                ..
            } if self.lane.is_some() => self.lane_store(index, value, predicate.as_ref()),
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
                    self.close_loop(l, Some((*kind, var, body)));
                }
            },
            Seq(stmts) => {
                for st in stmts {
                    self.stmt(st);
                }
            }
            IfThenElse {
                cond, then_case, ..
            } if self.lane.is_some() => {
                // `lone_store` admits no `else`.
                let c = self.truthy(cond);
                let outer = self.narrow(c);
                self.stmt(then_case);
                self.widen(outer);
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

    /// The body's one store, in lane form. Its index must be affine in the
    /// loop variable, with a coefficient that keeps a chunk's lanes apart:
    /// then no lane reads an element another lane of its chunk writes.
    fn lane_store(&mut self, index: &Expr, value: &Expr, predicate: Option<&Expr>) {
        let outer = predicate.map(|p| {
            let c = self.truthy(p);
            self.narrow(c)
        });
        let a = self.affine(index);
        let iv = self.lane_body().iv;
        let apart = |k: i64| (1..LANES as i64).all(|d| k.wrapping_mul(d) != 0);
        let affine = a.terms.iter().any(|&(v, k)| v == iv && apart(k))
            && a.terms
                .iter()
                .all(|&(v, _)| v == iv || !self.values[v as usize].lane);
        if !affine {
            self.lane_fail();
        }
        let idx = self.materialize(a);
        self.lane_body().index = Some(idx);
        let val = self.expr(value);
        let slot = self.lane_body().slot;
        let (code, v) = self.store_value(slot, val);
        let mask = self.lane_body().mask;
        let (mask, idx, v) = (
            self.lane_operand(mask),
            self.lane_operand(idx),
            self.lane_operand(v),
        );
        self.push(Op::new(code, mask, slot, idx, v));
        self.lane_body().stored = true;
        if let Some(outer) = outer {
            self.widen(outer);
        }
    }

    /// A run of consecutive thread-bound loops: lanes taking turns between
    /// barriers when the body has one, plain loops when it has none.
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
            live_ints: f.live_ints,
            live_floats: f.live_floats,
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

    fn affine(&mut self, e: &Expr) -> Affine {
        match &*e.0 {
            ExprNode::IntImm { value, .. } => Affine::konst(*value),
            ExprNode::Binary {
                op: op @ (BinOp::Add | BinOp::Sub | BinOp::Mul),
                a,
                b,
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
    fn materialize(&mut self, mut a: Affine) -> Vid {
        a.terms
            .sort_by_key(|&(v, _)| (self.values[v as usize].level, v));
        let mut acc = (a.c != 0 || a.terms.is_empty()).then(|| self.iconst(a.c));
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
        acc.expect("an affine form has a constant or a term")
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
                    V::Int(self.pure(Code::IQuant, Kind::Int, &[x], Some(spec), false))
                } else {
                    let x = self.as_float(v);
                    V::Float(match t.bits {
                        16 => self.op(Code::FRound16, Kind::Float, &[x]),
                        32 => self.op(Code::FRound32, Kind::Float, &[x]),
                        _ => x,
                    })
                }
            }
            Binary { op, a, b } => self.binary(e, *op, a, b),
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
            } if self.lane.is_some() => self.lane_load(buffer, index, predicate.as_ref()),
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
        let (x, y) = (self.int_of(a), self.int_of(b));
        let nonzero = self.values[y as usize].konst.is_some_and(|k| k != 0);
        let (code, pinned) = match op {
            Div if nonzero => (Code::IDivNz, false),
            Mod if nonzero => (Code::IModNz, false),
            Div => (Code::IDiv, true),
            Mod => (Code::IMod, true),
            Min => (Code::IMin, false),
            Max => (Code::IMax, false),
            BitAnd => (Code::IAnd, false),
            BitOr => (Code::IOr, false),
            BitXor => (Code::IXor, false),
            Shl => (Code::IShl, false),
            Shr => (Code::IShr, false),
            Add | Sub | Mul => unreachable!("affine ops are handled above"),
        };
        if pinned && self.lane.is_some() {
            // Faults only on the lanes that run it.
            self.lane_effect();
            let mask = self.lane_body().mask;
            return V::Int(self.pure(code, Kind::Int, &[x, y, mask], None, true));
        }
        V::Int(self.pure(code, Kind::Int, &[x, y], None, pinned))
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
        } else if self.lane.is_some() {
            // `b` runs on the lanes `a` does not decide; on the others its
            // 0/1 value does not change the outcome.
            let undecided = match code {
                Code::IAnd => x,
                _ => self.op(Code::INot, Kind::Int, &[x]),
            };
            let outer = self.narrow(undecided);
            let y = self.truthy(b);
            self.widen(outer);
            y
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
        } else if self.lane.is_some() {
            let (t, f) = (
                self.lane_arm(then_case, c, true),
                self.lane_arm(else_case, c, false),
            );
            // A load is zero on the lanes it skips, so a padded read,
            // `select(c, load, 0.0)`, is the masked load alone.
            let zero =
                matches!(&*else_case.0, ExprNode::FloatImm { value, .. } if value.to_bits() == 0);
            if zero && matches!((&*then_case.0, t), (ExprNode::Load { .. }, V::Float(_))) {
                return t;
            }
            (t, f)
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

    /// `e`, the arm of a `select` on `c` taken where `c` is `taken`, in lane
    /// form: if it may fault or read memory, it runs only on those lanes.
    fn lane_arm(&mut self, e: &Expr, c: Vid, taken: bool) -> V {
        if self.speculable(e) {
            return self.expr(e);
        }
        let lanes = if taken {
            c
        } else {
            self.op(Code::INot, Kind::Int, &[c])
        };
        let outer = self.narrow(lanes);
        let v = self.expr(e);
        self.widen(outer);
        v
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

    /// A load in lane form: each lane the mask and `predicate` select loads
    /// its element, the others yield zero. The stored buffer may be read
    /// only at the store's own index.
    fn lane_load(&mut self, buffer: &Var, index: &Expr, predicate: Option<&Expr>) -> V {
        self.lane_effect();
        let outer = predicate.map(|p| {
            let c = self.truthy(p);
            self.narrow(c)
        });
        let idx = self.int_of(index);
        let Some(&V::Handle(_, slot)) = self.vars.get(&buffer.id()) else {
            self.lane_fail();
            return self.dummy(buffer.dtype().is_float());
        };
        let lane = *self.lane_body();
        if slot == lane.slot && lane.index != Some(idx) {
            self.lane_fail();
        }
        let storage = self.slots[slot as usize].storage;
        let d = self.fresh(storage.kind());
        let code = match storage {
            Storage::F32 => Code::LoadF32,
            Storage::F64 => Code::LoadF64,
            Storage::I64 => Code::LoadI64,
        };
        let (idx, mask) = (self.lane_operand(idx), self.lane_operand(lane.mask));
        self.push(Op::new(code, self.values[d as usize].reg, slot, idx, mask));
        let v = match storage.kind() {
            Kind::Float => V::Float(d),
            Kind::Int => V::Int(d),
        };
        let Some(outer) = outer else {
            return v;
        };
        self.widen(outer);
        // As in scalar code: a float where the buffer's type and its storage
        // disagree.
        match v {
            V::Int(_) if buffer.dtype().is_float() => V::Float(self.as_float(v)),
            _ => v,
        }
    }

    fn pure_call(&mut self, name: &str, args: &[Expr], dtype: DType) -> V {
        let vals: Vec<V> = args.iter().map(|a| self.expr(a)).collect();
        let arity = if name == "pow" { 2 } else { 1 };
        let known = unary_index(name).is_some() || name == "pow" || name == "popcount";
        if !known {
            self.raise(InterpError::UnknownIntrinsic(name.to_string()));
            return self.dummy(dtype.is_float());
        }
        if vals.len() < arity {
            self.raise(InterpError::Malformed("missing intrinsic arg".into()));
            return self.dummy(dtype.is_float());
        }
        match name {
            "pow" => {
                let (x, y) = (self.as_float(vals[0]), self.as_float(vals[1]));
                V::Float(self.op(Code::FPow, Kind::Float, &[x, y]))
            }
            "popcount" => {
                let x = self.as_int(vals[0]);
                V::Int(self.op(Code::IPopcount, Kind::Int, &[x]))
            }
            "abs" if !dtype.is_float() => {
                let x = self.as_int(vals[0]);
                V::Int(self.op(Code::IAbs, Kind::Int, &[x]))
            }
            _ => {
                let x = self.as_float(vals[0]);
                let f = unary_index(name).expect("checked above");
                V::Float(self.pure(Code::FUnary, Kind::Float, &[x], Some(f), false))
            }
        }
    }

    fn hw_call(&mut self, name: &str, args: &[Expr], ret: Option<(Kind, Reg)>) {
        if self.lane.is_some() {
            return self.lane_fail();
        }
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
            Binary { op, a, b } => {
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

/// The buffer of the one store in `body`, if `body` has exactly one and no
/// loop, allocation, barrier or `else`: the statements lane form can hold.
fn lone_store(body: &Stmt) -> Option<&Var> {
    fn walk<'a>(s: &'a Stmt, stores: &mut Vec<&'a Var>) -> bool {
        use StmtNode::*;
        match &*s.0 {
            Store { buffer, .. } => {
                stores.push(buffer);
                true
            }
            LetStmt { body, .. } | AttrStmt { body, .. } => walk(body, stores),
            Seq(stmts) => stmts.iter().all(|st| walk(st, stores)),
            IfThenElse {
                then_case,
                else_case: None,
                ..
            } => walk(then_case, stores),
            Evaluate(_) | PushDep { .. } | PopDep { .. } => true,
            For { .. } | Allocate { .. } | Barrier | IfThenElse { .. } => false,
        }
    }
    let mut stores = Vec::new();
    if !walk(body, &mut stores) {
        return None;
    }
    match stores[..] {
        [buffer] => Some(buffer),
        _ => None,
    }
}

/// Whether a loop of `kind` may be a level of a reduce nest.
fn nests(kind: ForKind) -> bool {
    matches!(
        kind,
        ForKind::Serial | ForKind::Unrolled | ForKind::Vectorized
    )
}

/// Whether two affine integers of a reduce nest are the same.
fn same(a: &LinPlan, b: &LinPlan) -> bool {
    let terms = |l: &LinPlan| {
        let mut t = l.rest.terms.clone();
        t.sort_unstable();
        t
    };
    a.rest.c == b.rest.c && a.strides == b.strides && terms(a) == terms(b)
}

/// A loop body `S[s] = S[s] + a * b`: a float sum, in either order, of `S`
/// loaded where it is stored and a float product of two factors, every
/// access unpredicated.
struct MacForm<'a> {
    acc: &'a Var,
    /// `s` as stored and as loaded.
    at: [&'a Expr; 2],
    factors: [FactorForm<'a>; 2],
}

/// `buffer[index]`, or, with `konst`, `select(c, buffer[index], konst)`
/// where `c` is the conjunction of `cmps`: `(a, b, strict)` is integer
/// `a < b`, or `a <= b` unless strict.
struct FactorForm<'a> {
    buffer: &'a Var,
    index: &'a Expr,
    cmps: Vec<(&'a Expr, &'a Expr, bool)>,
    konst: Option<f64>,
}

/// `body` as a [`MacForm`]. Float addition and multiplication commute, so
/// the order of the sum does not matter, and the factors keep theirs.
fn mac_form(body: &Stmt) -> Option<MacForm<'_>> {
    fn load(e: &Expr) -> Option<(&Var, &Expr)> {
        match &*e.0 {
            ExprNode::Load {
                buffer,
                index,
                predicate: None,
            } => Some((buffer, index)),
            _ => None,
        }
    }
    /// The conjunction `c` as comparisons, if it is one of integer
    /// `< <= > >=` comparisons.
    fn conjunction<'a>(c: &'a Expr, out: &mut Vec<(&'a Expr, &'a Expr, bool)>) -> Option<()> {
        match &*c.0 {
            ExprNode::And { a, b } => {
                conjunction(a, out)?;
                conjunction(b, out)
            }
            ExprNode::Cmp { op, a, b } if !a.dtype().is_float() => {
                out.push(match op {
                    CmpOp::Lt => (a, b, true),
                    CmpOp::Le => (a, b, false),
                    CmpOp::Gt => (b, a, true),
                    CmpOp::Ge => (b, a, false),
                    CmpOp::Eq | CmpOp::Ne => return None,
                });
                Some(())
            }
            _ => None,
        }
    }
    fn factor(e: &Expr) -> Option<FactorForm<'_>> {
        if let Some((buffer, index)) = load(e) {
            return Some(FactorForm {
                buffer,
                index,
                cmps: Vec::new(),
                konst: None,
            });
        }
        let ExprNode::Select {
            cond,
            then_case,
            else_case,
        } = &*e.0
        else {
            return None;
        };
        let (buffer, index) = load(then_case)?;
        let &ExprNode::FloatImm { value, .. } = &*else_case.0 else {
            return None;
        };
        let mut cmps = Vec::new();
        conjunction(cond, &mut cmps)?;
        Some(FactorForm {
            buffer,
            index,
            cmps,
            konst: Some(value),
        })
    }
    fn product(e: &Expr) -> Option<[FactorForm<'_>; 2]> {
        match &*e.0 {
            ExprNode::Binary {
                op: BinOp::Mul,
                a,
                b,
            } if a.dtype().is_float() => Some([factor(a)?, factor(b)?]),
            _ => None,
        }
    }
    let StmtNode::Store {
        buffer,
        index,
        value,
        predicate: None,
    } = &*body.0
    else {
        return None;
    };
    let ExprNode::Binary {
        op: BinOp::Add,
        a,
        b,
    } = &*value.0
    else {
        return None;
    };
    let stored = |&(s, _): &(&Var, &Expr)| s.id() == buffer.id();
    let ((_, at), factors) = match (load(a).filter(stored), product(b)) {
        (Some(acc), Some(factors)) => (acc, factors),
        _ => (load(b).filter(stored)?, product(a)?),
    };
    a.dtype().is_float().then_some(MacForm {
        acc: buffer,
        at: [index, at],
        factors,
    })
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
