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
//!   because the walker computes them wrapping in `i64`. A `//` or `%` by
//!   a positive constant is a multiply-high and a shift, never a hardware
//!   divide;
//! * loads, stores, checked division, intrinsic calls and faults stay where
//!   the statement stands, so they happen in the walker's order and raise
//!   the walker's errors.
//!
//! A thread nest that contains a barrier becomes a `Nest`: its body is
//! compiled once, for one thread (a *lane*), into a frame with registers of
//! its own. At run time the lanes share one window of those registers, into
//! which the values the nest reads from outside it, constants included,
//! are copied once on entry. Each lane gets its own copy of the allocations
//! made inside the nest, and a row of only the registers it writes that are
//! live where a turn starts (found by a liveness pass, `live`): its row is
//! copied into the window when its turn starts and back out when it stops
//! at a barrier. The lanes take turns in row-major thread order, each
//! running until its next barrier: every statement runs once per thread,
//! between the same barriers as on hardware (§4.2). A nest without
//! barriers is compiled as plain loops.
//!
//! A `vectorized` loop is compiled as a `serial` one is, and its iterations
//! run one at a time, as the walker runs them: §4.1's `vectorize` is a
//! schedule primitive for the device, which the simulator prices, not for
//! this engine. Only a reduce nest, below, treats it as more than a loop.
//!
//! A multiply-accumulate loop nest is compiled twice: to scalar code,
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
//! * *Exact*: the op runs the walker's iterations in its row-major order,
//!   each `S[s] = (S[s] as f64 + a as f64 * b as f64) as f32`, the walker's
//!   arithmetic and store rounding, and counts one store per iteration, on
//!   one of two kernels chosen when the nest is compiled. An unguarded nest
//!   whose `S` moves along no level (a dense reduction, a GPU lane's
//!   accumulator; [`Program::register_sums`] counts them) keeps its sum in
//!   a register for the whole box: the innermost level and each level
//!   around it that both factors walk on through from where the level
//!   inside it ends (a split `k.o × k.i`) join into one row, and an
//!   odometer steps the levels outside it. Every other nest runs a row at
//!   a time. In each innermost row a guard holds on an interval, its span,
//!   found by division from the comparisons' affine forms once per
//!   distinct value of their sides; outside it the factor is `k` and
//!   nothing is loaded. The span ends cut each row into pieces, and each
//!   piece runs over slices taken once for it.
//! * *Replay*: before it writes anything, the op checks with checked
//!   arithmetic that every integer stays an `i64` over the nest's box and
//!   that `S` and every unguarded factor stay in bounds at its corners; a
//!   guarded factor is checked at both ends of its span in each row.
//!   The indices are affine, so every index between is in bounds too. If
//!   the box is empty or a check fails, the scalar code of every level
//!   runs instead and stores and faults where the walker does.
//!
//! A reduce nest is entered through a `Yield` op that returns from the
//! dispatch loop to [`Program::execute`] (in a barriered nest, to the
//! lanes' scheduler), which runs it and resumes after it: work outside the
//! dispatch loop does not perturb how the dispatch loop's registers are
//! allocated. A barrier has an op of its own, so a `Yield` always means a
//! handoff.
//!
//! The compiler is in `compile`, the lanes' liveness pass in `live`, the
//! dispatch loop and the lanes' scheduler in `machine`, and the reduce
//! nest, compiled and run, in `nest`, its row kernel in `nest::row`.
//!
//! Limits the walker does not have, each raised as
//! [`InterpError::Unsupported`]: more than 65,535 ops or registers in one
//! function, an allocation of non-constant extent inside a barriered nest,
//! a barriered nest whose lanes' rows and allocations do not fit in one
//! allocation, and a `select` between buffer handles. A `select` (or
//! predicated load) whose arms are an integer and a float yields a float.

use std::collections::HashMap;
use std::sync::Arc;

use crate::dtype::{DType, TypeCode};
use crate::expr::{BinOp, CallKind, CmpOp, Expr, ExprNode, Var, VarId};
use crate::interp::{
    round_f16, Buffer, Data, HwHandlerFn, InterpError, MemState, Result, Slot, Value,
};
use crate::interval::{floor_div, floor_mod};
use crate::stmt::{ForKind, LoweredFunc, Stmt, StmtNode};

mod compile;
mod live;
mod machine;
mod nest;

use compile::Compiler;
use machine::{malformed, Machine, Stop};
use nest::ReduceNest;

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

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    Int,
    Float,
}

type Reg = u16;

/// Operation codes. `d`, `a`, `b`, `c` are the fields of [`Op`]; `i[x]` /
/// `f[x]` is integer / float register `x`.
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
    /// `i[d] = i[a] - i[b] * i[c]`: a constant `a % k` is
    /// `IMulSub(a, a // k, k)`, which wraps to the exact remainder.
    IMulSub,
    /// Floor division and modulus by a variable or a negative constant;
    /// they fault on zero.
    IDiv,
    IMod,
    /// `i[d] = floor(i[a] / k)` for a constant `k >= 2`, as a multiply-high
    /// by `iconsts[b]` and a shift right by `c`, the magic of `k`
    /// (`compile::magic`), so no positive constant divisor reaches `IDiv`.
    IDivNz,
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
    /// Returns to the caller, which runs reduce nest `handoffs[a]`, whose
    /// scalar code follows, and resumes after it. The nest runs outside the
    /// dispatch loop, so that scalar code keeps its registers. In a
    /// barriered nest it runs on the current lane's window.
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

/// A barriered thread nest. Register numbers on the `inner` side index the
/// nest's window, which its lanes share.
#[derive(Clone)]
struct Nest {
    /// Thread variable (inner) and the registers of the enclosing frame
    /// that hold its `min` and `extent`, outermost axis first.
    axes: Vec<(Reg, Reg, Reg)>,
    /// Ops of lane code following the `Nest` op.
    len: u16,
    /// Registers of the window.
    ints: u16,
    floats: u16,
    /// `(outer, inner)`: values of the enclosing frame the lane code reads,
    /// copied into the window once on entry. No lane writes them.
    import_ints: Vec<(Reg, Reg)>,
    import_floats: Vec<(Reg, Reg)>,
    /// The registers the lane code writes, its thread axes included, that
    /// are live where a turn starts: at the first op, or right after a
    /// barrier (`live::keep`). Each lane holds its own copy of only these,
    /// copied into the window when its turn starts and back out when it
    /// stops at a barrier.
    keep_ints: Box<[Reg]>,
    keep_floats: Box<[Reg]>,
    /// Allocations made inside the nest, one copy per lane: `(slot, extent)`.
    lane_slots: Vec<(u16, usize)>,
}

/// A lowered function compiled for one binding of its parameters.
pub struct Program {
    name: String,
    params: Vec<(Storage, DType)>,
    ops: Vec<Op>,
    ints: u16,
    floats: u16,
    /// Exactly sized, as `handoffs` is: `IDivNz`'s multipliers join the
    /// pool, and a `Vec` would double its room for one more.
    iconsts: Box<[i64]>,
    fconsts: Vec<f64>,
    /// Parameters first, then one per `Allocate`.
    slots: Vec<SlotDecl>,
    errors: Vec<InterpError>,
    hw_calls: Vec<HwCall>,
    nests: Vec<Nest>,
    /// What each `Yield` hands over to [`Program::execute`], or, in a
    /// barriered nest, to [`Machine::run_nest`]. Exactly sized: a `Vec`
    /// keeps room for four nests in a program that has one.
    handoffs: Box<[ReduceNest]>,
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

    /// Number of loop nests compiled to reduce nests.
    pub fn reduce_loops(&self) -> usize {
        self.handoffs.len()
    }

    /// Loop levels of each reduce nest, in program order.
    pub fn reduce_depths(&self) -> Vec<usize> {
        self.handoffs.iter().map(|r| r.levels.len()).collect()
    }

    /// Number of integer divisions and moduli run as a hardware divide:
    /// those by a variable or a non-positive constant. One by a positive
    /// constant is a multiply-high and a shift (`IDivNz`).
    pub fn hardware_divides(&self) -> usize {
        let divides = |op: &&Op| matches!(op.code, Code::IDiv | Code::IMod);
        self.ops.iter().filter(divides).count()
    }

    /// Number of reduce nests that keep their sum in a register for their
    /// whole box: unguarded, with `S` one element all over it.
    pub fn register_sums(&self) -> usize {
        self.handoffs.iter().filter(|r| r.acc).count()
    }

    /// Number of factors, over every reduce nest, that are a guarded
    /// `select(c, X[x], k)`.
    pub fn guarded_factors(&self) -> usize {
        self.handoffs
            .iter()
            .map(|r| r.guards.iter().flatten().count())
            .sum()
    }

    /// Registers of each barriered nest's window, and how many of them
    /// each of its lanes keeps of its own, in program order.
    pub fn lane_registers(&self) -> Vec<(usize, usize)> {
        let window = |n: &Nest| n.ints as usize + n.floats as usize;
        let kept = |n: &Nest| n.keep_ints.len() + n.keep_floats.len();
        self.nests.iter().map(|n| (window(n), kept(n))).collect()
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
        let mut pc = 0;
        let result = loop {
            let start = match machine.run(pc, self.ops.len(), &mut ints, &mut floats) {
                Ok(Stop::Yield(start)) => start,
                Ok(Stop::End) => break Ok(()),
                Ok(Stop::Barrier(_)) => break Err(malformed("a barrier outside a thread nest")),
                Err(e) => break Err(e),
            };
            pc = match self.handoffs.get(self.ops[start - 1].a as usize) {
                Some(r) => match machine.run_reduce(r, start, &mut ints) {
                    Ok(next) => next,
                    Err(e) => break Err(e),
                },
                None => break Err(malformed("a yield names no loop")),
            };
        };
        (result, machine.stores)
    }
}
