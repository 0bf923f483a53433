//! Interpreter for lowered loop programs.
//!
//! [`Interp::run`] / [`Interp::run_f32`] lower the function once into a
//! flat register program ([`crate::flat::Program`]) and execute that; it is
//! the engine every caller — the graph executor, the serving layer, the
//! fuzzer — runs. The tree walker below ([`Interp::eval`], [`Interp::exec`]
//! and the one entry point [`Interp::run_reference`]) is kept only as the
//! oracle the flat engine is tested against.
//!
//! GPU semantics, in both: loops bound to block axes are independent and
//! run serially; loops bound to thread axes whose body contains barriers
//! are executed in *phases* — every thread runs the region between
//! consecutive barriers before any thread proceeds past the barrier, which
//! is exactly the synchronization contract
//! `memory_barrier_among_threads()` provides on real hardware (§4.2).

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crate::dtype::{DType, TypeCode};
use crate::expr::{BinOp, CallKind, CmpOp, Expr, ExprNode, Var, VarId};
use crate::flat::{Program, Storage};
use crate::interval::{floor_div, floor_mod};
use crate::stmt::{ForKind, LoweredFunc, Stmt, StmtNode};

/// Interpreter error.
#[derive(Debug, Clone)]
pub enum InterpError {
    /// Read of a variable with no binding.
    UnboundVar(String),
    /// Access to a buffer that was never allocated or bound.
    UnknownBuffer(String),
    /// Flat index outside the buffer extent.
    OutOfBounds {
        buffer: String,
        index: i64,
        extent: usize,
    },
    /// Division or modulus by zero.
    DivideByZero,
    /// Call of an unregistered intrinsic.
    UnknownIntrinsic(String),
    /// IR construct the interpreter does not execute (e.g. vector ramp).
    Unsupported(String),
    /// Structural error (e.g. barrier count diverges between branches).
    Malformed(String),
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpError::UnboundVar(n) => write!(f, "unbound variable `{n}`"),
            InterpError::UnknownBuffer(n) => write!(f, "unknown buffer `{n}`"),
            InterpError::OutOfBounds {
                buffer,
                index,
                extent,
            } => {
                write!(
                    f,
                    "index {index} out of bounds for `{buffer}` (extent {extent})"
                )
            }
            InterpError::DivideByZero => write!(f, "division by zero"),
            InterpError::UnknownIntrinsic(n) => write!(f, "unknown intrinsic `{n}`"),
            InterpError::Unsupported(n) => write!(f, "unsupported construct: {n}"),
            InterpError::Malformed(n) => write!(f, "malformed program: {n}"),
        }
    }
}

impl std::error::Error for InterpError {}

/// Interpreter result alias.
pub type Result<T> = std::result::Result<T, InterpError>;

/// A runtime scalar value.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Value {
    /// Integer (all int widths evaluate in i64).
    Int(i64),
    /// Float (all float widths evaluate in f64; stores quantize).
    Float(f64),
    /// Opaque handle to a buffer (hardware-intrinsic arguments).
    Handle(VarId),
}

impl Value {
    /// Integer content, coercing floats by truncation.
    pub fn as_int(self) -> Result<i64> {
        match self {
            Value::Int(v) => Ok(v),
            Value::Float(v) => Ok(v as i64),
            Value::Handle(_) => Err(InterpError::Unsupported("handle used as int".into())),
        }
    }

    /// Float content, coercing ints.
    pub fn as_float(self) -> Result<f64> {
        match self {
            Value::Int(v) => Ok(v as f64),
            Value::Float(v) => Ok(v),
            Value::Handle(_) => Err(InterpError::Unsupported("handle used as float".into())),
        }
    }

    /// True if non-zero.
    pub fn truthy(self) -> Result<bool> {
        Ok(self.as_int()? != 0)
    }
}

/// Storage of one buffer.
#[derive(Clone, Debug)]
pub enum Data {
    /// Float element storage.
    F64(Vec<f64>),
    /// Integer element storage.
    I64(Vec<i64>),
    /// Single-precision storage: what [`Interp::run_f32`] binds in place.
    /// Every `float32`/`float16` value survives the round trip through
    /// `f32` unchanged, so it holds the same values `F64` storage would.
    F32(Vec<f32>),
}

impl Data {
    fn len(&self) -> usize {
        match self {
            Data::F64(v) => v.len(),
            Data::I64(v) => v.len(),
            Data::F32(v) => v.len(),
        }
    }

    /// Becomes `n` zeros, keeping its allocation.
    pub(crate) fn zero(&mut self, n: usize) {
        match self {
            Data::F64(v) => {
                v.clear();
                v.resize(n, 0.0);
            }
            Data::I64(v) => {
                v.clear();
                v.resize(n, 0);
            }
            Data::F32(v) => {
                v.clear();
                v.resize(n, 0.0);
            }
        }
    }

    pub(crate) fn storage(&self) -> Storage {
        match self {
            Data::F64(_) => Storage::F64,
            Data::I64(_) => Storage::I64,
            Data::F32(_) => Storage::F32,
        }
    }
}

/// A named, typed flat buffer.
#[derive(Clone, Debug)]
pub struct Buffer {
    /// Element type; stores quantize values to this type.
    pub dtype: DType,
    /// Element storage.
    pub data: Data,
}

impl Buffer {
    /// Allocates a zero-filled buffer.
    pub fn zeros(dtype: DType, extent: usize) -> Buffer {
        let data = if dtype.is_float() {
            Data::F64(vec![0.0; extent])
        } else {
            Data::I64(vec![0; extent])
        };
        Buffer { dtype, data }
    }

    /// Builds an integer buffer from `i64` contents.
    pub fn from_i64(dtype: DType, values: &[i64]) -> Buffer {
        debug_assert!(dtype.is_int());
        Buffer {
            dtype,
            data: Data::I64(values.to_vec()),
        }
    }

    /// Extracts integer contents.
    pub fn to_i64(&self) -> Vec<i64> {
        match &self.data {
            Data::I64(v) => v.clone(),
            Data::F64(v) => v.iter().map(|&x| x as i64).collect(),
            Data::F32(v) => v.iter().map(|&x| x as i64).collect(),
        }
    }

    /// Builds a float buffer from `f32` contents.
    pub fn from_f32(values: &[f32]) -> Buffer {
        Buffer {
            dtype: DType::float32(),
            data: Data::F64(values.iter().map(|&v| v as f64).collect()),
        }
    }

    /// Extracts float contents as `f32`.
    pub fn to_f32(&self) -> Vec<f32> {
        match &self.data {
            Data::F64(v) => v.iter().map(|&x| x as f32).collect(),
            Data::I64(v) => v.iter().map(|&x| x as f32).collect(),
            Data::F32(v) => v.clone(),
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the buffer holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn get(&self, idx: i64, name: &str) -> Result<Value> {
        Ok(self.read(self.check(idx, name)?))
    }

    fn set(&mut self, idx: i64, val: Value, name: &str) -> Result<()> {
        let i = self.check(idx, name)?;
        self.write(i, val)
    }

    fn read(&self, i: usize) -> Value {
        match &self.data {
            Data::F64(v) => Value::Float(v[i]),
            Data::I64(v) => Value::Int(v[i]),
            Data::F32(v) => Value::Float(v[i] as f64),
        }
    }

    fn write(&mut self, i: usize, val: Value) -> Result<()> {
        let q = quantize(val, self.dtype)?;
        match (&mut self.data, q) {
            (Data::F64(v), Value::Float(x)) => v[i] = x,
            (Data::I64(v), Value::Int(x)) => v[i] = x,
            (Data::F64(v), Value::Int(x)) => v[i] = x as f64,
            (Data::I64(v), Value::Float(x)) => v[i] = x as i64,
            (Data::F32(v), Value::Float(x)) => v[i] = x as f32,
            (Data::F32(v), Value::Int(x)) => v[i] = x as f32,
            _ => return Err(InterpError::Unsupported("handle store".into())),
        }
        Ok(())
    }

    fn check(&self, idx: i64, name: &str) -> Result<usize> {
        if idx < 0 || idx as usize >= self.data.len() {
            return Err(InterpError::OutOfBounds {
                buffer: name.to_string(),
                index: idx,
                extent: self.data.len(),
            });
        }
        Ok(idx as usize)
    }
}

/// Rounds an `f64` through IEEE half precision (round-to-nearest-even on
/// the f32 intermediate, then the standard f32→f16 conversion).
pub fn round_f16(x: f64) -> f64 {
    let bits = (x as f32).to_bits();
    let sign = (bits >> 16) & 0x8000;
    let mut exp = ((bits >> 23) & 0xff) as i32;
    let mut frac = bits & 0x007f_ffff;
    let half: u16 = if exp == 0xff {
        // Inf / NaN.
        (sign | 0x7c00 | if frac != 0 { 0x200 } else { 0 }) as u16
    } else {
        exp -= 127;
        if exp > 15 {
            (sign | 0x7c00) as u16 // overflow -> inf
        } else if exp >= -14 {
            // Normal: 10-bit mantissa, round to nearest even.
            let mut m = frac >> 13;
            let rem = frac & 0x1fff;
            if rem > 0x1000 || (rem == 0x1000 && (m & 1) == 1) {
                m += 1;
            }
            let mut e16 = (exp + 15) as u32;
            if m == 0x400 {
                m = 0;
                e16 += 1;
            }
            if e16 >= 31 {
                (sign | 0x7c00) as u16
            } else {
                (sign | (e16 << 10) | m) as u16
            }
        } else if exp >= -24 {
            // Subnormal.
            frac |= 0x0080_0000;
            let shift = (-exp - 14 + 13) as u32;
            let m = frac >> shift;
            (sign | m) as u16
        } else {
            sign as u16 // underflow -> signed zero
        }
    };
    // Back to f32.
    let s = ((half as u32) & 0x8000) << 16;
    let e = ((half as u32) >> 10) & 0x1f;
    let m = (half as u32) & 0x3ff;
    let f32bits = if e == 0 {
        if m == 0 {
            s
        } else {
            // Subnormal half.
            let mut e2 = -14i32;
            let mut m2 = m;
            while m2 & 0x400 == 0 {
                m2 <<= 1;
                e2 -= 1;
            }
            m2 &= 0x3ff;
            s | (((e2 + 127) as u32) << 23) | (m2 << 13)
        }
    } else if e == 31 {
        s | 0x7f80_0000 | (m << 13)
    } else {
        s | ((e + 112) << 23) | (m << 13)
    };
    f32::from_bits(f32bits) as f64
}

/// Quantizes a value to a storage type: integer masking/sign-extension for
/// narrow ints, f32/f16 rounding for floats.
pub fn quantize(val: Value, dtype: DType) -> Result<Value> {
    let dtype = dtype.element();
    match dtype.code {
        TypeCode::Float => {
            let v = val.as_float()?;
            Ok(Value::Float(match dtype.bits {
                16 => round_f16(v),
                32 => v as f32 as f64,
                _ => v,
            }))
        }
        TypeCode::Int | TypeCode::UInt => {
            let v = val.as_int()?;
            if dtype.bits >= 64 {
                return Ok(Value::Int(v));
            }
            let mask = (1i64 << dtype.bits) - 1;
            let low = v & mask;
            let out = if dtype.code == TypeCode::Int {
                let sign = 1i64 << (dtype.bits - 1);
                if low & sign != 0 {
                    low - (1i64 << dtype.bits)
                } else {
                    low
                }
            } else {
                low
            };
            Ok(Value::Int(out))
        }
    }
}

/// Signature of a registered hardware-intrinsic handler: receives evaluated
/// arguments and mutable access to the memory state.
pub type HwHandlerFn = Box<dyn FnMut(&[Value], &mut MemState) -> Result<Value>>;

/// One bound or allocated buffer. The flat engine addresses slots by
/// position; the walker and hardware-intrinsic handlers by variable id.
pub(crate) struct Slot {
    pub(crate) name: Arc<str>,
    pub(crate) buf: Buffer,
    /// The addressable elements are `buf[base .. base + len]`: the whole
    /// buffer, except for a per-thread allocation inside a barriered thread
    /// nest, where `buf` holds every lane's copy and the window is the
    /// running lane's.
    pub(crate) base: usize,
    pub(crate) len: usize,
}

impl Slot {
    pub(crate) fn whole(name: Arc<str>, buf: Buffer) -> Slot {
        let len = buf.len();
        Slot {
            name,
            buf,
            base: 0,
            len,
        }
    }

    /// Position of element `idx` in `buf`, or the out-of-bounds fault.
    #[inline]
    pub(crate) fn at(&self, idx: i64) -> Result<usize> {
        if (idx as u64) < self.len as u64 {
            Ok(self.base + idx as usize)
        } else {
            Err(self.out_of_bounds(idx))
        }
    }

    #[cold]
    fn out_of_bounds(&self, idx: i64) -> InterpError {
        InterpError::OutOfBounds {
            buffer: self.name.to_string(),
            index: idx,
            extent: self.len,
        }
    }

    fn load(&self, idx: i64) -> Result<Value> {
        Ok(self.buf.read(self.at(idx)?))
    }

    fn store(&mut self, idx: i64, val: Value) -> Result<()> {
        let i = self.at(idx)?;
        self.buf.write(i, val)
    }
}

/// The interpreter's buffer store, exposed to hardware-intrinsic handlers.
#[derive(Default)]
pub struct MemState {
    pub(crate) slots: Vec<Slot>,
    by_id: HashMap<VarId, usize>,
}

impl MemState {
    /// Allocates or rebinds a buffer.
    pub fn bind(&mut self, var: &Var, buf: Buffer) {
        let slot = Slot::whole(var.name().into(), buf);
        match self.by_id.get(&var.id()) {
            Some(&i) => self.slots[i] = slot,
            None => {
                self.by_id.insert(var.id(), self.slots.len());
                self.slots.push(slot);
            }
        }
    }

    /// Removes and returns a buffer.
    pub fn take(&mut self, id: VarId) -> Option<Buffer> {
        let i = self.by_id.remove(&id)?;
        for j in self.by_id.values_mut() {
            if *j > i {
                *j -= 1;
            }
        }
        Some(self.slots.remove(i).buf)
    }

    /// Immutable access.
    pub fn get(&self, id: VarId) -> Option<&Buffer> {
        self.by_id.get(&id).map(|&i| &self.slots[i].buf)
    }

    /// Loads an element.
    pub fn load(&self, id: VarId, idx: i64) -> Result<Value> {
        match self.by_id.get(&id) {
            Some(&i) => self.slots[i].load(idx),
            None => Err(InterpError::UnknownBuffer("?".to_string())),
        }
    }

    /// Stores an element (with dtype quantization).
    pub fn store(&mut self, id: VarId, idx: i64, val: Value) -> Result<()> {
        match self.by_id.get(&id) {
            Some(&i) => self.slots[i].store(idx, val),
            None => Err(InterpError::UnknownBuffer("?".to_string())),
        }
    }

    /// Names slot `slot` as `id` for the handlers ([`MemState::load`] /
    /// [`MemState::store`]); the flat engine calls it for the handles it
    /// passes to a hardware intrinsic.
    pub(crate) fn alias(&mut self, id: VarId, slot: usize) {
        self.by_id.insert(id, slot);
    }
}

/// Per-thread buffer key: buffer id plus the thread coordinates that own it.
type ThreadBufKey = (VarId, Vec<i64>);

/// The interpreter.
#[derive(Default)]
pub struct Interp {
    /// The walker's global memory state (externally bound + global
    /// allocations). A flat run builds its own.
    pub mem: MemState,
    env: HashMap<VarId, Value>,
    hw: HashMap<String, HwHandlerFn>,
    // Phased-execution state.
    thread_coords: Vec<i64>,
    thread_bufs: HashMap<ThreadBufKey, Buffer>,
    thread_buf_names: HashMap<VarId, String>,
    phase: Option<(u64, u64)>, // (current barrier counter, active phase)
    stores: u64,
}

impl Interp {
    /// Fresh interpreter.
    pub fn new() -> Self {
        Interp::default()
    }

    /// Registers a handler for a hardware intrinsic name.
    pub fn register_hw(&mut self, name: impl Into<String>, f: HwHandlerFn) {
        self.hw.insert(name.into(), f);
    }

    /// Binds a scalar parameter.
    pub fn bind_scalar(&mut self, var: &Var, val: Value) {
        self.env.insert(var.id(), val);
    }

    /// Total number of stores executed — a cheap dynamic-work proxy used by
    /// tests.
    pub fn store_count(&self) -> u64 {
        self.stores
    }

    /// Runs a lowered function with buffers bound positionally: compiles
    /// it to a flat [`Program`] and executes that.
    ///
    /// `buffers` must match `func.params` order; contents are moved in and
    /// the (possibly updated) buffers are returned in the same order.
    pub fn run(&mut self, func: &LoweredFunc, buffers: Vec<Buffer>) -> Result<Vec<Buffer>> {
        check_param_count(&func.name, func.params.len(), buffers.len())?;
        let kinds: Vec<(Storage, DType)> = buffers
            .iter()
            .map(|b| (b.data.storage(), b.dtype))
            .collect();
        let program = Program::compile(func, &kinds, &self.env);
        let (result, buffers) = self.execute(&program, buffers);
        result.map(|()| buffers)
    }

    /// Convenience wrapper: run with f32 arrays, all `float32` buffers. The
    /// arrays are read and written in place; after an error their contents
    /// are whatever the program had stored by then.
    pub fn run_f32(&mut self, func: &LoweredFunc, arrays: &mut [Vec<f32>]) -> Result<()> {
        check_param_count(&func.name, func.params.len(), arrays.len())?;
        let kinds = vec![(Storage::F32, DType::float32()); arrays.len()];
        let program = Program::compile(func, &kinds, &self.env);
        self.run_compiled(&program, arrays)
    }

    /// [`Interp::run_f32`] with a program compiled earlier by
    /// [`Program::compile_f32`], so a kernel that runs many times is
    /// lowered once. Scalars bound with [`Interp::bind_scalar`] are not
    /// consulted: they were constants of the compilation.
    pub fn run_compiled(&mut self, program: &Program, arrays: &mut [Vec<f32>]) -> Result<()> {
        check_param_count(program.name(), program.param_count(), arrays.len())?;
        if !program.takes_f32_arrays() {
            return Err(InterpError::Malformed(format!(
                "program `{}` was not compiled for float32 arrays",
                program.name()
            )));
        }
        let buffers = arrays
            .iter_mut()
            .map(|a| Buffer {
                dtype: DType::float32(),
                data: Data::F32(std::mem::take(a)),
            })
            .collect();
        let (result, buffers) = self.execute(program, buffers);
        for (array, buf) in arrays.iter_mut().zip(buffers) {
            if let Data::F32(v) = buf.data {
                *array = v;
            }
        }
        result
    }

    /// Executes `program` on `buffers` and hands them back, also after a
    /// fault.
    fn execute(&mut self, program: &Program, buffers: Vec<Buffer>) -> (Result<()>, Vec<Buffer>) {
        let mut mem = MemState::default();
        let (result, stores) = program.execute(buffers, &mut mem, &mut self.hw);
        self.stores += stores;
        let params = program.param_count();
        (
            result,
            mem.slots.drain(..params).map(|slot| slot.buf).collect(),
        )
    }

    /// The tree walker's `run`: the oracle the flat engine is tested
    /// against (parity tests and the differential fuzzer), and nothing
    /// else's way to execute a function.
    pub fn run_reference(
        &mut self,
        func: &LoweredFunc,
        buffers: Vec<Buffer>,
    ) -> Result<Vec<Buffer>> {
        check_param_count(&func.name, func.params.len(), buffers.len())?;
        for (var, buf) in func.params.iter().zip(buffers) {
            self.mem.bind(var, buf);
        }
        self.exec(&func.body)?;
        let mut out = Vec::with_capacity(func.params.len());
        for var in &func.params {
            out.push(
                self.mem
                    .take(var.id())
                    .ok_or_else(|| InterpError::UnknownBuffer(var.name().to_string()))?,
            );
        }
        Ok(out)
    }

    fn effects_active(&self) -> bool {
        match self.phase {
            None => true,
            Some((counter, active)) => counter == active,
        }
    }

    /// Evaluates an expression.
    pub fn eval(&mut self, e: &Expr) -> Result<Value> {
        use ExprNode::*;
        match &*e.0 {
            IntImm { value, .. } => Ok(Value::Int(*value)),
            FloatImm { value, .. } => Ok(Value::Float(*value)),
            StringImm(_) => Err(InterpError::Unsupported("string immediate".into())),
            Var(v) => {
                if let Some(val) = self.env.get(&v.id()) {
                    Ok(*val)
                } else if self.lookup_buffer(v.id()).is_some() {
                    Ok(Value::Handle(v.id()))
                } else {
                    Err(InterpError::UnboundVar(v.name().to_string()))
                }
            }
            Cast { dtype, value } => {
                let v = self.eval(value)?;
                if dtype.is_int() {
                    quantize(Value::Int(cast_to_int(v)?), *dtype)
                } else {
                    quantize(Value::Float(v.as_float()?), *dtype)
                }
            }
            Binary { op, a, b } => {
                let va = self.eval(a)?;
                let vb = self.eval(b)?;
                eval_binop(*op, va, vb, a.dtype().is_float())
            }
            Cmp { op, a, b } => {
                let va = self.eval(a)?;
                let vb = self.eval(b)?;
                let r = if a.dtype().is_float() {
                    let (x, y) = (va.as_float()?, vb.as_float()?);
                    match op {
                        CmpOp::Eq => x == y,
                        CmpOp::Ne => x != y,
                        CmpOp::Lt => x < y,
                        CmpOp::Le => x <= y,
                        CmpOp::Gt => x > y,
                        CmpOp::Ge => x >= y,
                    }
                } else {
                    let (x, y) = (va.as_int()?, vb.as_int()?);
                    match op {
                        CmpOp::Eq => x == y,
                        CmpOp::Ne => x != y,
                        CmpOp::Lt => x < y,
                        CmpOp::Le => x <= y,
                        CmpOp::Gt => x > y,
                        CmpOp::Ge => x >= y,
                    }
                };
                Ok(Value::Int(r as i64))
            }
            And { a, b } => Ok(Value::Int(
                (self.eval(a)?.truthy()? && self.eval(b)?.truthy()?) as i64,
            )),
            Or { a, b } => Ok(Value::Int(
                (self.eval(a)?.truthy()? || self.eval(b)?.truthy()?) as i64,
            )),
            Not { a } => Ok(Value::Int(!self.eval(a)?.truthy()? as i64)),
            Select {
                cond,
                then_case,
                else_case,
            } => {
                if self.eval(cond)?.truthy()? {
                    self.eval(then_case)
                } else {
                    self.eval(else_case)
                }
            }
            Load {
                buffer,
                index,
                predicate,
            } => {
                if let Some(p) = predicate {
                    if !self.eval(p)?.truthy()? {
                        return Ok(Value::zero_of(buffer.dtype()));
                    }
                }
                let idx = self.eval(index)?.as_int()?;
                self.load_any(buffer.id(), idx, buffer.name())
            }
            Ramp { .. } | Broadcast { .. } => Err(InterpError::Unsupported(
                "vector value (run pre-vectorized IR)".into(),
            )),
            Let { var, value, body } => {
                let v = self.eval(value)?;
                let old = self.env.insert(var.id(), v);
                let r = self.eval(body);
                match old {
                    Some(o) => {
                        self.env.insert(var.id(), o);
                    }
                    None => {
                        self.env.remove(&var.id());
                    }
                }
                r
            }
            Call {
                name,
                args,
                kind,
                dtype,
            } => {
                let vals: Vec<Value> = args.iter().map(|a| self.eval(a)).collect::<Result<_>>()?;
                match kind {
                    CallKind::PureIntrinsic => eval_pure_intrinsic(name, &vals, *dtype),
                    CallKind::HardwareIntrinsic => {
                        if !self.effects_active() {
                            return Ok(Value::Int(0));
                        }
                        let mut f = self
                            .hw
                            .remove(name)
                            .ok_or_else(|| InterpError::UnknownIntrinsic(name.clone()))?;
                        let r = f(&vals, &mut self.mem);
                        self.hw.insert(name.clone(), f);
                        r
                    }
                }
            }
        }
    }

    fn lookup_buffer(&self, id: VarId) -> Option<&Buffer> {
        // Thread-local buffers shadow globals; search from the innermost
        // coordinate prefix outwards.
        for n in (0..=self.thread_coords.len()).rev() {
            let key = (id, self.thread_coords[..n].to_vec());
            if let Some(b) = self.thread_bufs.get(&key) {
                return Some(b);
            }
        }
        self.mem.get(id)
    }

    fn load_any(&mut self, id: VarId, idx: i64, name: &str) -> Result<Value> {
        for n in (0..=self.thread_coords.len()).rev() {
            let key = (id, self.thread_coords[..n].to_vec());
            if let Some(b) = self.thread_bufs.get(&key) {
                return b.get(idx, name);
            }
        }
        self.mem.load(id, idx)
    }

    fn store_any(&mut self, id: VarId, idx: i64, val: Value, name: &str) -> Result<()> {
        self.stores += 1;
        for n in (0..=self.thread_coords.len()).rev() {
            let key = (id, self.thread_coords[..n].to_vec());
            if self.thread_bufs.contains_key(&key) {
                let b = self.thread_bufs.get_mut(&key).expect("checked");
                return b.set(idx, val, name);
            }
        }
        self.mem.store(id, idx, val)
    }

    /// Executes a statement.
    pub fn exec(&mut self, s: &Stmt) -> Result<()> {
        use StmtNode::*;
        match &*s.0 {
            LetStmt { var, value, body } => {
                let v = self.eval(value)?;
                let old = self.env.insert(var.id(), v);
                let r = self.exec(body);
                match old {
                    Some(o) => {
                        self.env.insert(var.id(), o);
                    }
                    None => {
                        self.env.remove(&var.id());
                    }
                }
                r
            }
            AttrStmt { body, .. } => self.exec(body),
            Store {
                buffer,
                index,
                value,
                predicate,
            } => {
                if let Some(p) = predicate {
                    if !self.eval(p)?.truthy()? {
                        return Ok(());
                    }
                }
                let idx = self.eval(index)?.as_int()?;
                let val = self.eval(value)?;
                if self.effects_active() {
                    self.store_any(buffer.id(), idx, val, buffer.name())?;
                }
                Ok(())
            }
            Allocate {
                buffer,
                dtype,
                extent,
                body,
                ..
            } => {
                let n = self.eval(extent)?.as_int()?.max(0) as usize;
                let inside_phased = self.phase.is_some();
                let key = (buffer.id(), self.thread_coords.clone());
                self.thread_buf_names
                    .insert(buffer.id(), buffer.name().to_string());
                if inside_phased {
                    // Persist across phases for a given thread; create once.
                    self.thread_bufs
                        .entry(key)
                        .or_insert_with(|| Buffer::zeros(*dtype, n));
                    self.exec(body)
                } else if self.thread_coords.is_empty() {
                    // Outside any thread nest: bind in global memory state
                    // so hardware-intrinsic handlers can address it.
                    let prev = self.mem.take(buffer.id());
                    self.mem.bind(buffer, Buffer::zeros(*dtype, n));
                    let r = self.exec(body);
                    self.mem.take(buffer.id());
                    if let Some(p) = prev {
                        self.mem.bind(buffer, p);
                    }
                    r
                } else {
                    self.thread_bufs
                        .insert(key.clone(), Buffer::zeros(*dtype, n));
                    let r = self.exec(body);
                    self.thread_bufs.remove(&key);
                    r
                }
            }
            For {
                var,
                min,
                extent,
                kind,
                body,
            } => {
                let lo = self.eval(min)?.as_int()?;
                let n = self.eval(extent)?.as_int()?;
                match kind {
                    ForKind::ThreadBinding(tag) if !tag.is_block() => {
                        self.exec_thread_nest(s.clone())
                    }
                    _ => {
                        // Serial/parallel/vectorized/unrolled/vthread/block
                        // loops all have sequential semantics here.
                        let _ = (var, body);
                        for i in lo..lo + n {
                            let old = self.env.insert(var.id(), Value::Int(i));
                            let r = self.exec(body);
                            match old {
                                Some(o) => {
                                    self.env.insert(var.id(), o);
                                }
                                None => {
                                    self.env.remove(&var.id());
                                }
                            }
                            r?;
                        }
                        Ok(())
                    }
                }
            }
            Seq(stmts) => {
                for st in stmts {
                    self.exec(st)?;
                }
                Ok(())
            }
            IfThenElse {
                cond,
                then_case,
                else_case,
            } => {
                if self.eval(cond)?.truthy()? {
                    self.exec(then_case)
                } else if let Some(e) = else_case {
                    self.exec(e)
                } else {
                    Ok(())
                }
            }
            Evaluate(e) => {
                self.eval(e)?;
                Ok(())
            }
            Barrier => {
                if let Some((counter, _)) = &mut self.phase {
                    *counter += 1;
                }
                Ok(())
            }
            PushDep { .. } | PopDep { .. } => Ok(()), // timing-only; no data effect
        }
    }

    /// Executes a nest of thread-bound loops with barrier-phase semantics.
    fn exec_thread_nest(&mut self, root: Stmt) -> Result<()> {
        // Collect the consecutive thread-bound loops.
        let mut axes: Vec<(Var, i64, i64)> = Vec::new();
        let mut cur = root;
        let body = loop {
            let next = match &*cur.0 {
                StmtNode::For {
                    var,
                    min,
                    extent,
                    kind: ForKind::ThreadBinding(tag),
                    body,
                } if !tag.is_block() => {
                    let lo = self.eval(min)?.as_int()?;
                    let n = self.eval(extent)?.as_int()?;
                    axes.push((var.clone(), lo, n));
                    body.clone()
                }
                _ => break cur,
            };
            cur = next;
        };
        let num_barriers = self.count_barriers(&body)?;
        if num_barriers == 0 {
            // No synchronization: plain serial execution is equivalent.
            return self.run_thread_combos(&axes, &body, None);
        }
        for phase in 0..=num_barriers {
            self.run_thread_combos(&axes, &body, Some(phase))?;
        }
        // Free per-thread buffers created inside the nest.
        self.thread_bufs
            .retain(|(_, coords), _| coords.len() < axes.len());
        Ok(())
    }

    fn run_thread_combos(
        &mut self,
        axes: &[(Var, i64, i64)],
        body: &Stmt,
        phase: Option<u64>,
    ) -> Result<()> {
        let total: i64 = axes.iter().map(|(_, _, n)| *n).product();
        for flat in 0..total {
            let mut rem = flat;
            let mut coords = Vec::with_capacity(axes.len());
            // Row-major thread enumeration.
            for (_, lo, n) in axes {
                let extent_rest: i64 = axes[coords.len() + 1..]
                    .iter()
                    .map(|(_, _, m)| *m)
                    .product();
                let i = lo + (rem / extent_rest.max(1)) % n;
                rem %= extent_rest.max(1);
                coords.push(i);
            }
            let saved_coords = std::mem::take(&mut self.thread_coords);
            let mut full = saved_coords.clone();
            full.extend(&coords);
            self.thread_coords = full;
            let olds: Vec<Option<Value>> = axes
                .iter()
                .zip(&coords)
                .map(|((v, _, _), &i)| self.env.insert(v.id(), Value::Int(i)))
                .collect();
            let saved_phase = self.phase;
            if let Some(p) = phase {
                self.phase = Some((0, p));
            }
            let r = self.exec(body);
            self.phase = saved_phase;
            for ((v, _, _), old) in axes.iter().zip(olds) {
                match old {
                    Some(o) => {
                        self.env.insert(v.id(), o);
                    }
                    None => {
                        self.env.remove(&v.id());
                    }
                }
            }
            self.thread_coords = saved_coords;
            r?;
        }
        Ok(())
    }

    /// Statically counts barriers executed by one thread running `s`.
    fn count_barriers(&mut self, s: &Stmt) -> Result<u64> {
        use StmtNode::*;
        Ok(match &*s.0 {
            Barrier => 1,
            For {
                var,
                min,
                extent,
                body,
                ..
            } => {
                let lo = self.eval(min)?.as_int()?;
                let n = self.eval(extent)?.as_int()?;
                if n <= 0 {
                    return Ok(0);
                }
                // The count may depend on the loop var only if barriers sit
                // inside data-dependent ifs, which we reject; evaluate the
                // body count once with the first index bound.
                let old = self.env.insert(var.id(), Value::Int(lo));
                let per = self.count_barriers(body)?;
                match old {
                    Some(o) => {
                        self.env.insert(var.id(), o);
                    }
                    None => {
                        self.env.remove(&var.id());
                    }
                }
                per * n as u64
            }
            Seq(stmts) => {
                let mut t = 0;
                for st in stmts {
                    t += self.count_barriers(st)?;
                }
                t
            }
            IfThenElse {
                then_case,
                else_case,
                ..
            } => {
                let a = self.count_barriers(then_case)?;
                let b = match else_case {
                    Some(e) => self.count_barriers(e)?,
                    None => 0,
                };
                if a != b {
                    return Err(InterpError::Malformed(
                        "barrier count diverges across branches".into(),
                    ));
                }
                a
            }
            LetStmt { body, .. } | AttrStmt { body, .. } | Allocate { body, .. } => {
                self.count_barriers(body)?
            }
            _ => 0,
        })
    }
}

fn check_param_count(name: &str, expected: usize, got: usize) -> Result<()> {
    if expected == got {
        return Ok(());
    }
    Err(InterpError::Malformed(format!(
        "function `{name}` expects {expected} params, got {got}"
    )))
}

impl Value {
    fn zero_of(dtype: DType) -> Value {
        if dtype.is_float() {
            Value::Float(0.0)
        } else {
            Value::Int(0)
        }
    }
}

fn cast_to_int(v: Value) -> Result<i64> {
    match v {
        Value::Int(x) => Ok(x),
        Value::Float(x) => Ok(x.floor() as i64),
        Value::Handle(_) => Err(InterpError::Unsupported("handle cast".into())),
    }
}

fn eval_binop(op: BinOp, a: Value, b: Value, float: bool) -> Result<Value> {
    if float {
        let (x, y) = (a.as_float()?, b.as_float()?);
        let r = match op {
            BinOp::Add => x + y,
            BinOp::Sub => x - y,
            BinOp::Mul => x * y,
            BinOp::Div => x / y,
            BinOp::Mod => x.rem_euclid(y),
            BinOp::Min => x.min(y),
            BinOp::Max => x.max(y),
            _ => return Err(InterpError::Unsupported("bitwise op on float".into())),
        };
        Ok(Value::Float(r))
    } else {
        let (x, y) = (a.as_int()?, b.as_int()?);
        let r = match op {
            BinOp::Add => x.wrapping_add(y),
            BinOp::Sub => x.wrapping_sub(y),
            BinOp::Mul => x.wrapping_mul(y),
            BinOp::Div => {
                if y == 0 {
                    return Err(InterpError::DivideByZero);
                }
                floor_div(x, y)
            }
            BinOp::Mod => {
                if y == 0 {
                    return Err(InterpError::DivideByZero);
                }
                floor_mod(x, y)
            }
            BinOp::Min => x.min(y),
            BinOp::Max => x.max(y),
            BinOp::BitAnd => x & y,
            BinOp::BitOr => x | y,
            BinOp::BitXor => x ^ y,
            BinOp::Shl => x.wrapping_shl(y as u32),
            BinOp::Shr => x.wrapping_shr(y as u32),
        };
        Ok(Value::Int(r))
    }
}

fn eval_pure_intrinsic(name: &str, args: &[Value], dtype: DType) -> Result<Value> {
    let unary = |f: fn(f64) -> f64| -> Result<Value> {
        Ok(Value::Float(f(args
            .first()
            .ok_or_else(|| InterpError::Malformed("missing intrinsic arg".into()))?
            .as_float()?)))
    };
    match name {
        "exp" => unary(f64::exp),
        "log" => unary(f64::ln),
        "sqrt" => unary(f64::sqrt),
        "tanh" => unary(f64::tanh),
        "sigmoid" => unary(|x| 1.0 / (1.0 + (-x).exp())),
        "abs" => {
            if dtype.is_float() {
                unary(f64::abs)
            } else {
                Ok(Value::Int(args[0].as_int()?.abs()))
            }
        }
        "floor" => unary(f64::floor),
        "round" => unary(f64::round),
        "pow" => {
            let a = args[0].as_float()?;
            let b = args[1].as_float()?;
            Ok(Value::Float(a.powf(b)))
        }
        "popcount" => Ok(Value::Int(args[0].as_int()?.count_ones() as i64)),
        other => Err(InterpError::UnknownIntrinsic(other.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stmt::{MemScope, ThreadTag};

    fn f32_func(name: &str, params: Vec<Var>, extents: Vec<usize>, body: Stmt) -> LoweredFunc {
        let n = params.len();
        LoweredFunc {
            name: name.into(),
            params,
            param_dtypes: vec![DType::float32(); n],
            param_extents: extents,
            body,
        }
    }

    #[test]
    fn vector_add_executes() {
        let a = Var::new("A", DType::float32());
        let b = Var::new("B", DType::float32());
        let c = Var::new("C", DType::float32());
        let i = Var::int("i");
        let body = Stmt::for_(
            &i,
            0,
            8,
            Stmt::store(
                &c,
                i.to_expr(),
                Expr::load(&a, i.to_expr()) + Expr::load(&b, i.to_expr()),
            ),
        );
        let f = f32_func("add", vec![a, b, c], vec![8, 8, 8], body);
        let mut arrays = vec![
            (0..8).map(|x| x as f32).collect::<Vec<_>>(),
            (0..8).map(|x| (x * 10) as f32).collect(),
            vec![0.0; 8],
        ];
        Interp::new().run_f32(&f, &mut arrays).expect("run ok");
        assert_eq!(
            arrays[2],
            vec![0.0, 11.0, 22.0, 33.0, 44.0, 55.0, 66.0, 77.0]
        );
    }

    #[test]
    fn out_of_bounds_is_reported() {
        let a = Var::new("A", DType::float32());
        let body = Stmt::store(&a, Expr::int(9), Expr::f32(1.0));
        let f = f32_func("oob", vec![a], vec![4], body);
        let err = Interp::new().run_f32(&f, &mut [vec![0.0; 4]]).unwrap_err();
        assert!(matches!(err, InterpError::OutOfBounds { .. }));
    }

    #[test]
    fn f16_rounding() {
        assert_eq!(round_f16(1.0), 1.0);
        assert_eq!(round_f16(0.5), 0.5);
        // 1/3 is inexact in half precision.
        let r = round_f16(1.0 / 3.0);
        assert!((r - 1.0 / 3.0).abs() > 1e-6);
        assert!((r - 1.0 / 3.0).abs() < 1e-3);
        assert!(round_f16(1e9).is_infinite());
        assert_eq!(round_f16(-0.0), 0.0);
    }

    #[test]
    fn quantize_uint2_wraps() {
        assert_eq!(
            quantize(Value::Int(5), DType::uint(2)).unwrap(),
            Value::Int(1)
        );
        assert_eq!(
            quantize(Value::Int(-1), DType::uint(2)).unwrap(),
            Value::Int(3)
        );
        assert_eq!(
            quantize(Value::Int(130), DType::int8()).unwrap(),
            Value::Int(-126)
        );
    }

    #[test]
    fn phased_barrier_execution_sees_sibling_stores() {
        // Cooperative pattern: each thread t writes S[t], barrier, then each
        // thread reads S[(t+1) % N]. Serial execution without phasing would
        // read stale data for the last thread.
        let n = 4i64;
        let s = Var::new("S", DType::float32());
        let out = Var::new("O", DType::float32());
        let t = Var::int("t");
        let write = Stmt::store(&s, t.to_expr(), t.clone() * 10);
        let read = Stmt::store(&out, t.to_expr(), Expr::load(&s, (t.clone() + 1) % n));
        let body = Stmt::seq(vec![write, Stmt::new(StmtNode::Barrier), read]);
        let threads = Stmt::loop_(
            &t,
            0,
            n,
            ForKind::ThreadBinding(ThreadTag::ThreadIdxX),
            body,
        );
        let kernel = Stmt::allocate(&s, DType::float32(), n, MemScope::Shared, threads);
        let f = f32_func("coop", vec![out], vec![n as usize], kernel);
        let mut arrays = vec![vec![0.0f32; n as usize]];
        Interp::new().run_f32(&f, &mut arrays).expect("run ok");
        assert_eq!(arrays[0], vec![10.0, 20.0, 30.0, 0.0]);
    }

    #[test]
    fn local_accumulator_persists_across_phases() {
        // acc[0] += k across a barriered k-loop; correct only if the local
        // allocation persists across phases for each thread.
        let acc = Var::new("acc", DType::float32());
        let out = Var::new("O", DType::float32());
        let t = Var::int("t");
        let k = Var::int("k");
        let init = Stmt::store(&acc, Expr::int(0), Expr::f32(0.0));
        let update = Stmt::store(
            &acc,
            Expr::int(0),
            Expr::load(&acc, Expr::int(0)) + k.to_expr().cast(DType::float32()),
        );
        let kloop = Stmt::for_(
            &k,
            0,
            4,
            Stmt::seq(vec![Stmt::new(StmtNode::Barrier), update]),
        );
        let writeback = Stmt::store(&out, t.to_expr(), Expr::load(&acc, Expr::int(0)));
        let body = Stmt::allocate(
            &acc,
            DType::float32(),
            1,
            MemScope::Local,
            Stmt::seq(vec![init, kloop, writeback]),
        );
        let threads = Stmt::loop_(
            &t,
            0,
            2,
            ForKind::ThreadBinding(ThreadTag::ThreadIdxX),
            body,
        );
        let f = f32_func("accum", vec![out], vec![2], threads);
        let mut arrays = vec![vec![0.0f32; 2]];
        Interp::new().run_f32(&f, &mut arrays).expect("run ok");
        assert_eq!(arrays[0], vec![6.0, 6.0]);
    }

    #[test]
    fn pure_intrinsics() {
        let mut it = Interp::new();
        let e = Expr::call("exp", vec![Expr::f32(0.0)], DType::float32());
        assert_eq!(it.eval(&e).unwrap().as_float().unwrap(), 1.0);
        let e = Expr::call("popcount", vec![Expr::int(0b1011)], DType::int32());
        assert_eq!(it.eval(&e).unwrap().as_int().unwrap(), 3);
    }

    #[test]
    fn hw_intrinsic_dispatch() {
        let a = Var::new("A", DType::float32());
        let mut it = Interp::new();
        it.register_hw(
            "fill7",
            Box::new(|args: &[Value], mem: &mut MemState| {
                if let Value::Handle(id) = args[0] {
                    mem.store(id, 0, Value::Float(7.0))?;
                }
                Ok(Value::Int(0))
            }),
        );
        let body = Stmt::evaluate(Expr::hw_call("fill7", vec![a.to_expr()], DType::int32()));
        let f = f32_func("hw", vec![a], vec![1], body);
        let mut arrays = vec![vec![0.0f32]];
        it.run_f32(&f, &mut arrays).expect("run ok");
        assert_eq!(arrays[0][0], 7.0);
    }
}
