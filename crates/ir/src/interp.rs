//! Interpreter for lowered loop programs.
//!
//! [`Interp::run`] / [`Interp::run_f32`] lower the function once into a
//! flat register program ([`crate::flat::Program`]) and execute that; it is
//! the one engine in this crate, and what every caller — the graph
//! executor, the serving layer, the fuzzer — runs. This module holds what
//! the engine shares with its callers and hardware-intrinsic handlers:
//! [`Buffer`], [`MemState`], [`Value`] and the store rounding
//! ([`quantize`], [`round_f16`]).
//!
//! GPU semantics: loops bound to block axes are independent and run
//! serially; loops bound to thread axes whose body contains barriers are
//! executed in *phases* — every thread runs the region between consecutive
//! barriers before any thread proceeds past the barrier, which is exactly
//! the synchronization contract `memory_barrier_among_threads()` provides
//! on real hardware (§4.2). The oracle the engine is tested against, a
//! tree walker that states those semantics node by node, is
//! `tvm_verify::reference`.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crate::dtype::{DType, TypeCode};
use crate::expr::{Var, VarId};
use crate::flat::{Program, Storage};
use crate::stmt::LoweredFunc;

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

    /// Element `idx`, or the out-of-bounds fault naming the buffer `name`.
    pub fn get(&self, idx: i64, name: &str) -> Result<Value> {
        Ok(self.read(self.check(idx, name)?))
    }

    /// Stores `val` at `idx`, rounded to the buffer's dtype, or raises the
    /// out-of-bounds fault naming the buffer `name`.
    pub fn set(&mut self, idx: i64, val: Value, name: &str) -> Result<()> {
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
/// position, hardware-intrinsic handlers by variable id.
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

/// The interpreter: what a run needs besides the function and its
/// buffers.
#[derive(Default)]
pub struct Interp {
    /// Scalars bound with [`Interp::bind_scalar`]: constants of every
    /// compilation.
    env: HashMap<VarId, Value>,
    hw: HashMap<String, HwHandlerFn>,
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
    pub fn run(&mut self, func: &LoweredFunc, mut buffers: Vec<Buffer>) -> Result<Vec<Buffer>> {
        self.run_in_place(func, &mut buffers).map(|()| buffers)
    }

    /// [`Interp::run`] on buffers it reads and writes in place; after an
    /// error their contents are whatever the program had stored by then.
    pub fn run_in_place(&mut self, func: &LoweredFunc, buffers: &mut Vec<Buffer>) -> Result<()> {
        check_param_count(&func.name, func.params.len(), buffers.len())?;
        let kinds: Vec<(Storage, DType)> = buffers
            .iter()
            .map(|b| (b.data.storage(), b.dtype))
            .collect();
        let program = Program::compile(func, &kinds, &self.env);
        let (result, out) = self.execute(&program, std::mem::take(buffers));
        *buffers = out;
        result
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
}

/// The fault for a call of function `name` with `got` buffers where it
/// takes `expected`.
pub fn check_param_count(name: &str, expected: usize, got: usize) -> Result<()> {
    if expected == got {
        return Ok(());
    }
    Err(InterpError::Malformed(format!(
        "function `{name}` expects {expected} params, got {got}"
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::stmt::{ForKind, MemScope, Stmt, StmtNode, ThreadTag};

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
