//! The reference tree walker: the oracle the flat engine
//! ([`tvm_ir::Interp`]) is checked against, and nothing else's way to run a
//! function. It evaluates the loop IR node by node, as written, so it is
//! the readable statement of what a lowered program means.
//!
//! GPU semantics: loops bound to block axes are independent and run
//! serially; loops bound to thread axes whose body contains barriers are
//! executed in *phases* — every thread runs the region between consecutive
//! barriers before any thread proceeds past the barrier, which is exactly
//! the synchronization contract `memory_barrier_among_threads()` provides
//! on real hardware (§4.2). The walker replays the whole nest once per
//! phase, and only the phase's own stores and hardware calls take effect.
//!
//! Two doors lead in: [`crate::run_both`], which runs a function here and
//! in the flat engine and compares, and [`eval_int`], the concrete value
//! every expression oracle checks a symbolic result against.

use std::collections::HashMap;

use tvm_ir::interp::{check_param_count, quantize, HwHandlerFn, Result};
use tvm_ir::{
    floor_div, floor_mod, BinOp, Buffer, CallKind, CmpOp, DType, Expr, ExprNode, ForKind, Interp,
    InterpError, LoweredFunc, MemState, Stmt, StmtNode, Value, Var, VarId,
};

/// What a run's setup may do to either engine before it runs: bind
/// scalars and register hardware-intrinsic handlers. [`crate::run_both`]
/// calls its setup hook once on each engine.
pub trait Engine {
    /// Binds a scalar parameter.
    fn bind_scalar(&mut self, var: &Var, val: Value);
    /// Registers a handler for a hardware intrinsic name.
    fn register_hw(&mut self, name: &str, f: HwHandlerFn);
}

impl Engine for Interp {
    fn bind_scalar(&mut self, var: &Var, val: Value) {
        Interp::bind_scalar(self, var, val);
    }

    fn register_hw(&mut self, name: &str, f: HwHandlerFn) {
        Interp::register_hw(self, name, f);
    }
}

/// Per-thread buffer key: buffer id plus the thread coordinates that own it.
type ThreadBufKey = (VarId, Vec<i64>);

/// The tree walker.
#[derive(Default)]
pub(crate) struct Walker {
    /// Global memory: the bound parameters and the allocations made
    /// outside any thread nest.
    mem: MemState,
    env: HashMap<VarId, Value>,
    hw: HashMap<String, HwHandlerFn>,
    /// Coordinates of the running thread, outermost nest first.
    thread_coords: Vec<i64>,
    /// Allocations made inside a thread nest, one per owning thread.
    thread_bufs: HashMap<ThreadBufKey, Buffer>,
    /// Inside a barriered nest: (barriers passed, phase that takes effect).
    phase: Option<(u64, u64)>,
    /// Stores executed so far.
    pub(crate) stores: u64,
}

impl Engine for Walker {
    fn bind_scalar(&mut self, var: &Var, val: Value) {
        self.env.insert(var.id(), val);
    }

    fn register_hw(&mut self, name: &str, f: HwHandlerFn) {
        self.hw.insert(name.to_string(), f);
    }
}

/// The walker's value of the integer expression `e`, each variable of
/// `bindings` bound to its value: the concrete side of every expression
/// oracle (simplifier, interval analysis, floor division).
pub fn eval_int(e: &Expr, bindings: &[(Var, i64)]) -> Result<i64> {
    let mut walker = Walker::default();
    for (var, x) in bindings {
        walker.bind_scalar(var, Value::Int(*x));
    }
    walker.eval(e)?.as_int()
}

impl Walker {
    /// Runs `func` on `buffers` (in `func.params` order), which it reads
    /// and writes in place, also up to a fault.
    pub(crate) fn run(&mut self, func: &LoweredFunc, buffers: &mut Vec<Buffer>) -> Result<()> {
        check_param_count(&func.name, func.params.len(), buffers.len())?;
        for (var, buf) in func.params.iter().zip(buffers.drain(..)) {
            self.mem.bind(var, buf);
        }
        let result = self.exec(&func.body);
        for var in &func.params {
            let buf = self.mem.take(var.id());
            buffers.push(buf.ok_or_else(|| InterpError::UnknownBuffer(var.name().to_string()))?);
        }
        result
    }

    fn effects_active(&self) -> bool {
        self.phase.is_none_or(|(counter, active)| counter == active)
    }

    /// Runs `f` with `var` bound to `val`, restoring what it shadowed.
    fn with_binding<R>(&mut self, var: &Var, val: Value, f: impl FnOnce(&mut Self) -> R) -> R {
        let old = self.env.insert(var.id(), val);
        let r = f(self);
        match old {
            Some(o) => self.env.insert(var.id(), o),
            None => self.env.remove(&var.id()),
        };
        r
    }

    fn eval(&mut self, e: &Expr) -> Result<Value> {
        use ExprNode::*;
        match &*e.0 {
            IntImm { value, .. } => Ok(Value::Int(*value)),
            FloatImm { value, .. } => Ok(Value::Float(*value)),
            StringImm(_) => Err(InterpError::Unsupported("string immediate".into())),
            Var(v) => {
                if let Some(val) = self.env.get(&v.id()) {
                    Ok(*val)
                } else if self.thread_key(v.id()).is_some() || self.mem.get(v.id()).is_some() {
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
            Binary { op, a, b, .. } => {
                let va = self.eval(a)?;
                let vb = self.eval(b)?;
                eval_binop(*op, va, vb, a.dtype().is_float())
            }
            Cmp { op, a, b } => {
                let va = self.eval(a)?;
                let vb = self.eval(b)?;
                let r = if a.dtype().is_float() {
                    compare(*op, va.as_float()?, vb.as_float()?)
                } else {
                    compare(*op, va.as_int()?, vb.as_int()?)
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
                        return Ok(zero_of(buffer.dtype()));
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
                self.with_binding(var, v, |w| w.eval(body))
            }
            Call {
                name,
                args,
                kind,
                dtype,
            } => {
                let vals: Vec<Value> = args.iter().map(|a| self.eval(a)).collect::<Result<_>>()?;
                match kind {
                    CallKind::PureIntrinsic => {
                        eval_pure_intrinsic(name, &vals, args.first().map(Expr::dtype), *dtype)
                    }
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

    /// The per-thread buffer `id` visible to the running thread: thread-local
    /// buffers shadow globals, searched from the innermost coordinate prefix
    /// outwards.
    fn thread_key(&self, id: VarId) -> Option<ThreadBufKey> {
        (0..=self.thread_coords.len())
            .rev()
            .map(|n| (id, self.thread_coords[..n].to_vec()))
            .find(|key| self.thread_bufs.contains_key(key))
    }

    fn load_any(&mut self, id: VarId, idx: i64, name: &str) -> Result<Value> {
        let key = self.thread_key(id);
        match key.and_then(|key| self.thread_bufs.get(&key)) {
            Some(buf) => buf.get(idx, name),
            None => self.mem.load(id, idx),
        }
    }

    fn store_any(&mut self, id: VarId, idx: i64, val: Value, name: &str) -> Result<()> {
        self.stores += 1;
        let key = self.thread_key(id);
        match key.and_then(|key| self.thread_bufs.get_mut(&key)) {
            Some(buf) => buf.set(idx, val, name),
            None => self.mem.store(id, idx, val),
        }
    }

    fn exec(&mut self, s: &Stmt) -> Result<()> {
        use StmtNode::*;
        match &*s.0 {
            LetStmt { var, value, body } => {
                let v = self.eval(value)?;
                self.with_binding(var, v, |w| w.exec(body))
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
                let key = (buffer.id(), self.thread_coords.clone());
                if self.phase.is_some() {
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
                        for i in lo..lo + n {
                            self.with_binding(var, Value::Int(i), |w| w.exec(body))?;
                        }
                        Ok(())
                    }
                }
            }
            Seq(stmts) => stmts.iter().try_for_each(|st| self.exec(st)),
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
            Evaluate(e) => self.eval(e).map(|_| ()),
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
                    Some(o) => self.env.insert(v.id(), o),
                    None => self.env.remove(&v.id()),
                };
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
                let per = self.with_binding(var, Value::Int(lo), |w| w.count_barriers(body))?;
                per * n as u64
            }
            Seq(stmts) => stmts
                .iter()
                .map(|st| self.count_barriers(st))
                .sum::<Result<u64>>()?,
            IfThenElse {
                then_case,
                else_case,
                ..
            } => {
                let a = self.count_barriers(then_case)?;
                let b = else_case
                    .as_ref()
                    .map_or(Ok(0), |e| self.count_barriers(e))?;
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

fn compare<T: PartialOrd>(op: CmpOp, x: T, y: T) -> bool {
    match op {
        CmpOp::Eq => x == y,
        CmpOp::Ne => x != y,
        CmpOp::Lt => x < y,
        CmpOp::Le => x <= y,
        CmpOp::Gt => x > y,
        CmpOp::Ge => x >= y,
    }
}

fn zero_of(dtype: DType) -> Value {
    if dtype.is_float() {
        Value::Float(0.0)
    } else {
        Value::Int(0)
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
            BinOp::Div | BinOp::Mod if y == 0 => return Err(InterpError::DivideByZero),
            BinOp::Div => floor_div(x, y),
            BinOp::Mod => floor_mod(x, y),
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

/// `name` applied to `args`; `operand` is the first argument's type.
fn eval_pure_intrinsic(
    name: &str,
    args: &[Value],
    operand: Option<DType>,
    dtype: DType,
) -> Result<Value> {
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
        "popcount" => {
            // The ones of the operand's word, not of its sign extension.
            let x = args[0].as_int()? as u64;
            let bits = operand.filter(|t| !t.is_float()).map_or(64, |t| t.bits);
            let word = if bits < 64 {
                x & ((1u64 << bits) - 1)
            } else {
                x
            };
            Ok(Value::Int(i64::from(word.count_ones())))
        }
        other => Err(InterpError::UnknownIntrinsic(other.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pure_intrinsics() {
        let mut walker = Walker::default();
        let e = Expr::call("exp", vec![Expr::f32(0.0)], DType::float32());
        assert_eq!(walker.eval(&e).unwrap().as_float().unwrap(), 1.0);
        let e = Expr::call("popcount", vec![Expr::int(0b1011)], DType::int32());
        assert_eq!(walker.eval(&e).unwrap().as_int().unwrap(), 3);
    }
}
