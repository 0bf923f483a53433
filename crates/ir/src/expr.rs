//! The low-level expression IR.
//!
//! Expressions are immutable reference-counted trees. Building blocks follow
//! Halide/TVM conventions: typed variables, integer/float immediates, binary
//! arithmetic, comparisons, `select`, buffer loads, short-vector `ramp` /
//! `broadcast`, `let` bindings and intrinsic calls.

use std::fmt;
use std::ops;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use crate::dtype::{DType, TypeCode};

static NEXT_VAR_ID: AtomicUsize = AtomicUsize::new(0);

/// A unique identifier for a [`Var`]; identity, not name, distinguishes
/// variables.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct VarId(pub usize);

/// Interior of a [`Var`].
#[derive(Debug)]
pub struct VarNode {
    /// Human-readable name used by the printer; need not be unique.
    pub name: String,
    /// Type of the value bound to the variable. Buffer handles use the
    /// element type of the buffer they point to.
    pub dtype: DType,
    /// Globally unique id.
    pub id: VarId,
}

/// A typed variable (loop index, let binding or buffer handle).
///
/// Cloning is cheap; two clones compare equal iff they share an id.
#[derive(Clone, Debug)]
pub struct Var(pub Arc<VarNode>);

impl Var {
    /// Creates a fresh variable with a unique id.
    pub fn new(name: impl Into<String>, dtype: DType) -> Self {
        let id = VarId(NEXT_VAR_ID.fetch_add(1, Ordering::Relaxed));
        Var(Arc::new(VarNode {
            name: name.into(),
            dtype,
            id,
        }))
    }

    /// Convenience constructor for an `int32` variable (the index type).
    pub fn int(name: impl Into<String>) -> Self {
        Var::new(name, DType::int32())
    }

    /// The variable's unique id.
    pub fn id(&self) -> VarId {
        self.0.id
    }

    /// The variable's display name.
    pub fn name(&self) -> &str {
        &self.0.name
    }

    /// The variable's type.
    pub fn dtype(&self) -> DType {
        self.0.dtype
    }

    /// Wraps the variable into an expression.
    pub fn to_expr(&self) -> Expr {
        Expr(Arc::new(ExprNode::Var(self.clone())))
    }
}

impl PartialEq for Var {
    fn eq(&self, other: &Self) -> bool {
        self.0.id == other.0.id
    }
}
impl Eq for Var {}
impl std::hash::Hash for Var {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.0.id.hash(state);
    }
}

/// Binary arithmetic / bitwise operators.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BinOp {
    /// Lane-wise addition.
    Add,
    /// Lane-wise subtraction.
    Sub,
    /// Lane-wise multiplication.
    Mul,
    /// Division; floor division for integers.
    Div,
    /// Remainder; floor modulus for integers (result has divisor's sign).
    Mod,
    /// Lane-wise minimum.
    Min,
    /// Lane-wise maximum.
    Max,
    /// Bitwise and (integers only).
    BitAnd,
    /// Bitwise or (integers only).
    BitOr,
    /// Bitwise xor (integers only).
    BitXor,
    /// Left shift (integers only).
    Shl,
    /// Arithmetic/logical right shift per signedness (integers only).
    Shr,
}

impl BinOp {
    /// True if the operator commutes.
    pub fn commutative(self) -> bool {
        matches!(
            self,
            BinOp::Add
                | BinOp::Mul
                | BinOp::Min
                | BinOp::Max
                | BinOp::BitAnd
                | BinOp::BitOr
                | BinOp::BitXor
        )
    }
}

/// Comparison operators; result type is `bool` (`uint1`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CmpOp {
    /// Equality.
    Eq,
    /// Inequality.
    Ne,
    /// Strictly less.
    Lt,
    /// Less or equal.
    Le,
    /// Strictly greater.
    Gt,
    /// Greater or equal.
    Ge,
}

/// How a [`ExprNode::Call`] lowers.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CallKind {
    /// Pure math intrinsic computed by the interpreter (`exp`, `tanh`, ...).
    PureIntrinsic,
    /// An opaque hardware intrinsic (e.g. `vdla.gemm`); the back-end /
    /// accelerator runtime gives it meaning.
    HardwareIntrinsic,
}

/// Interior node of an [`Expr`] tree.
#[derive(Clone, Debug)]
pub enum ExprNode {
    /// Integer immediate of the given type.
    IntImm { value: i64, dtype: DType },
    /// Floating-point immediate of the given type.
    FloatImm { value: f64, dtype: DType },
    /// String immediate (annotation payloads only; never computed with).
    StringImm(String),
    /// Variable reference.
    Var(Var),
    /// Value conversion between numeric types, with saturation-free
    /// truncation semantics for narrowing integer casts.
    Cast { dtype: DType, value: Expr },
    /// Binary arithmetic. `dtype` is the type of `a`, stored by
    /// [`Expr::binary`] so that asking for it costs no walk.
    Binary {
        op: BinOp,
        dtype: DType,
        a: Expr,
        b: Expr,
    },
    /// Comparison producing `bool`.
    Cmp { op: CmpOp, a: Expr, b: Expr },
    /// Logical and (short-circuit semantics are not observable: exprs are
    /// pure).
    And { a: Expr, b: Expr },
    /// Logical or.
    Or { a: Expr, b: Expr },
    /// Logical negation.
    Not { a: Expr },
    /// `cond ? then_case : else_case`, lane-wise.
    Select {
        cond: Expr,
        then_case: Expr,
        else_case: Expr,
    },
    /// Scalar or vector load `buffer[index]` (flat index, in elements).
    Load {
        buffer: Var,
        index: Expr,
        predicate: Option<Expr>,
    },
    /// Vector `base + stride * [0, 1, .., lanes-1]`.
    Ramp {
        base: Expr,
        stride: Expr,
        lanes: u16,
    },
    /// Vector with all lanes equal to `value`.
    Broadcast { value: Expr, lanes: u16 },
    /// `let var = value in body`.
    Let { var: Var, value: Expr, body: Expr },
    /// Intrinsic call.
    Call {
        dtype: DType,
        name: String,
        args: Vec<Expr>,
        kind: CallKind,
    },
}

/// A reference-counted, immutable expression.
#[derive(Clone, Debug)]
pub struct Expr(pub Arc<ExprNode>);

/// Range of `int32` immediates kept in the intern pool. Lowering builds
/// loop bounds, strides, tile extents and guard constants from this range
/// overwhelmingly often, so [`Expr::int`] serves them as `Arc` clones of
/// pre-built nodes instead of fresh allocations.
const INTERN_MIN: i64 = -8;
const INTERN_MAX: i64 = 512;

thread_local! {
    /// One pool per thread: workers lowering side by side would otherwise
    /// bounce the reference counts of the same few nodes (0, 1, ...) between
    /// their cores on every clone and drop, which costs more than the
    /// allocations the pool saves and makes a lowering's time depend on what
    /// the other workers are doing.
    static INT_POOL: Vec<Expr> = (INTERN_MIN..=INTERN_MAX)
        .map(|value| {
            Expr(Arc::new(ExprNode::IntImm {
                value,
                dtype: DType::int32(),
            }))
        })
        .collect();
}

impl Expr {
    /// Wraps a node.
    pub fn new(node: ExprNode) -> Self {
        Expr(Arc::new(node))
    }

    /// `int32` immediate. Small values come from the thread's intern pool.
    pub fn int(value: i64) -> Self {
        if (INTERN_MIN..=INTERN_MAX).contains(&value) {
            return INT_POOL.with(|pool| pool[(value - INTERN_MIN) as usize].clone());
        }
        Expr::new(ExprNode::IntImm {
            value,
            dtype: DType::int32(),
        })
    }

    /// Immediate of an arbitrary integer type.
    pub fn int_of(value: i64, dtype: DType) -> Self {
        debug_assert!(dtype.is_int());
        if dtype == DType::int32() {
            return Expr::int(value);
        }
        Expr::new(ExprNode::IntImm { value, dtype })
    }

    /// `float32` immediate.
    pub fn f32(value: f32) -> Self {
        Expr::new(ExprNode::FloatImm {
            value: value as f64,
            dtype: DType::float32(),
        })
    }

    /// Immediate of an arbitrary float type.
    pub fn float_of(value: f64, dtype: DType) -> Self {
        debug_assert!(dtype.is_float());
        Expr::new(ExprNode::FloatImm { value, dtype })
    }

    /// Boolean immediate (`uint1`).
    pub fn bool_(value: bool) -> Self {
        Expr::new(ExprNode::IntImm {
            value: value as i64,
            dtype: DType::bool_(),
        })
    }

    /// Typed zero immediate.
    pub fn zero(dtype: DType) -> Self {
        if dtype.is_float() {
            Expr::new(ExprNode::FloatImm { value: 0.0, dtype })
        } else if dtype == DType::int32() {
            Expr::int(0)
        } else {
            Expr::new(ExprNode::IntImm { value: 0, dtype })
        }
    }

    /// Typed one immediate.
    pub fn one(dtype: DType) -> Self {
        if dtype.is_float() {
            Expr::new(ExprNode::FloatImm { value: 1.0, dtype })
        } else if dtype == DType::int32() {
            Expr::int(1)
        } else {
            Expr::new(ExprNode::IntImm { value: 1, dtype })
        }
    }

    /// Most negative representable immediate, used as `max`-reduce identity.
    pub fn min_value(dtype: DType) -> Self {
        if dtype.is_float() {
            Expr::new(ExprNode::FloatImm {
                value: f64::NEG_INFINITY,
                dtype,
            })
        } else if dtype.code == TypeCode::UInt {
            Expr::new(ExprNode::IntImm { value: 0, dtype })
        } else {
            let v = if dtype.bits >= 64 {
                i64::MIN
            } else {
                -(1i64 << (dtype.bits - 1))
            };
            Expr::new(ExprNode::IntImm { value: v, dtype })
        }
    }

    /// The expression's result type.
    pub fn dtype(&self) -> DType {
        match &*self.0 {
            ExprNode::IntImm { dtype, .. } | ExprNode::FloatImm { dtype, .. } => *dtype,
            ExprNode::StringImm(_) => DType::uint(8),
            ExprNode::Var(v) => v.dtype(),
            ExprNode::Cast { dtype, .. } => *dtype,
            ExprNode::Binary { dtype, .. } => *dtype,
            ExprNode::Cmp { a, .. } => DType::bool_().with_lanes(a.dtype().lanes),
            ExprNode::And { a, .. } | ExprNode::Or { a, .. } | ExprNode::Not { a } => {
                DType::bool_().with_lanes(a.dtype().lanes)
            }
            ExprNode::Select { then_case, .. } => then_case.dtype(),
            ExprNode::Load { buffer, index, .. } => buffer.dtype().with_lanes(index.dtype().lanes),
            ExprNode::Ramp { base, lanes, .. } => base.dtype().with_lanes(*lanes),
            ExprNode::Broadcast { value, lanes } => value.dtype().with_lanes(*lanes),
            ExprNode::Let { body, .. } => body.dtype(),
            ExprNode::Call { dtype, .. } => *dtype,
        }
    }

    /// Returns the constant integer value if this is an integer immediate.
    pub fn as_int(&self) -> Option<i64> {
        match &*self.0 {
            ExprNode::IntImm { value, .. } => Some(*value),
            _ => None,
        }
    }

    /// Returns the constant float value if this is a float immediate.
    pub fn as_float(&self) -> Option<f64> {
        match &*self.0 {
            ExprNode::FloatImm { value, .. } => Some(*value),
            _ => None,
        }
    }

    /// True if this is the integer constant `v`.
    pub fn is_const_int(&self, v: i64) -> bool {
        self.as_int() == Some(v)
    }

    /// Returns the variable if this expression is a bare variable reference.
    pub fn as_var(&self) -> Option<&Var> {
        match &*self.0 {
            ExprNode::Var(v) => Some(v),
            _ => None,
        }
    }

    /// Builds a binary node without simplification.
    pub fn binary(op: BinOp, a: Expr, b: Expr) -> Expr {
        let dtype = a.dtype();
        Expr::new(ExprNode::Binary { op, dtype, a, b })
    }

    /// Builds a comparison node.
    pub fn cmp(op: CmpOp, a: Expr, b: Expr) -> Expr {
        Expr::new(ExprNode::Cmp { op, a, b })
    }

    /// Lane-wise minimum.
    pub fn min(self, other: Expr) -> Expr {
        Expr::binary(BinOp::Min, self, other)
    }

    /// Lane-wise maximum.
    pub fn max(self, other: Expr) -> Expr {
        Expr::binary(BinOp::Max, self, other)
    }

    /// Floor division.
    pub fn floordiv(self, other: Expr) -> Expr {
        Expr::binary(BinOp::Div, self, other)
    }

    /// Floor modulus.
    pub fn floormod(self, other: Expr) -> Expr {
        Expr::binary(BinOp::Mod, self, other)
    }

    /// `self == other`.
    pub fn eq(self, other: Expr) -> Expr {
        Expr::cmp(CmpOp::Eq, self, other)
    }

    /// `self != other`.
    pub fn ne(self, other: Expr) -> Expr {
        Expr::cmp(CmpOp::Ne, self, other)
    }

    /// `self < other`.
    pub fn lt(self, other: Expr) -> Expr {
        Expr::cmp(CmpOp::Lt, self, other)
    }

    /// `self <= other`.
    pub fn le(self, other: Expr) -> Expr {
        Expr::cmp(CmpOp::Le, self, other)
    }

    /// `self > other`.
    pub fn gt(self, other: Expr) -> Expr {
        Expr::cmp(CmpOp::Gt, self, other)
    }

    /// `self >= other`.
    pub fn ge(self, other: Expr) -> Expr {
        Expr::cmp(CmpOp::Ge, self, other)
    }

    /// Logical and.
    pub fn and(self, other: Expr) -> Expr {
        Expr::new(ExprNode::And { a: self, b: other })
    }

    /// Logical or.
    pub fn or(self, other: Expr) -> Expr {
        Expr::new(ExprNode::Or { a: self, b: other })
    }

    /// Logical negation. Named to match `and`/`or` in the builder DSL
    /// rather than implementing `std::ops::Not`.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Expr {
        Expr::new(ExprNode::Not { a: self })
    }

    /// Conversion to `dtype` (identity casts are collapsed).
    pub fn cast(self, dtype: DType) -> Expr {
        if self.dtype() == dtype {
            self
        } else {
            Expr::new(ExprNode::Cast { dtype, value: self })
        }
    }

    /// `cond ? a : b`.
    pub fn select(cond: Expr, a: Expr, b: Expr) -> Expr {
        Expr::new(ExprNode::Select {
            cond,
            then_case: a,
            else_case: b,
        })
    }

    /// Unpredicated flat load.
    pub fn load(buffer: &Var, index: Expr) -> Expr {
        Expr::new(ExprNode::Load {
            buffer: buffer.clone(),
            index,
            predicate: None,
        })
    }

    /// Pure math intrinsic call with result type `dtype`.
    pub fn call(name: impl Into<String>, args: Vec<Expr>, dtype: DType) -> Expr {
        Expr::new(ExprNode::Call {
            dtype,
            name: name.into(),
            args,
            kind: CallKind::PureIntrinsic,
        })
    }

    /// Opaque hardware intrinsic call.
    pub fn hw_call(name: impl Into<String>, args: Vec<Expr>, dtype: DType) -> Expr {
        Expr::new(ExprNode::Call {
            dtype,
            name: name.into(),
            args,
            kind: CallKind::HardwareIntrinsic,
        })
    }

    /// True when both handles point at the same node — how a
    /// [`crate::Mutator`] reports "unchanged".
    pub fn same_as(&self, other: &Expr) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }

    /// Structural equality modulo variable identity (ids must match).
    pub fn structural_eq(&self, other: &Expr) -> bool {
        structural_eq(self, other)
    }
}

fn structural_eq(a: &Expr, b: &Expr) -> bool {
    use ExprNode::*;
    match (&*a.0, &*b.0) {
        (
            IntImm {
                value: v1,
                dtype: d1,
            },
            IntImm {
                value: v2,
                dtype: d2,
            },
        ) => v1 == v2 && d1 == d2,
        (
            FloatImm {
                value: v1,
                dtype: d1,
            },
            FloatImm {
                value: v2,
                dtype: d2,
            },
        ) => v1 == v2 && d1 == d2,
        (StringImm(s1), StringImm(s2)) => s1 == s2,
        (Var(v1), Var(v2)) => v1 == v2,
        (
            Cast {
                dtype: d1,
                value: v1,
            },
            Cast {
                dtype: d2,
                value: v2,
            },
        ) => d1 == d2 && structural_eq(v1, v2),
        (
            Binary {
                op: o1,
                a: a1,
                b: b1,
                ..
            },
            Binary {
                op: o2,
                a: a2,
                b: b2,
                ..
            },
        ) => o1 == o2 && structural_eq(a1, a2) && structural_eq(b1, b2),
        (
            Cmp {
                op: o1,
                a: a1,
                b: b1,
            },
            Cmp {
                op: o2,
                a: a2,
                b: b2,
            },
        ) => o1 == o2 && structural_eq(a1, a2) && structural_eq(b1, b2),
        (And { a: a1, b: b1 }, And { a: a2, b: b2 })
        | (Or { a: a1, b: b1 }, Or { a: a2, b: b2 }) => {
            structural_eq(a1, a2) && structural_eq(b1, b2)
        }
        (Not { a: a1 }, Not { a: a2 }) => structural_eq(a1, a2),
        (
            Select {
                cond: c1,
                then_case: t1,
                else_case: e1,
            },
            Select {
                cond: c2,
                then_case: t2,
                else_case: e2,
            },
        ) => structural_eq(c1, c2) && structural_eq(t1, t2) && structural_eq(e1, e2),
        (
            Load {
                buffer: buf1,
                index: i1,
                predicate: p1,
            },
            Load {
                buffer: buf2,
                index: i2,
                predicate: p2,
            },
        ) => {
            buf1 == buf2
                && structural_eq(i1, i2)
                && match (p1, p2) {
                    (None, None) => true,
                    (Some(x), Some(y)) => structural_eq(x, y),
                    _ => false,
                }
        }
        (
            Ramp {
                base: b1,
                stride: s1,
                lanes: l1,
            },
            Ramp {
                base: b2,
                stride: s2,
                lanes: l2,
            },
        ) => l1 == l2 && structural_eq(b1, b2) && structural_eq(s1, s2),
        (
            Broadcast {
                value: v1,
                lanes: l1,
            },
            Broadcast {
                value: v2,
                lanes: l2,
            },
        ) => l1 == l2 && structural_eq(v1, v2),
        (
            Let {
                var: v1,
                value: x1,
                body: b1,
            },
            Let {
                var: v2,
                value: x2,
                body: b2,
            },
        ) => v1 == v2 && structural_eq(x1, x2) && structural_eq(b1, b2),
        (
            Call {
                dtype: d1,
                name: n1,
                args: a1,
                kind: k1,
            },
            Call {
                dtype: d2,
                name: n2,
                args: a2,
                kind: k2,
            },
        ) => {
            d1 == d2
                && n1 == n2
                && k1 == k2
                && a1.len() == a2.len()
                && a1.iter().zip(a2).all(|(x, y)| structural_eq(x, y))
        }
        _ => false,
    }
}

macro_rules! impl_binop {
    ($trait_:ident, $method:ident, $op:expr) => {
        impl ops::$trait_ for Expr {
            type Output = Expr;
            fn $method(self, rhs: Expr) -> Expr {
                Expr::binary($op, self, rhs)
            }
        }
        impl ops::$trait_<i64> for Expr {
            type Output = Expr;
            fn $method(self, rhs: i64) -> Expr {
                let dt = self.dtype();
                let rhs = if dt.is_float() {
                    Expr::float_of(rhs as f64, dt)
                } else {
                    Expr::int_of(rhs, dt)
                };
                Expr::binary($op, self, rhs)
            }
        }
        impl ops::$trait_<Expr> for Var {
            type Output = Expr;
            fn $method(self, rhs: Expr) -> Expr {
                Expr::binary($op, self.to_expr(), rhs)
            }
        }
        impl ops::$trait_<i64> for Var {
            type Output = Expr;
            fn $method(self, rhs: i64) -> Expr {
                Expr::binary($op, self.to_expr(), Expr::int(rhs))
            }
        }
        impl ops::$trait_<Var> for Var {
            type Output = Expr;
            fn $method(self, rhs: Var) -> Expr {
                Expr::binary($op, self.to_expr(), rhs.to_expr())
            }
        }
        impl ops::$trait_<Var> for Expr {
            type Output = Expr;
            fn $method(self, rhs: Var) -> Expr {
                Expr::binary($op, self, rhs.to_expr())
            }
        }
    };
}

impl_binop!(Add, add, BinOp::Add);
impl_binop!(Sub, sub, BinOp::Sub);
impl_binop!(Mul, mul, BinOp::Mul);
impl_binop!(Div, div, BinOp::Div);
impl_binop!(Rem, rem, BinOp::Mod);

impl From<&Var> for Expr {
    fn from(v: &Var) -> Expr {
        v.to_expr()
    }
}
impl From<Var> for Expr {
    fn from(v: Var) -> Expr {
        v.to_expr()
    }
}
impl From<i64> for Expr {
    fn from(v: i64) -> Expr {
        Expr::int(v)
    }
}
impl From<f32> for Expr {
    fn from(v: f32) -> Expr {
        Expr::f32(v)
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        crate::printer::fmt_expr(self, f)
    }
}

/// A half-open integer range `[min, min + extent)` described by expressions.
#[derive(Clone, Debug)]
pub struct Range {
    /// Inclusive lower bound.
    pub min: Expr,
    /// Number of elements.
    pub extent: Expr,
}

impl Range {
    /// Builds a range from expressions.
    pub fn new(min: impl Into<Expr>, extent: impl Into<Expr>) -> Self {
        Range {
            min: min.into(),
            extent: extent.into(),
        }
    }

    /// Builds `[0, extent)`.
    pub fn from_extent(extent: impl Into<Expr>) -> Self {
        Range::new(Expr::int(0), extent)
    }

    /// Returns the constant extent, if known.
    pub fn const_extent(&self) -> Option<i64> {
        self.extent.as_int()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn var_identity_not_name() {
        let a = Var::int("x");
        let b = Var::int("x");
        assert_ne!(a, b);
        assert_eq!(a, a.clone());
    }

    #[test]
    fn operator_overloads_build_expected_nodes() {
        let x = Var::int("x");
        let e = x.clone() * 4 + 3;
        match &*e.0 {
            ExprNode::Binary {
                op: BinOp::Add, a, ..
            } => match &*a.0 {
                ExprNode::Binary { op: BinOp::Mul, .. } => {}
                other => panic!("expected Mul, got {other:?}"),
            },
            other => panic!("expected Add, got {other:?}"),
        }
        assert_eq!(e.dtype(), DType::int32());
    }

    #[test]
    fn dtype_inference() {
        let x = Var::new("x", DType::float32());
        assert!((x.clone() + Expr::f32(1.0)).dtype().is_float());
        assert!(x.to_expr().lt(Expr::f32(0.0)).dtype().is_bool());
        let b = Var::new("buf", DType::float16());
        assert_eq!(Expr::load(&b, Expr::int(0)).dtype(), DType::float16());
    }

    #[test]
    fn a_stored_dtype_does_not_grow_a_node() {
        // The largest variant (`Call`) sets the size: `Binary`'s dtype
        // fits beside its operator, so no tree grows by a byte.
        assert_eq!(std::mem::size_of::<ExprNode>(), 56);
    }

    #[test]
    fn structural_equality() {
        let x = Var::int("x");
        let e1 = x.clone() + 1;
        let e2 = x.clone() + 1;
        let e3 = x.clone() + 2;
        assert!(e1.structural_eq(&e2));
        assert!(!e1.structural_eq(&e3));
    }

    #[test]
    fn min_value_identities() {
        assert_eq!(Expr::min_value(DType::int8()).as_int(), Some(-128));
        assert_eq!(Expr::min_value(DType::uint(8)).as_int(), Some(0));
        assert!(Expr::min_value(DType::float32())
            .as_float()
            .unwrap()
            .is_infinite());
    }

    #[test]
    fn identity_cast_is_collapsed() {
        let x = Var::int("x");
        let e = x.to_expr().cast(DType::int32());
        assert!(matches!(&*e.0, ExprNode::Var(_)));
        let e = x.to_expr().cast(DType::float32());
        assert!(matches!(&*e.0, ExprNode::Cast { .. }));
    }
}
