//! The declarative tensor expression language (§4.1).
//!
//! Operators are declared by giving the output shape and an index-formula
//! expression for each element, exactly as in the paper's transposed-matmul
//! example:
//!
//! ```
//! use tvm_te::{placeholder, compute, reduce_axis, sum};
//! use tvm_ir::DType;
//!
//! let (m, n, h) = (64, 64, 64);
//! let a = placeholder(&[h, m], DType::float32(), "A");
//! let b = placeholder(&[h, n], DType::float32(), "B");
//! let k = reduce_axis(h, "k");
//! let c = compute(&[m, n], "C", |i| {
//!     sum(a.at(&[k.expr(), i[0].clone()]) * b.at(&[k.expr(), i[1].clone()]), std::slice::from_ref(&k))
//! });
//! assert_eq!(c.shape(), &[64, 64]);
//! ```

use std::cell::RefCell;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Weak};

use tvm_ir::expr::{CallKind, ExprNode};
use tvm_ir::{DType, Expr, IdMap, Range, Var};

static NEXT_OP_ID: AtomicUsize = AtomicUsize::new(0);

/// Unique operation identifier.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct OpId(pub usize);

/// Kind of an iteration variable.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum IterKind {
    /// Data-parallel axis (one per output dimension).
    Data,
    /// Reduction (communicative) axis.
    Reduce,
    /// Axis produced by `split`/`fuse` schedule relations.
    Derived,
}

/// An iteration variable: a loop variable together with its domain.
#[derive(Clone, Debug)]
pub struct IterVar {
    /// Underlying IR variable.
    pub var: Var,
    /// Iteration domain.
    pub dom: Range,
    /// Axis kind.
    pub kind: IterKind,
}

impl IterVar {
    /// Fresh data axis over `[0, extent)`.
    pub fn data(extent: i64, name: impl Into<String>) -> Self {
        IterVar {
            var: Var::int(name),
            dom: Range::from_extent(Expr::int(extent)),
            kind: IterKind::Data,
        }
    }

    /// Fresh reduce axis over `[0, extent)`.
    pub fn reduce(extent: i64, name: impl Into<String>) -> Self {
        IterVar {
            var: Var::int(name),
            dom: Range::from_extent(Expr::int(extent)),
            kind: IterKind::Reduce,
        }
    }

    /// Fresh derived axis (extent resolved by bound inference).
    pub fn derived(name: impl Into<String>) -> Self {
        IterVar {
            var: Var::int(name),
            dom: Range::from_extent(Expr::int(-1)),
            kind: IterKind::Derived,
        }
    }

    /// The variable as an expression.
    pub fn expr(&self) -> Expr {
        self.var.to_expr()
    }

    /// Constant extent, if declared.
    pub fn const_extent(&self) -> Option<i64> {
        self.dom.const_extent()
    }
}

impl PartialEq for IterVar {
    fn eq(&self, other: &Self) -> bool {
        self.var == other.var
    }
}
impl Eq for IterVar {}

/// Creates a reduction axis — `t.reduce_axis((0, h))` in the paper's API.
pub fn reduce_axis(extent: i64, name: impl Into<String>) -> IterVar {
    IterVar::reduce(extent, name)
}

/// Reduction combiner.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Combiner {
    /// `+=` with identity 0.
    Sum,
    /// `max=` with identity `min_value(dtype)`.
    Max,
}

impl Combiner {
    /// The combiner's identity element for `dtype`.
    pub fn identity(self, dtype: DType) -> Expr {
        match self {
            Combiner::Sum => Expr::zero(dtype),
            Combiner::Max => Expr::min_value(dtype),
        }
    }

    /// Applies the combiner to (accumulator, value).
    pub fn combine(self, acc: Expr, val: Expr) -> Expr {
        match self {
            Combiner::Sum => acc + val,
            Combiner::Max => acc.max(val),
        }
    }
}

/// Body of a compute operation.
#[derive(Clone, Debug)]
pub enum ComputeBody {
    /// Pure element-wise formula.
    Plain(Expr),
    /// Reduction over `axes` of `source`.
    Reduce {
        /// Combiner applied across the reduction domain.
        combiner: Combiner,
        /// Per-point value, referencing data and reduce axes.
        source: Expr,
        /// Reduction axes.
        axes: Vec<IterVar>,
    },
}

impl ComputeBody {
    /// The expression(s) whose tensor reads define this op's inputs.
    pub fn source_expr(&self) -> &Expr {
        match self {
            ComputeBody::Plain(e) => e,
            ComputeBody::Reduce { source, .. } => source,
        }
    }

    /// Result dtype.
    pub fn dtype(&self) -> DType {
        self.source_expr().dtype()
    }
}

impl From<Expr> for ComputeBody {
    fn from(e: Expr) -> Self {
        ComputeBody::Plain(e)
    }
}

/// Builds a sum reduction body.
pub fn sum(source: Expr, axes: &[IterVar]) -> ComputeBody {
    ComputeBody::Reduce {
        combiner: Combiner::Sum,
        source,
        axes: axes.to_vec(),
    }
}

/// Builds a max reduction body.
pub fn max_reduce(source: Expr, axes: &[IterVar]) -> ComputeBody {
    ComputeBody::Reduce {
        combiner: Combiner::Max,
        source,
        axes: axes.to_vec(),
    }
}

/// An immutable compute specification: the element formula plus the
/// resolved input tensors it reads, in first-read order.
///
/// Ops never change after construction. Schedule-time dataflow rewrites
/// (`cache_read` / `cache_write`) produce *override* specs stored on the
/// [`Schedule`](crate::Schedule) instead of mutating the op, so tuning
/// workers can lower independent schedules of a shared operation graph
/// concurrently without any locks (the former `RwLock<ComputeBody>` and its
/// lock-poison panics are gone entirely).
#[derive(Clone, Debug)]
pub struct ComputeSpec {
    /// Element formula.
    pub body: ComputeBody,
    /// Tensors read by `body`, in first-read order, deduplicated by op id.
    pub reads: Vec<Tensor>,
}

impl ComputeSpec {
    /// Builds a spec by resolving `body`'s read keys through `lookup`,
    /// best-effort: unresolvable reads are skipped here and surface as
    /// [`UnregisteredRead`](crate::ScheduleError::UnregisteredRead) when the
    /// schedule or lowering actually needs them.
    pub fn gather(body: ComputeBody, lookup: &dyn Fn(OpId) -> Option<Tensor>) -> Self {
        let mut reads: Vec<Tensor> = Vec::new();
        let _ = collect_reads(body.source_expr(), lookup, &mut |t, _| {
            if !reads.iter().any(|x| x.op_id() == t.op_id()) {
                reads.push(t);
            }
        });
        ComputeSpec { body, reads }
    }

    /// Reduce axes of the body (empty for plain bodies).
    pub fn reduce_axes(&self) -> &[IterVar] {
        match &self.body {
            ComputeBody::Plain(_) => &[],
            ComputeBody::Reduce { axes, .. } => axes,
        }
    }

    /// The input tensor with op id `id`, if this spec reads it.
    pub fn read(&self, id: OpId) -> Option<&Tensor> {
        self.reads.iter().find(|t| t.op_id() == id)
    }
}

/// Operation kinds.
#[derive(Clone, Debug)]
pub enum OpKind {
    /// External input of a given shape.
    Placeholder,
    /// Computed tensor with an immutable element formula.
    Compute {
        /// Data axes, one per output dimension.
        axes: Vec<IterVar>,
        /// Element formula + resolved reads; shared, never mutated.
        spec: Arc<ComputeSpec>,
    },
}

/// Interior of an operation.
#[derive(Debug)]
pub struct OpNode {
    /// Unique id.
    pub id: OpId,
    /// Display name.
    pub name: String,
    /// Output shape (static).
    pub shape: Vec<i64>,
    /// Output element type.
    pub dtype: DType,
    /// Kind and body.
    pub kind: OpKind,
}

/// Reference-counted operation. Atomically counted so tensors, schedules
/// and lowered functions can be shared across tuning worker threads.
pub type OpRef = Arc<OpNode>;

impl OpNode {
    /// Data axes for compute ops; empty for placeholders.
    pub fn axes(&self) -> Vec<IterVar> {
        match &self.kind {
            OpKind::Placeholder => Vec::new(),
            OpKind::Compute { axes, .. } => axes.clone(),
        }
    }

    /// The compute spec, shared and immutable (compute ops only). Note
    /// that schedules may carry an *override* spec for this op — query
    /// [`Schedule::spec`](crate::Schedule::spec) when lowering.
    pub fn spec(&self) -> Option<&Arc<ComputeSpec>> {
        match &self.kind {
            OpKind::Placeholder => None,
            OpKind::Compute { spec, .. } => Some(spec),
        }
    }

    /// Reduce axes of a compute op's body, lock-free.
    pub fn reduce_axes(&self) -> Vec<IterVar> {
        self.spec()
            .map_or_else(Vec::new, |s| s.reduce_axes().to_vec())
    }

    /// Body clone (compute ops only), lock-free.
    pub fn body(&self) -> Option<ComputeBody> {
        self.spec().map(|s| s.body.clone())
    }

    /// Input tensors read by the body as declared, in first-read order.
    /// Schedule rewrites (`cache_read` / `cache_write`) do not change this;
    /// query [`Schedule::input_tensors_of`](crate::Schedule::input_tensors_of)
    /// for the rewritten dataflow.
    pub fn input_tensors(&self) -> Vec<Tensor> {
        self.spec().map_or_else(Vec::new, |s| s.reads.clone())
    }
}

/// A symbolic multi-dimensional tensor: one output of an operation.
#[derive(Clone, Debug)]
pub struct Tensor {
    /// Producing operation.
    pub op: OpRef,
}

impl Tensor {
    /// Operation id.
    pub fn op_id(&self) -> OpId {
        self.op.id
    }

    /// Shape.
    pub fn shape(&self) -> &[i64] {
        &self.op.shape
    }

    /// Number of dimensions.
    pub fn ndim(&self) -> usize {
        self.op.shape.len()
    }

    /// Total number of elements.
    pub fn numel(&self) -> i64 {
        self.op.shape.iter().product()
    }

    /// Element type.
    pub fn dtype(&self) -> DType {
        self.op.dtype
    }

    /// Display name.
    pub fn name(&self) -> &str {
        &self.op.name
    }

    /// Symbolic element read `self[indices]`, for use inside `compute`
    /// bodies. Notes the tensor in this thread's construction context so
    /// [`compute`] can recover dataflow when the body closure returns.
    pub fn at(&self, indices: &[Expr]) -> Expr {
        assert_eq!(
            indices.len(),
            self.ndim(),
            "tensor `{}` has {} dims, indexed with {}",
            self.name(),
            self.ndim(),
            indices.len()
        );
        CONSTRUCTION_CTX.with(|ctx| ctx.borrow_mut().note(self));
        Expr::new(ExprNode::Call {
            dtype: self.dtype(),
            name: read_key(self.op_id()),
            args: indices.to_vec(),
            kind: CallKind::PureIntrinsic,
        })
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{:?}", self.name(), self.shape())
    }
}

const READ_PREFIX: &str = "@read.";

/// The call name used to encode a read of op `id` inside a body expression.
pub fn read_key(id: OpId) -> String {
    format!("{READ_PREFIX}{}", id.0)
}

/// Decodes a read key back to an op id.
pub fn parse_read_key(name: &str) -> Option<OpId> {
    name.strip_prefix(READ_PREFIX)
        .and_then(|s| s.parse().ok())
        .map(OpId)
}

/// Tensors read via [`Tensor::at`] on one thread, held weakly: a strong
/// entry would pin the op's whole body and, through its reads, every input
/// below it for the life of the thread (a long-lived `tvm-serve` worker
/// grew by a model's worth of tensors per build).
#[derive(Default)]
struct ConstructionCtx {
    ops: IdMap<OpId, Weak<OpNode>>,
    /// Length at which dead entries are next swept; doubling it keeps the
    /// sweep amortised O(1) per noted read.
    sweep_at: usize,
}

impl ConstructionCtx {
    fn note(&mut self, t: &Tensor) {
        if self.ops.len() >= self.sweep_at {
            self.ops.retain(|_, op| op.strong_count() > 0);
            self.sweep_at = (2 * self.ops.len()).max(64);
        }
        self.ops
            .entry(t.op_id())
            .or_insert_with(|| Arc::downgrade(&t.op));
    }
}

thread_local! {
    /// So [`compute`] can resolve its body's read keys without touching any
    /// shared state (the former process-wide `TENSOR_REGISTRY` RwLock
    /// serialized every concurrent lowering); two tuning runs on different
    /// threads — or sequential runs holding only their own schedules — cannot
    /// observe each other's tensors.
    static CONSTRUCTION_CTX: RefCell<ConstructionCtx> = RefCell::default();
}

/// Resolves an op id noted by [`Tensor::at`] on the *current* thread, while
/// the tensor it named is alive.
fn construction_lookup(id: OpId) -> Option<Tensor> {
    CONSTRUCTION_CTX.with(|ctx| {
        let op = ctx.borrow().ops.get(&id)?.upgrade()?;
        Some(Tensor { op })
    })
}

/// Entries in this thread's construction context, dead ones included until
/// the next sweep. A thread that builds model after model keeps this near
/// the number of tensors alive at once, not the number ever read.
pub fn noted_reads() -> usize {
    CONSTRUCTION_CTX.with(|ctx| ctx.borrow().ops.len())
}

/// Walks an expression calling `f` for every tensor read `(tensor, indices)`,
/// resolving read keys through `lookup`. Returns
/// [`ScheduleError::UnregisteredRead`](crate::ScheduleError::UnregisteredRead)
/// if a read key cannot be resolved (the walk still visits every other read).
pub fn collect_reads(
    e: &Expr,
    lookup: &dyn Fn(OpId) -> Option<Tensor>,
    f: &mut dyn FnMut(Tensor, &[Expr]),
) -> Result<(), crate::schedule::ScheduleError> {
    use tvm_ir::Visitor;
    struct V<'a> {
        lookup: &'a dyn Fn(OpId) -> Option<Tensor>,
        f: &'a mut dyn FnMut(Tensor, &[Expr]),
        missing: Option<String>,
    }
    impl Visitor for V<'_> {
        fn visit_expr(&mut self, e: &Expr) {
            if let ExprNode::Call { name, args, .. } = &*e.0 {
                if let Some(id) = parse_read_key(name) {
                    match (self.lookup)(id) {
                        Some(t) => (self.f)(t, args),
                        None => {
                            self.missing.get_or_insert_with(|| name.clone());
                        }
                    }
                }
            }
            self.walk_expr(e);
        }
    }
    let mut v = V {
        lookup,
        f,
        missing: None,
    };
    v.visit_expr(e);
    match v.missing {
        Some(name) => Err(crate::schedule::ScheduleError::UnregisteredRead { name }),
        None => Ok(()),
    }
}

/// Declares an external input tensor.
pub fn placeholder(shape: &[i64], dtype: DType, name: impl Into<String>) -> Tensor {
    let name = name.into();
    let op = Arc::new(OpNode {
        id: OpId(NEXT_OP_ID.fetch_add(1, Ordering::Relaxed)),
        name,
        shape: shape.to_vec(),
        dtype,
        kind: OpKind::Placeholder,
    });
    Tensor { op }
}

/// Declares a computed tensor: `f` receives one index expression per output
/// dimension and returns the element formula (plain or reduction).
pub fn compute<B: Into<ComputeBody>>(
    shape: &[i64],
    name: impl Into<String>,
    f: impl FnOnce(&[Expr]) -> B,
) -> Tensor {
    let name = name.into();
    let axis_names = ["i0", "i1", "i2", "i3", "i4", "i5"];
    let axes: Vec<IterVar> = shape
        .iter()
        .enumerate()
        .map(|(d, &e)| {
            IterVar::data(
                e,
                format!("{}_{}", name, axis_names.get(d).unwrap_or(&"ix")),
            )
        })
        .collect();
    let idx: Vec<Expr> = axes.iter().map(|a| a.expr()).collect();
    let body: ComputeBody = f(&idx).into();
    // The closure just ran on this thread, so every tensor its body reads
    // has passed through `Tensor::at` here — resolve them now, while the
    // construction context is guaranteed to hold them.
    let spec = ComputeSpec::gather(body, &construction_lookup);
    let dtype = spec.body.dtype();
    let op = Arc::new(OpNode {
        id: OpId(NEXT_OP_ID.fetch_add(1, Ordering::Relaxed)),
        name,
        shape: shape.to_vec(),
        dtype,
        kind: OpKind::Compute {
            axes,
            spec: Arc::new(spec),
        },
    });
    Tensor { op }
}

/// Declares a computed tensor with explicit data axes (used by the
/// scheduler's cache stages, which need fresh axes for a copied body).
/// `extra_reads` resolves read keys that did not pass through this thread's
/// construction context — e.g. a body copied from an op built elsewhere.
pub fn compute_with_axes(
    shape: &[i64],
    name: impl Into<String>,
    axes: Vec<IterVar>,
    body: ComputeBody,
    extra_reads: &[Tensor],
) -> Tensor {
    let lookup = |id: OpId| {
        extra_reads
            .iter()
            .find(|t| t.op_id() == id)
            .cloned()
            .or_else(|| construction_lookup(id))
    };
    let spec = ComputeSpec::gather(body, &lookup);
    let dtype = spec.body.dtype();
    let op = Arc::new(OpNode {
        id: OpId(NEXT_OP_ID.fetch_add(1, Ordering::Relaxed)),
        name: name.into(),
        shape: shape.to_vec(),
        dtype,
        kind: OpKind::Compute {
            axes,
            spec: Arc::new(spec),
        },
    });
    Tensor { op }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_declaration() {
        let a = placeholder(&[64, 32], DType::float32(), "A");
        let b = placeholder(&[32, 48], DType::float32(), "B");
        let k = reduce_axis(32, "k");
        let c = compute(&[64, 48], "C", |i| {
            sum(
                a.at(&[i[0].clone(), k.expr()]) * b.at(&[k.expr(), i[1].clone()]),
                std::slice::from_ref(&k),
            )
        });
        assert_eq!(c.shape(), &[64, 48]);
        assert_eq!(c.dtype(), DType::float32());
        assert_eq!(c.op.reduce_axes().len(), 1);
        let inputs = c.op.input_tensors();
        assert_eq!(inputs.len(), 2);
        assert_eq!(inputs[0].name(), "A");
        assert_eq!(inputs[1].name(), "B");
    }

    #[test]
    fn elementwise_declaration() {
        let a = placeholder(&[16], DType::float32(), "A");
        let b = compute(&[16], "B", |i| a.at(&[i[0].clone()]) * 2 + 1);
        assert!(matches!(b.op.body().expect("body"), ComputeBody::Plain(_)));
        assert_eq!(b.op.input_tensors().len(), 1);
        assert_eq!(b.op.axes().len(), 1);
    }

    #[test]
    #[should_panic(expected = "has 1 dims")]
    fn wrong_arity_read_panics() {
        let a = placeholder(&[16], DType::float32(), "A");
        let _ = a.at(&[Expr::int(0), Expr::int(1)]);
    }

    #[test]
    fn read_key_round_trip() {
        assert_eq!(parse_read_key(&read_key(OpId(42))), Some(OpId(42)));
        assert_eq!(parse_read_key("exp"), None);
    }

    #[test]
    fn combiner_identities() {
        assert_eq!(
            Combiner::Sum.identity(DType::float32()).as_float(),
            Some(0.0)
        );
        assert!(Combiner::Max
            .identity(DType::float32())
            .as_float()
            .expect("imm")
            .is_infinite());
    }
}
