//! Schedules: trees of loop transformations over tensor expressions (§4.1).
//!
//! A [`Schedule`] holds one [`Stage`] per compute operation. Schedule
//! primitives (`split`, `tile`, `fuse`, `reorder`, `bind`, `compute_at`,
//! `cache_read`, `cache_write`, `set_scope`, `vectorize`, `unroll`,
//! `parallel`, `vthread`, `tensorize`, `pragma`) incrementally transform the
//! loop structure while preserving program semantics; the lowering pass
//! (`crate::lower`) turns the final schedule into a low-level loop program.

use std::fmt;
use std::sync::Arc;

use tvm_ir::{Expr, ForKind, IdMap, MemScope, ThreadTag, Var, VarId};

use crate::tensor::{compute_with_axes, ComputeBody, ComputeSpec, IterKind, IterVar, OpId, Tensor};
use crate::tensorize::TensorIntrin;

/// Typed error raised by schedule primitives instead of panicking: a bad
/// primitive application (wrong itervar, non-adjacent fuse, inlining an
/// output, ...) is a user input error, not a compiler invariant violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScheduleError {
    /// The itervar is not a leaf of the stage (wrong tensor, or the var was
    /// already split/fused away).
    NotALeaf {
        /// Offending itervar name.
        iter: String,
        /// Stage the caller addressed.
        stage: String,
    },
    /// The tensor's operation has no stage in this schedule.
    NotScheduled {
        /// The unscheduled tensor's name.
        tensor: String,
    },
    /// `split` with factor < 1.
    BadSplitFactor {
        /// The rejected factor.
        factor: i64,
        /// Stage being split.
        stage: String,
    },
    /// `fuse` on two leaves that are not adjacent in the current order.
    NotAdjacent {
        /// Requested outer leaf.
        outer: String,
        /// Requested inner leaf.
        inner: String,
        /// Stage being fused.
        stage: String,
    },
    /// `fuse` of a reduce leaf with a data leaf: the fused loop could only
    /// take one kind, so the reduction's reset nest would not cover the
    /// data part.
    FuseMixedKinds {
        /// Requested outer leaf.
        outer: String,
        /// Requested inner leaf.
        inner: String,
        /// Stage being fused.
        stage: String,
    },
    /// `compute_inline` on an output stage.
    InlineOutput {
        /// The output stage.
        stage: String,
    },
    /// `compute_inline` on a reduction stage.
    InlineReduction {
        /// The reduction stage.
        stage: String,
    },
    /// A caching primitive addressed a stage with no compute body
    /// (a placeholder).
    NoBody {
        /// The primitive that failed.
        primitive: &'static str,
        /// The body-less stage/tensor.
        stage: String,
    },
    /// `cache_read` with an empty reader list.
    NoReaders {
        /// Tensor being cached.
        tensor: String,
    },
    /// `cache_write` applied after other primitives already transformed the
    /// stage (its reduce axes can no longer be moved).
    CacheWriteNotFirst {
        /// The already-transformed stage.
        stage: String,
    },
    /// An expression reads a tensor that cannot be resolved in the
    /// schedule's tensor context.
    UnregisteredRead {
        /// The unresolvable read key.
        name: String,
    },
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::NotALeaf { iter, stage } => {
                write!(f, "itervar `{iter}` is not a leaf of stage `{stage}`")
            }
            ScheduleError::NotScheduled { tensor } => {
                write!(f, "tensor `{tensor}` is not scheduled here")
            }
            ScheduleError::BadSplitFactor { factor, stage } => {
                write!(f, "split factor must be >= 1, got {factor} on `{stage}`")
            }
            ScheduleError::NotAdjacent {
                outer,
                inner,
                stage,
            } => write!(
                f,
                "fuse of `{outer}` and `{inner}` on `{stage}` requires adjacent \
                 leaves (reorder first)"
            ),
            ScheduleError::FuseMixedKinds {
                outer,
                inner,
                stage,
            } => write!(
                f,
                "fuse of `{outer}` and `{inner}` on `{stage}` mixes a reduce leaf \
                 with a data leaf"
            ),
            ScheduleError::InlineOutput { stage } => {
                write!(f, "cannot inline output stage `{stage}`")
            }
            ScheduleError::InlineReduction { stage } => {
                write!(f, "cannot inline reduction stage `{stage}`")
            }
            ScheduleError::NoBody { primitive, stage } => {
                write!(f, "{primitive} target `{stage}` has no body")
            }
            ScheduleError::NoReaders { tensor } => {
                write!(f, "cache_read of `{tensor}` requires at least one reader")
            }
            ScheduleError::CacheWriteNotFirst { stage } => write!(
                f,
                "cache_write must be applied before other schedule primitives on `{stage}`"
            ),
            ScheduleError::UnregisteredRead { name } => {
                write!(f, "unregistered tensor read {name}")
            }
        }
    }
}

impl std::error::Error for ScheduleError {}

/// Loop annotation applied by annotation primitives.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LoopAnn {
    /// SIMD-vectorize the loop.
    Vectorize,
    /// Fully unroll the loop.
    Unroll,
    /// Multi-core parallelize the loop.
    Parallel,
    /// Virtual thread for DAE latency hiding (§4.4).
    VThread,
}

impl LoopAnn {
    /// The kind of the loop emission writes over a leaf so annotated (a
    /// leaf without an annotation gets a `Serial` loop).
    pub fn loop_kind(self) -> ForKind {
        match self {
            LoopAnn::Vectorize => ForKind::Vectorized,
            LoopAnn::Unroll => ForKind::Unrolled,
            LoopAnn::Parallel => ForKind::Parallel,
            LoopAnn::VThread => ForKind::VThread,
        }
    }
}

/// Per-itervar schedule attributes.
#[derive(Clone, Default, Debug)]
pub struct IterAttr {
    /// Loop annotation, if any.
    pub ann: Option<LoopAnn>,
    /// GPU thread-axis binding, if any.
    pub thread: Option<ThreadTag>,
    /// Back-end pragma (e.g. `dma_copy` for accelerator DMA lowering).
    pub pragma: Option<String>,
}

/// Where a stage's computation is placed.
#[derive(Clone, Debug)]
pub enum Attach {
    /// At the top level of the function.
    Root,
    /// Substituted into consumers (no materialized loops or buffer).
    Inline,
    /// Nested inside `consumer`'s loop over `iter`.
    At {
        /// Consumer operation.
        consumer: OpId,
        /// Leaf iteration variable of the consumer to attach under.
        iter: Var,
    },
}

/// Iteration-variable relations produced by `split` and `fuse`.
#[derive(Clone, Debug)]
pub enum IterRelation {
    /// `parent` is rewritten as `outer * factor + inner`.
    Split {
        /// The variable being split.
        parent: Var,
        /// Outer result.
        outer: IterVar,
        /// Inner result (extent = `factor`).
        inner: IterVar,
        /// Split factor.
        factor: i64,
    },
    /// `fused` iterates the flattened product of `outer` then `inner`.
    Fuse {
        /// Original outer variable.
        outer: Var,
        /// Original inner variable.
        inner: Var,
        /// Fused result.
        fused: IterVar,
    },
}

/// One operation's scheduling state.
#[derive(Clone, Debug)]
pub struct Stage {
    /// The stage's output tensor.
    pub tensor: Tensor,
    /// Current loop order (outermost first).
    pub leaf_iters: Vec<IterVar>,
    /// Applied split/fuse relations, in application order.
    pub relations: Vec<IterRelation>,
    /// Placement.
    pub attach: Attach,
    /// Memory scope of the stage's buffer.
    pub scope: MemScope,
    /// Per-itervar annotations keyed by the itervar's variable id.
    pub iter_attrs: IdMap<VarId, IterAttr>,
    /// Tensorization: replace the loop nest from this leaf inwards with a
    /// hardware intrinsic (§4.3).
    pub tensorize_at: Option<(VarId, TensorIntrin)>,
    /// True for stages whose tensor is a function output.
    pub is_output: bool,
}

impl Stage {
    fn new(tensor: Tensor, is_output: bool) -> Stage {
        let mut leaf_iters = tensor.op.axes();
        leaf_iters.extend(tensor.op.reduce_axes());
        Stage {
            tensor,
            leaf_iters,
            relations: Vec::new(),
            attach: Attach::Root,
            scope: MemScope::Global,
            iter_attrs: IdMap::default(),
            tensorize_at: None,
            is_output,
        }
    }

    /// Operation id.
    pub fn op_id(&self) -> OpId {
        self.tensor.op_id()
    }

    /// Position of an itervar among the leaves.
    pub(crate) fn leaf_pos(&self, iv: &IterVar) -> Result<usize, ScheduleError> {
        self.leaf_iters
            .iter()
            .position(|l| l.var == iv.var)
            .ok_or_else(|| ScheduleError::NotALeaf {
                iter: iv.var.name().to_string(),
                stage: self.tensor.name().to_string(),
            })
    }

    /// Mutable attribute entry for an itervar.
    fn attr_mut(&mut self, iv: &IterVar) -> &mut IterAttr {
        self.iter_attrs.entry(iv.var.id()).or_default()
    }
}

/// A schedule over a tensor-expression DAG.
///
/// Besides the per-op [`Stage`]s, a schedule owns its *tensor context*
/// (every tensor reachable from the outputs, plus cache tensors created by
/// `cache_read`/`cache_write`) and per-op *spec overrides*. Schedule-time
/// dataflow rewrites land in the overrides instead of mutating the shared,
/// immutable ops, so many schedules over one operation graph — including
/// concurrent ones on tuning workers — never interfere.
#[derive(Clone, Debug)]
pub struct Schedule {
    /// Stages in topological order (producers before consumers).
    pub stages: Vec<Stage>,
    /// Function outputs.
    pub outputs: Vec<Tensor>,
    stage_of: IdMap<OpId, usize>,
    /// Every tensor this schedule can resolve a read of, keyed by op id.
    tensors: IdMap<OpId, Tensor>,
    /// Rewritten compute specs (`cache_read`/`cache_write`), keyed by op id;
    /// ops without an entry use their own spec.
    overrides: IdMap<OpId, Arc<ComputeSpec>>,
}

/// Creates a schedule for the given output tensors — `t.create_schedule` in
/// the paper's API.
pub fn create_schedule(outputs: &[Tensor]) -> Schedule {
    let mut order: Vec<Tensor> = Vec::new();
    let mut tensors: IdMap<OpId, Tensor> = IdMap::default();
    fn dfs(t: &Tensor, order: &mut Vec<Tensor>, tensors: &mut IdMap<OpId, Tensor>) {
        if tensors.contains_key(&t.op_id()) {
            return;
        }
        tensors.insert(t.op_id(), t.clone());
        for inp in t.op.input_tensors() {
            dfs(&inp, order, tensors);
        }
        if t.op.body().is_some() {
            order.push(t.clone());
        }
    }
    for t in outputs {
        dfs(t, &mut order, &mut tensors);
    }
    let mut stages = Vec::with_capacity(order.len());
    let mut stage_of = IdMap::default();
    for t in order {
        let is_output = outputs.iter().any(|o| o.op_id() == t.op_id());
        stage_of.insert(t.op_id(), stages.len());
        stages.push(Stage::new(t, is_output));
    }
    Schedule {
        stages,
        outputs: outputs.to_vec(),
        stage_of,
        tensors,
        overrides: IdMap::default(),
    }
}

impl Schedule {
    /// Resolves an op id to its tensor within this schedule's context.
    pub fn tensor(&self, id: OpId) -> Option<&Tensor> {
        self.tensors.get(&id)
    }

    /// The compute spec in effect for op `id` under this schedule: the
    /// override installed by `cache_read`/`cache_write` if any, else the
    /// op's own immutable spec. `None` for placeholders and unknown ops.
    pub fn spec(&self, id: OpId) -> Option<Arc<ComputeSpec>> {
        if let Some(s) = self.overrides.get(&id) {
            return Some(Arc::clone(s));
        }
        self.tensors.get(&id).and_then(|t| t.op.spec().cloned())
    }

    /// Input tensors op `id` reads *under this schedule* (first-read
    /// order), reflecting any `cache_read`/`cache_write` redirections.
    pub fn input_tensors_of(&self, id: OpId) -> Vec<Tensor> {
        self.spec(id).map_or_else(Vec::new, |s| s.reads.clone())
    }

    /// The stage scheduling `t`'s operation.
    pub fn stage(&self, t: &Tensor) -> Result<&Stage, ScheduleError> {
        Ok(&self.stages[self.stage_index(t)?])
    }

    /// Mutable stage access.
    pub fn stage_mut(&mut self, t: &Tensor) -> Result<&mut Stage, ScheduleError> {
        let i = self.stage_index(t)?;
        Ok(&mut self.stages[i])
    }

    /// Stage index of a tensor's op.
    pub fn stage_index(&self, t: &Tensor) -> Result<usize, ScheduleError> {
        self.stage_of
            .get(&t.op_id())
            .copied()
            .ok_or_else(|| ScheduleError::NotScheduled {
                tensor: t.name().to_string(),
            })
    }

    /// Stage lookup by op id.
    pub fn stage_by_op(&self, id: OpId) -> Option<&Stage> {
        self.stage_of.get(&id).map(|&i| &self.stages[i])
    }

    /// Splits a leaf itervar by `factor`, returning `(outer, inner)`.
    pub fn split(
        &mut self,
        t: &Tensor,
        iv: &IterVar,
        factor: i64,
    ) -> Result<(IterVar, IterVar), ScheduleError> {
        if factor < 1 {
            return Err(ScheduleError::BadSplitFactor {
                factor,
                stage: t.name().to_string(),
            });
        }
        let stage = self.stage_mut(t)?;
        let pos = stage.leaf_pos(iv)?;
        let outer = IterVar {
            kind: iv.kind,
            ..IterVar::derived(format!("{}.o", iv.var.name()))
        };
        let inner = IterVar {
            kind: iv.kind,
            ..IterVar::derived(format!("{}.i", iv.var.name()))
        };
        stage.relations.push(IterRelation::Split {
            parent: iv.var.clone(),
            outer: outer.clone(),
            inner: inner.clone(),
            factor,
        });
        stage
            .leaf_iters
            .splice(pos..=pos, [outer.clone(), inner.clone()]);
        Ok((outer, inner))
    }

    /// Tiles two leaf itervars — `s[C].tile(y, x, fy, fx)` — returning
    /// `(yo, xo, yi, xi)` and reordering the leaves accordingly.
    #[allow(clippy::type_complexity)]
    pub fn tile(
        &mut self,
        t: &Tensor,
        y: &IterVar,
        x: &IterVar,
        fy: i64,
        fx: i64,
    ) -> Result<(IterVar, IterVar, IterVar, IterVar), ScheduleError> {
        let (yo, yi) = self.split(t, y, fy)?;
        let (xo, xi) = self.split(t, x, fx)?;
        self.reorder(t, &[&yo, &xo, &yi, &xi])?;
        Ok((yo, xo, yi, xi))
    }

    /// Splits a leaf itervar into `factors.len() + 1` nested levels —
    /// the multi-level tiling step sketch derivations are built from.
    /// `factors` are the extents of the inner levels, innermost last;
    /// the returned itervars are ordered outermost first. For an axis of
    /// extent `E` and factors `[f1, f2]` the levels have extents
    /// `[E / (f1*f2), f1, f2]` (non-perfect splits are guarded like any
    /// other [`split`](Schedule::split)).
    pub fn split_levels(
        &mut self,
        t: &Tensor,
        iv: &IterVar,
        factors: &[i64],
    ) -> Result<Vec<IterVar>, ScheduleError> {
        let mut levels = Vec::with_capacity(factors.len() + 1);
        let mut rest = iv.clone();
        for j in 0..factors.len() {
            let prod: i64 = factors[j..].iter().product();
            let (outer, inner) = self.split(t, &rest, prod)?;
            levels.push(outer);
            rest = inner;
        }
        levels.push(rest);
        Ok(levels)
    }

    /// Fuses two adjacent leaf itervars into one.
    pub fn fuse(
        &mut self,
        t: &Tensor,
        outer: &IterVar,
        inner: &IterVar,
    ) -> Result<IterVar, ScheduleError> {
        let stage = self.stage_mut(t)?;
        let po = stage.leaf_pos(outer)?;
        let pi = stage.leaf_pos(inner)?;
        if pi != po + 1 {
            return Err(ScheduleError::NotAdjacent {
                outer: outer.var.name().to_string(),
                inner: inner.var.name().to_string(),
                stage: stage.tensor.name().to_string(),
            });
        }
        if (outer.kind == IterKind::Reduce) != (inner.kind == IterKind::Reduce) {
            return Err(ScheduleError::FuseMixedKinds {
                outer: outer.var.name().to_string(),
                inner: inner.var.name().to_string(),
                stage: stage.tensor.name().to_string(),
            });
        }
        let fused = IterVar {
            kind: outer.kind,
            ..IterVar::derived(format!("{}.{}.f", outer.var.name(), inner.var.name()))
        };
        stage.relations.push(IterRelation::Fuse {
            outer: outer.var.clone(),
            inner: inner.var.clone(),
            fused: fused.clone(),
        });
        stage.leaf_iters.splice(po..=pi, [fused.clone()]);
        Ok(fused)
    }

    /// Reorders the listed leaves into the given relative order (leaves not
    /// listed keep their positions).
    pub fn reorder(&mut self, t: &Tensor, order: &[&IterVar]) -> Result<(), ScheduleError> {
        let stage = self.stage_mut(t)?;
        let positions: Vec<usize> = order
            .iter()
            .map(|iv| stage.leaf_pos(iv))
            .collect::<Result<_, _>>()?;
        let mut sorted = positions.clone();
        sorted.sort_unstable();
        for (slot, iv) in sorted.iter().zip(order.iter()) {
            stage.leaf_iters[*slot] = (*iv).clone();
        }
        Ok(())
    }

    /// Binds a leaf itervar to a GPU thread axis.
    pub fn bind(&mut self, t: &Tensor, iv: &IterVar, tag: ThreadTag) -> Result<(), ScheduleError> {
        let stage = self.stage_mut(t)?;
        stage.leaf_pos(iv)?; // validate
        stage.attr_mut(iv).thread = Some(tag);
        Ok(())
    }

    /// Marks a leaf itervar for SIMD vectorization.
    pub fn vectorize(&mut self, t: &Tensor, iv: &IterVar) -> Result<(), ScheduleError> {
        self.annotate(t, iv, LoopAnn::Vectorize)
    }

    /// Marks a leaf itervar for unrolling.
    pub fn unroll(&mut self, t: &Tensor, iv: &IterVar) -> Result<(), ScheduleError> {
        self.annotate(t, iv, LoopAnn::Unroll)
    }

    /// Marks a leaf itervar for CPU multi-core parallelism.
    pub fn parallel(&mut self, t: &Tensor, iv: &IterVar) -> Result<(), ScheduleError> {
        self.annotate(t, iv, LoopAnn::Parallel)
    }

    /// Marks a leaf itervar as a virtual thread (§4.4).
    pub fn vthread(&mut self, t: &Tensor, iv: &IterVar) -> Result<(), ScheduleError> {
        self.annotate(t, iv, LoopAnn::VThread)
    }

    /// Sets a leaf itervar's loop annotation: what [`Schedule::vectorize`],
    /// [`Schedule::unroll`], [`Schedule::parallel`] and
    /// [`Schedule::vthread`] do. The last annotation of a leaf wins.
    pub fn annotate(
        &mut self,
        t: &Tensor,
        iv: &IterVar,
        ann: LoopAnn,
    ) -> Result<(), ScheduleError> {
        let stage = self.stage_mut(t)?;
        stage.leaf_pos(iv)?; // validate
        stage.attr_mut(iv).ann = Some(ann);
        Ok(())
    }

    /// Attaches a back-end pragma to a leaf itervar (e.g. `dma_copy`).
    pub fn pragma(
        &mut self,
        t: &Tensor,
        iv: &IterVar,
        key: impl Into<String>,
    ) -> Result<(), ScheduleError> {
        let stage = self.stage_mut(t)?;
        stage.leaf_pos(iv)?; // validate
        stage.attr_mut(iv).pragma = Some(key.into());
        Ok(())
    }

    /// Nests `producer`'s computation inside `consumer`'s loop over `iv`.
    pub fn compute_at(
        &mut self,
        producer: &Tensor,
        consumer: &Tensor,
        iv: &IterVar,
    ) -> Result<(), ScheduleError> {
        let cons_id = consumer.op_id();
        // Validate that `iv` is a leaf of the consumer.
        self.stage(consumer)?.leaf_pos(iv)?;
        let stage = self.stage_mut(producer)?;
        stage.attach = Attach::At {
            consumer: cons_id,
            iter: iv.var.clone(),
        };
        Ok(())
    }

    /// Inlines an injective stage into all of its consumers.
    pub fn compute_inline(&mut self, t: &Tensor) -> Result<(), ScheduleError> {
        let is_plain = matches!(
            self.spec(t.op_id()).as_deref(),
            Some(ComputeSpec {
                body: ComputeBody::Plain(_),
                ..
            })
        );
        let stage = self.stage_mut(t)?;
        if stage.is_output {
            return Err(ScheduleError::InlineOutput {
                stage: t.name().to_string(),
            });
        }
        if !is_plain {
            return Err(ScheduleError::InlineReduction {
                stage: t.name().to_string(),
            });
        }
        stage.attach = Attach::Inline;
        Ok(())
    }

    /// Sets the memory scope of a stage's buffer.
    pub fn set_scope(&mut self, t: &Tensor, scope: MemScope) -> Result<(), ScheduleError> {
        self.stage_mut(t)?.scope = scope;
        Ok(())
    }

    /// Creates a cached copy of `t` in `scope` and redirects `readers` to
    /// consume the cache — the `cache_read` primitive that enables
    /// cooperative shared-memory fetching (§4.2) and accelerator DMA
    /// staging.
    pub fn cache_read(
        &mut self,
        t: &Tensor,
        scope: MemScope,
        readers: &[&Tensor],
    ) -> Result<Tensor, ScheduleError> {
        if readers.is_empty() {
            return Err(ScheduleError::NoReaders {
                tensor: t.name().to_string(),
            });
        }
        // Validate up front (before installing any override) so a failed
        // call leaves the schedule untouched.
        let mut insert_at = usize::MAX;
        for reader in readers {
            if self.spec(reader.op_id()).is_none() {
                return Err(ScheduleError::NoBody {
                    primitive: "cache_read reader",
                    stage: reader.name().to_string(),
                });
            }
            insert_at = insert_at.min(self.stage_index(reader)?);
        }
        let axes: Vec<IterVar> = t
            .shape()
            .iter()
            .enumerate()
            .map(|(d, &e)| IterVar::data(e, format!("{}_{}_c{}", t.name(), scope.name(), d)))
            .collect();
        let idx: Vec<Expr> = axes.iter().map(|a| a.expr()).collect();
        let body = ComputeBody::Plain(t.at(&idx));
        let cached = compute_with_axes(
            t.shape(),
            format!("{}.{}", t.name(), scope.name()),
            axes,
            body,
            std::slice::from_ref(t),
        );
        // Redirect reader specs (validated non-placeholder above) via
        // overrides — the ops themselves stay untouched.
        for reader in readers {
            let spec = self
                .spec(reader.op_id())
                .ok_or_else(|| ScheduleError::NoBody {
                    primitive: "cache_read reader",
                    stage: reader.name().to_string(),
                })?;
            let new_body = crate::rewrite::replace_reads(&spec.body, t.op_id(), &cached);
            let mut known: Vec<Tensor> = spec.reads.clone();
            known.push(cached.clone());
            let new_spec = ComputeSpec::gather(new_body, &|id| {
                known.iter().find(|x| x.op_id() == id).cloned()
            });
            self.overrides.insert(reader.op_id(), Arc::new(new_spec));
        }
        self.tensors.insert(cached.op_id(), cached.clone());
        // Insert the cache stage immediately before the earliest reader.
        let mut stage = Stage::new(cached.clone(), false);
        stage.scope = scope;
        self.insert_stage(insert_at, stage);
        Ok(cached)
    }

    /// Moves `t`'s computation into a new stage writing to `scope`, leaving
    /// the original stage as a copy-out — the `cache_write` primitive used
    /// for register/accumulator tiling.
    ///
    /// Must be applied before other primitives touch `t`'s stage: the
    /// reduction axes move to the returned cache stage.
    pub fn cache_write(&mut self, t: &Tensor, scope: MemScope) -> Result<Tensor, ScheduleError> {
        let spec = self.spec(t.op_id()).ok_or_else(|| ScheduleError::NoBody {
            primitive: "cache_write",
            stage: t.name().to_string(),
        })?;
        // Validate placement before installing any override below.
        let orig_index = self.stage_index(t)?;
        if !self.stages[orig_index].relations.is_empty() {
            return Err(ScheduleError::CacheWriteNotFirst {
                stage: t.name().to_string(),
            });
        }
        let old_axes = t.op.axes();
        let new_axes: Vec<IterVar> = t
            .shape()
            .iter()
            .enumerate()
            .map(|(d, &e)| IterVar::data(e, format!("{}_{}_w{}", t.name(), scope.name(), d)))
            .collect();
        let mut sub = IdMap::default();
        for (old, new) in old_axes.iter().zip(&new_axes) {
            sub.insert(old.var.id(), new.expr());
        }
        let new_body = crate::rewrite::substitute_body(&spec.body, &sub);
        let cached = compute_with_axes(
            t.shape(),
            format!("{}.{}", t.name(), scope.name()),
            new_axes,
            new_body,
            &spec.reads,
        );
        // The original op becomes an identity copy of the cache — as an
        // override, so the shared op itself is untouched.
        let idx: Vec<Expr> = old_axes.iter().map(|a| a.expr()).collect();
        let copy_spec = ComputeSpec::gather(ComputeBody::Plain(cached.at(&idx)), &|id| {
            (id == cached.op_id()).then(|| cached.clone())
        });
        self.overrides.insert(t.op_id(), Arc::new(copy_spec));
        self.tensors.insert(cached.op_id(), cached.clone());
        // Reset the original stage's loop state: its reduce axes are gone.
        self.stages[orig_index].leaf_iters = t.op.axes();
        let mut stage = Stage::new(cached.clone(), false);
        stage.scope = scope;
        self.insert_stage(orig_index, stage);
        Ok(cached)
    }

    /// Replaces the loop nest from leaf `iv` inwards with a declared
    /// hardware intrinsic (§4.3).
    pub fn tensorize(
        &mut self,
        t: &Tensor,
        iv: &IterVar,
        intrin: TensorIntrin,
    ) -> Result<(), ScheduleError> {
        let stage = self.stage_mut(t)?;
        stage.leaf_pos(iv)?; // validate
        stage.tensorize_at = Some((iv.var.id(), intrin));
        Ok(())
    }

    fn insert_stage(&mut self, index: usize, stage: Stage) {
        let id = stage.op_id();
        self.stages.insert(index, stage);
        self.stage_of.clear();
        for (i, s) in self.stages.iter().enumerate() {
            self.stage_of.insert(s.op_id(), i);
        }
        debug_assert!(self.stage_of.contains_key(&id));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::{compute, placeholder, reduce_axis, sum};
    use tvm_ir::DType;

    fn matmul(n: i64) -> (Tensor, Tensor, Tensor) {
        let a = placeholder(&[n, n], DType::float32(), "A");
        let b = placeholder(&[n, n], DType::float32(), "B");
        let k = reduce_axis(n, "k");
        let c = compute(&[n, n], "C", |i| {
            sum(
                a.at(&[i[0].clone(), k.expr()]) * b.at(&[k.expr(), i[1].clone()]),
                std::slice::from_ref(&k),
            )
        });
        (a, b, c)
    }

    #[test]
    fn create_schedule_orders_producers_first() {
        let (_, _, c) = matmul(16);
        let d = compute(&[16, 16], "D", |i| c.at(&[i[0].clone(), i[1].clone()]) + 1);
        let s = create_schedule(std::slice::from_ref(&d));
        assert_eq!(s.stages.len(), 2);
        assert_eq!(s.stages[0].tensor.name(), "C");
        assert_eq!(s.stages[1].tensor.name(), "D");
        assert!(s.stages[1].is_output);
        assert!(!s.stages[0].is_output);
    }

    #[test]
    fn split_replaces_leaf() {
        let (_, _, c) = matmul(16);
        let mut s = create_schedule(std::slice::from_ref(&c));
        let axes = c.op.axes();
        assert_eq!(s.stage(&c).unwrap().leaf_iters.len(), 3); // y, x, k
        let (yo, yi) = s.split(&c, &axes[0], 4).unwrap();
        let leaves = &s.stage(&c).unwrap().leaf_iters;
        assert_eq!(leaves.len(), 4);
        assert_eq!(leaves[0].var, yo.var);
        assert_eq!(leaves[1].var, yi.var);
    }

    #[test]
    fn split_levels_nests_outermost_first() {
        let (a, b, c) = matmul(64);
        let mut s = create_schedule(std::slice::from_ref(&c));
        let axes = c.op.axes();
        let levels = s.split_levels(&c, &axes[0], &[8, 2]).unwrap();
        assert_eq!(levels.len(), 3);
        let leaves = &s.stage(&c).unwrap().leaf_iters;
        // Leaves: [y.o, y.i.o, y.i.i, x, k], outermost level first.
        assert_eq!(leaves[0].var, levels[0].var);
        assert_eq!(leaves[1].var, levels[1].var);
        assert_eq!(leaves[2].var, levels[2].var);
        // The derived loop nest still lowers (extents 4 * 8 * 2 = 64).
        let f = crate::lower(&s, &[a, b, c], "ml_split").expect("lowers");
        assert!(!format!("{f:?}").is_empty());
    }

    #[test]
    fn tile_reorders() {
        let (_, _, c) = matmul(16);
        let mut s = create_schedule(std::slice::from_ref(&c));
        let axes = c.op.axes();
        let (yo, xo, yi, xi) = s.tile(&c, &axes[0], &axes[1], 4, 4).unwrap();
        let names: Vec<VarId> = s
            .stage(&c)
            .unwrap()
            .leaf_iters
            .iter()
            .map(|l| l.var.id())
            .collect();
        assert_eq!(
            names[..4],
            [yo.var.id(), xo.var.id(), yi.var.id(), xi.var.id()]
        );
    }

    #[test]
    fn fuse_requires_adjacent() {
        let (_, _, c) = matmul(16);
        let mut s = create_schedule(std::slice::from_ref(&c));
        let axes = c.op.axes();
        let f = s.fuse(&c, &axes[0], &axes[1]).unwrap();
        let leaves = &s.stage(&c).unwrap().leaf_iters;
        assert_eq!(leaves.len(), 2); // fused, k
        assert_eq!(leaves[0].var, f.var);
    }

    #[test]
    fn cache_write_moves_reduction() {
        let (_, _, c) = matmul(16);
        let mut s = create_schedule(std::slice::from_ref(&c));
        let cl = s.cache_write(&c, MemScope::Local).unwrap();
        assert_eq!(s.stages.len(), 2);
        assert_eq!(s.stages[0].tensor.op_id(), cl.op_id());
        assert_eq!(s.stages[0].scope, MemScope::Local);
        // Under this schedule the original op is an identity read of the
        // cache; the op itself is untouched (shared across schedules).
        assert!(matches!(
            s.spec(c.op_id()).expect("spec").body,
            ComputeBody::Plain(_)
        ));
        assert!(matches!(
            c.op.body().expect("body"),
            ComputeBody::Reduce { .. }
        ));
        assert_eq!(s.stage(&c).unwrap().leaf_iters.len(), 2); // reduce axis moved
        assert_eq!(s.stage(&cl).unwrap().leaf_iters.len(), 3);
    }

    #[test]
    fn cache_read_redirects_readers() {
        let (a, _, c) = matmul(16);
        let mut s = create_schedule(std::slice::from_ref(&c));
        let ashared = s.cache_read(&a, MemScope::Shared, &[&c]).unwrap();
        let inputs = s.input_tensors_of(c.op_id());
        assert!(inputs.iter().any(|t| t.op_id() == ashared.op_id()));
        assert!(!inputs.iter().any(|t| t.op_id() == a.op_id()));
        // The op's declared dataflow is untouched.
        let declared = c.op.input_tensors();
        assert!(declared.iter().any(|t| t.op_id() == a.op_id()));
        assert_eq!(s.stage(&ashared).unwrap().scope, MemScope::Shared);
        // Cache stage precedes the consumer.
        assert!(s.stage_index(&ashared).unwrap() < s.stage_index(&c).unwrap());
    }

    #[test]
    fn split_nonexistent_leaf_errors() {
        let (_, _, c) = matmul(16);
        let mut s = create_schedule(std::slice::from_ref(&c));
        let bogus = IterVar::data(4, "bogus");
        let err = s.split(&c, &bogus, 2).unwrap_err();
        assert!(matches!(err, ScheduleError::NotALeaf { .. }), "{err}");
        assert!(err.to_string().contains("not a leaf"), "{err}");
    }

    #[test]
    fn bad_primitive_applications_error() {
        let (a, _, c) = matmul(16);
        let mut s = create_schedule(std::slice::from_ref(&c));
        let axes = c.op.axes();
        assert!(matches!(
            s.split(&c, &axes[0], 0),
            Err(ScheduleError::BadSplitFactor { .. })
        ));
        // Fusing y with k (not adjacent to y) is rejected.
        let k = &s.stage(&c).unwrap().leaf_iters[2].clone();
        assert!(matches!(
            s.fuse(&c, &axes[0], k),
            Err(ScheduleError::NotAdjacent { .. })
        ));
        assert!(matches!(
            s.compute_inline(&c),
            Err(ScheduleError::InlineOutput { .. })
        ));
        assert!(matches!(
            s.cache_read(&a, MemScope::Shared, &[]),
            Err(ScheduleError::NoReaders { .. })
        ));
        assert!(matches!(
            s.cache_write(&a, MemScope::Local),
            Err(ScheduleError::NoBody { .. })
        ));
        // An unscheduled tensor is reported by name.
        let stray = placeholder(&[4], DType::float32(), "stray");
        assert!(matches!(
            s.stage_index(&stray),
            Err(ScheduleError::NotScheduled { .. })
        ));
    }
}
