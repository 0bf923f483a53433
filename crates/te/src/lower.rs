//! Schedule lowering: bound inference + loop-nest code generation.
//!
//! Turns a schedule (`crate::schedule::Schedule`) into a lowered
//! function:
//!
//! 1. **Inlining** — stages marked `compute_inline` are substituted into
//!    their consumers' bodies (this is how fused injective operators
//!    disappear into the complex op's loop nest, §3).
//! 2. **Bound inference** — every stage gets a *realize region* (per-axis
//!    symbolic min + constant extent): full shape at root, or the region its
//!    consumer touches when `compute_at`-nested. Thread-bound consumer axes
//!    are relaxed (ranged over) when the producer lives in shared memory,
//!    which is what sizes cooperative-fetch tiles (§4.2).
//! 3. **Emission** — loop nests are generated per stage, nesting attached
//!    producers at their attachment points, unifying loops bound to the
//!    same GPU thread axis, inserting barriers around shared-scope
//!    producers, splicing tensorized intrinsics (§4.3) and honoring
//!    `dma_copy` pragmas.
//! 4. **Post passes** — shared allocations are hoisted out of thread loops,
//!    virtual threads are lowered to an interleaved instruction stream with
//!    explicit DAE tokens (§4.4), and the result is simplified.
//!
//! A tuning task that tries many annotation variants of one structure
//! emits it once with every annotation point marked ([`mark_points`]) and
//! derives each variant by rewriting loop kinds ([`relabel_loops`]).

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use tvm_ir::expr::ExprNode;
use tvm_ir::stmt::StmtNode;
use tvm_ir::{
    BinOp, DType, Expr, ForKind, IdMap, IdSet, Interval, LoweredFunc, MemScope, Stmt, ThreadTag,
    Var, VarId, Visitor,
};

use crate::schedule::{Attach, IterRelation, LoopAnn, Schedule, Stage};
use crate::tensor::{collect_reads, ComputeBody, IterKind, IterVar, OpId, Tensor};
use crate::tensorize::BufferSlice;

/// Lowering / schedule-application error.
#[derive(Debug, Clone)]
pub enum TeError {
    /// Free-form lowering failure.
    Msg(String),
    /// A schedule primitive failed (bad itervar, unscheduled tensor, ...).
    Schedule(crate::schedule::ScheduleError),
    /// A `compute_at` producer whose consumer never received inferred
    /// bounds. The common cause is attaching to a stage that was itself
    /// inlined away (`consumer_inlined`); the fix is to attach to the
    /// surviving stage the consumer was inlined into.
    ComputeAtUnbounded {
        /// The attached producer stage.
        producer: String,
        /// The consumer it was attached to.
        consumer: String,
        /// True when the consumer stage is marked `compute_inline`.
        consumer_inlined: bool,
    },
    /// An annotation point on a leaf the structure already runs as a
    /// virtual thread: annotating it would replace the virtual thread, so
    /// [`mark_points`] refuses it.
    VThreadPoint {
        /// The point's itervar.
        iter: String,
        /// Its stage.
        stage: String,
    },
}

impl TeError {
    /// Free-form error constructor.
    pub fn msg(m: impl Into<String>) -> TeError {
        TeError::Msg(m.into())
    }
}

impl fmt::Display for TeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TeError::Msg(m) => write!(f, "lowering error: {m}"),
            TeError::Schedule(e) => write!(f, "lowering error: {e}"),
            TeError::ComputeAtUnbounded {
                producer,
                consumer,
                consumer_inlined,
            } => {
                write!(
                    f,
                    "lowering error: compute_at consumer `{consumer}` of `{producer}` \
                     was never bounded"
                )?;
                if *consumer_inlined {
                    write!(
                        f,
                        ": `{consumer}` is inlined, so it has no loops to attach to \
                         (attach `{producer}` to the stage `{consumer}` was inlined into, \
                         or drop the compute_inline)"
                    )
                } else {
                    write!(f, " (is the attachment circular?)")
                }
            }
            TeError::VThreadPoint { iter, stage } => write!(
                f,
                "lowering error: annotation point `{iter}` of stage `{stage}` is a virtual \
                 thread, which an annotation would replace"
            ),
        }
    }
}
impl std::error::Error for TeError {}

impl From<crate::schedule::ScheduleError> for TeError {
    fn from(e: crate::schedule::ScheduleError) -> TeError {
        TeError::Schedule(e)
    }
}

fn err<T>(msg: impl Into<String>) -> Result<T, TeError> {
    Err(TeError::Msg(msg.into()))
}

/// Options for [`lower_with`].
#[derive(Clone, Default, Debug)]
pub struct LowerOptions {
    /// Inject decoupled-access-execute dependence tokens and interleave
    /// virtual threads for a DAE accelerator target (§4.4).
    pub dae_sync: bool,
}

// Process-wide lowering counters, surfaced through [`lower_stats`]: full
// emissions vs. plan-cache reuse and relabeled variants, and how long
// workers queue on the plan cache lock. They count whether or not
// `tvm-obs` is recording (`tests/lower_stats.rs`), because the perf ledger
// reads them with it off.
static LOWERINGS: AtomicU64 = AtomicU64::new(0);
static RELABELS: AtomicU64 = AtomicU64::new(0);
static PLAN_HITS: AtomicU64 = AtomicU64::new(0);
static PLAN_MISSES: AtomicU64 = AtomicU64::new(0);
static PLAN_LOCK_WAIT_NS: AtomicU64 = AtomicU64::new(0);

/// Snapshot of the process-wide lowering counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LowerStats {
    /// Full schedule emissions ([`emit_planned`] calls, including those
    /// reached through [`lower`] / [`lower_with`]). A planned tuning task
    /// emits at most once per structure (a plan miss whose structure
    /// lowers); each candidate is a [`LowerStats::relabels`].
    pub lowerings: u64,
    /// Annotation variants derived from a marked emission by
    /// [`relabel_loops`] instead of emitted.
    pub relabels: u64,
    /// [`PlanCache`] lookups served from a cached entry.
    pub plan_hits: u64,
    /// [`PlanCache`] lookups that had to build a fresh entry.
    pub plan_misses: u64,
    /// Total nanoseconds spent waiting on contended [`PlanCache`] locks.
    pub lock_wait_ns: u64,
}

/// Returns the current process-wide lowering counters.
pub fn lower_stats() -> LowerStats {
    LowerStats {
        lowerings: LOWERINGS.load(Ordering::Relaxed),
        relabels: RELABELS.load(Ordering::Relaxed),
        plan_hits: PLAN_HITS.load(Ordering::Relaxed),
        plan_misses: PLAN_MISSES.load(Ordering::Relaxed),
        lock_wait_ns: PLAN_LOCK_WAIT_NS.load(Ordering::Relaxed),
    }
}

/// Locks `m`, recording the wait when the lock was contended. Poisoned
/// locks are recovered rather than propagated: the cache only holds
/// immutable `Arc`s, so a panicking peer cannot leave it torn.
fn lock_timed<'m, T>(m: &'m Mutex<T>) -> MutexGuard<'m, T> {
    if let Ok(g) = m.try_lock() {
        return g;
    }
    let start = Instant::now();
    let g = m.lock().unwrap_or_else(|e| e.into_inner());
    let ns = start.elapsed().as_nanos() as u64;
    PLAN_LOCK_WAIT_NS.fetch_add(ns, Ordering::Relaxed);
    g
}

/// A bounded, thread-safe memo table for incremental lowering.
///
/// Keyed by whatever digest the caller derives from the *structural* part
/// of a schedule configuration (splits, reorders, bindings, attachments);
/// annotation-only knobs (vectorize/unroll/parallel) do not change the
/// plan, so simulated-annealing neighbors that only toggle them reuse the
/// cached entry (a planned tuning task's marked kernel, or the error its
/// structure lowers to). Misses build outside the lock — concurrent
/// duplicate builds are harmless (first insert wins).
pub struct PlanCache<T> {
    inner: Mutex<PlanMap<T>>,
    cap: usize,
}

/// One cached plan plus its second-chance reference bit.
struct PlanEntry<T> {
    value: Arc<T>,
    referenced: bool,
}

/// The guarded state: the key→plan map and the clock-hand FIFO the
/// second-chance evictor sweeps.
struct PlanMap<T> {
    map: HashMap<u64, PlanEntry<T>>,
    queue: VecDeque<u64>,
}

impl<T> Default for PlanCache<T> {
    fn default() -> Self {
        // Sized above the largest template search space's structural-key
        // count (conv2d ≈ 1.5k); an undersized cache degrades gracefully
        // through second-chance eviction instead of thrashing.
        PlanCache::new(8192)
    }
}

impl<T> PlanCache<T> {
    /// Creates a cache holding at most `cap` entries. At capacity one
    /// victim is evicted by second-chance (clock) selection: entries hit
    /// since their last sweep are spared, so a working set one entry over
    /// capacity keeps its hot members instead of losing the whole cache.
    pub fn new(cap: usize) -> Self {
        PlanCache {
            inner: Mutex::new(PlanMap {
                map: HashMap::new(),
                queue: VecDeque::new(),
            }),
            cap: cap.max(1),
        }
    }

    /// Returns the cached value for `key`, building it with `build` on a
    /// miss. The build runs outside the lock; a value that can fail caches
    /// its failure too (`T = Result<_, _>`), so a key is built once.
    pub fn get_or_build(&self, key: u64, build: impl FnOnce() -> T) -> Arc<T> {
        {
            let mut inner = lock_timed(&self.inner);
            if let Some(entry) = inner.map.get_mut(&key) {
                PLAN_HITS.fetch_add(1, Ordering::Relaxed);
                entry.referenced = true;
                return Arc::clone(&entry.value);
            }
        }
        PLAN_MISSES.fetch_add(1, Ordering::Relaxed);
        let built = Arc::new(build());
        let mut inner = lock_timed(&self.inner);
        // A racing duplicate build may have inserted while we were
        // building; first insert wins (and counts as a reference).
        if let Some(entry) = inner.map.get_mut(&key) {
            entry.referenced = true;
            return Arc::clone(&entry.value);
        }
        while inner.map.len() >= self.cap {
            // Second chance: rotate referenced entries to the back with
            // their bit cleared; evict the first unreferenced one. The
            // sweep terminates because each rotation clears a bit.
            match inner.queue.pop_front() {
                Some(victim) => {
                    let spare = match inner.map.get_mut(&victim) {
                        Some(entry) if entry.referenced => {
                            entry.referenced = false;
                            true
                        }
                        Some(_) => false,
                        // Stale queue slot (key already evicted): drop it.
                        None => continue,
                    };
                    if spare {
                        inner.queue.push_back(victim);
                    } else {
                        inner.map.remove(&victim);
                    }
                }
                None => break,
            }
        }
        inner.map.insert(
            key,
            PlanEntry {
                value: Arc::clone(&built),
                referenced: false,
            },
        );
        inner.queue.push_back(key);
        built
    }

    /// Number of currently cached plans.
    pub fn len(&self) -> usize {
        lock_timed(&self.inner).map.len()
    }

    /// True when no plans are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Per-stage results of bound inference.
#[derive(Clone, Debug)]
struct StageData {
    /// Per-data-axis region min (symbolic in outer loop vars).
    realize_min: Vec<Expr>,
    /// Per-data-axis region extent.
    realize_ext: Vec<i64>,
    /// Extent of every itervar of the stage.
    extents: IdMap<VarId, i64>,
    /// Root/intermediate itervar -> expression in leaf vars (local coords).
    /// A renamed stage keeps its root axes' only (see [`StageData::rename`]).
    var_expr: IdMap<VarId, Expr>,
    /// Guard predicates (local coords) from non-perfect splits, with the
    /// root axis kind of the guarded variable.
    guards: Vec<(Expr, IterKind)>,
}

impl StageData {
    /// Rewrites the stage's pieces by `to` in place. Only the expressions
    /// of the axes emission substitutes (`stage`'s axes and `body`'s reduce
    /// axes) are kept: the others served bound inference only.
    fn rename(&mut self, stage: &Stage, body: &ComputeBody, to: &IdMap<VarId, Expr>) {
        let mut axes: Vec<VarId> = stage.tensor.op.axes().iter().map(|a| a.var.id()).collect();
        if let ComputeBody::Reduce { axes: raxes, .. } = body {
            axes.extend(raxes.iter().map(|r| r.var.id()));
        }
        self.var_expr.retain(|id, _| axes.contains(id));
        let mut r = Renamer::new(to);
        for e in self.var_expr.values_mut() {
            *e = tvm_ir::Mutator::mutate_expr(&mut r, e);
        }
        for e in &mut self.realize_min {
            *e = tvm_ir::Mutator::mutate_expr(&mut r, e);
        }
        for (g, _) in &mut self.guards {
            *g = tvm_ir::Mutator::mutate_expr(&mut r, g);
        }
    }
}

/// Substitutes variables, rewriting a subtree that pieces share once so the
/// results share it too (the axes of a fuse hold the fused expression, a
/// guard its split parent's).
struct Renamer<'a> {
    to: &'a IdMap<VarId, Expr>,
    /// Shared nodes by address, each with its rewrite; holding the input
    /// keeps the address from being reused while the memo lives.
    memo: IdMap<usize, (Expr, Expr)>,
}

impl<'a> Renamer<'a> {
    fn new(to: &'a IdMap<VarId, Expr>) -> Self {
        Renamer {
            to,
            memo: IdMap::default(),
        }
    }
}

impl tvm_ir::Mutator for Renamer<'_> {
    fn mutate_expr(&mut self, e: &Expr) -> Expr {
        if let ExprNode::Var(v) = &*e.0 {
            return self.to.get(&v.id()).unwrap_or(e).clone();
        }
        if Arc::strong_count(&e.0) == 1 {
            return self.default_mutate_expr(e);
        }
        let key = Arc::as_ptr(&e.0) as usize;
        if let Some((_, out)) = self.memo.get(&key) {
            return out.clone();
        }
        let out = self.default_mutate_expr(e);
        self.memo.insert(key, (e.clone(), out.clone()));
        out
    }
}

/// Lowers a schedule into a function over `args` (placeholders then
/// outputs, in the order the caller wants parameters bound).
pub fn lower(sched: &Schedule, args: &[Tensor], name: &str) -> Result<LoweredFunc, TeError> {
    lower_with(sched, args, name, &LowerOptions::default())
}

/// Lowers a schedule with explicit options: plan, then emit.
pub fn lower_with(
    sched: &Schedule,
    args: &[Tensor],
    name: &str,
    opts: &LowerOptions,
) -> Result<LoweredFunc, TeError> {
    // Pass-level tracing: children of this span are the lowering stages
    // (a no-op when the global obs registry is disabled).
    let _lower_span = tvm_obs::span_with("lower", &[("kernel", name)]);
    let plan = plan_schedule(sched)?;
    emit_planned(sched, &plan, args, name, opts)
}

/// The annotation-independent half of lowering: effective bodies after
/// inlining, inferred bounds, the attachment map and the canonical thread
/// variables. A plan depends only on the *structure* of a schedule
/// (splits, fuses, reorders, thread bindings, attachments, scopes), not on
/// loop annotations (vectorize/unroll/parallel/pragma), so it can be
/// cached and re-emitted for every annotation variant of the same
/// structural configuration — see [`PlanCache`].
///
/// A plan writes each thread-bound leaf as its tag's canonical variable in
/// the pieces every index is built from (realize mins, leaf-coordinate
/// expressions, guards), so emission builds each kernel's loop tree once.
pub struct LowerPlan {
    bodies: IdMap<OpId, ComputeBody>,
    data: IdMap<OpId, StageData>,
    attach_map: IdMap<(OpId, VarId), Vec<OpId>>,
    thread_vars: HashMap<ThreadTag, (Var, i64)>,
    /// Stages whose pieces keep their own leaves (see [`raw_stages`]).
    raw: IdSet<OpId>,
}

/// Runs the analysis half of lowering (inlining, bound inference,
/// attachment/thread pre-scans) without emitting code.
pub fn plan_schedule(sched: &Schedule) -> Result<LowerPlan, TeError> {
    let mut plan = plan_in_leaves(sched)?;
    let bound = bound_leaves(sched, &plan.thread_vars);
    if !bound.is_empty() {
        plan.raw = raw_stages(sched, &plan.bodies, &plan.data, &bound);
        for stage in &sched.stages {
            let op = stage.op_id();
            let (Some(sd), Some(body)) = (plan.data.get_mut(&op), plan.bodies.get(&op)) else {
                continue;
            };
            if !plan.raw.contains(&op) {
                sd.rename(stage, body, &bound);
            }
        }
    }
    Ok(plan)
}

/// A plan whose pieces are all in the stages' own leaves.
fn plan_in_leaves(sched: &Schedule) -> Result<LowerPlan, TeError> {
    let bodies = {
        let _s = tvm_obs::span("effective_bodies");
        effective_bodies(sched)
    };
    let data = {
        let _s = tvm_obs::span("infer_bounds");
        infer_bounds(sched, &bodies)?
    };

    // Attachment map.
    let mut attach_map: IdMap<(OpId, VarId), Vec<OpId>> = IdMap::default();
    for stage in &sched.stages {
        if let Attach::At { consumer, iter } = &stage.attach {
            attach_map
                .entry((*consumer, iter.id()))
                .or_default()
                .push(stage.op_id());
        }
    }

    // Pre-scan thread bindings: one canonical variable per tag, sized to
    // the largest extent bound anywhere in the kernel. Stages binding a
    // smaller extent run guarded on the canonical variable.
    let mut thread_vars: HashMap<ThreadTag, (Var, i64)> = HashMap::new();
    for stage in &sched.stages {
        if matches!(stage.attach, Attach::Inline) {
            continue;
        }
        let Some(sd) = data.get(&stage.op_id()) else {
            continue;
        };
        for leaf in &stage.leaf_iters {
            if let Some(attr) = stage.iter_attrs.get(&leaf.var.id()) {
                if let Some(tag) = attr.thread {
                    let ext = sd.extents.get(&leaf.var.id()).copied().unwrap_or(1);
                    let entry = thread_vars
                        .entry(tag)
                        .or_insert_with(|| (Var::int(tag.name()), ext));
                    entry.1 = entry.1.max(ext);
                }
            }
        }
    }

    Ok(LowerPlan {
        bodies,
        data,
        attach_map,
        thread_vars,
        raw: IdSet::default(),
    })
}

/// Every thread-bound leaf emission opens a loop level for (the leaves
/// before a tensorized region), mapped to its tag's canonical variable.
fn bound_leaves(
    sched: &Schedule,
    thread_vars: &HashMap<ThreadTag, (Var, i64)>,
) -> IdMap<VarId, Expr> {
    let canonical: Vec<(ThreadTag, Expr)> = thread_vars
        .iter()
        .map(|(tag, (v, _))| (*tag, v.to_expr()))
        .collect();
    let mut out: IdMap<VarId, Expr> = IdMap::default();
    for stage in &sched.stages {
        if matches!(stage.attach, Attach::Inline) {
            continue;
        }
        for leaf in &stage.leaf_iters[..loop_end(stage)] {
            let Some(tag) = stage.iter_attrs.get(&leaf.var.id()).and_then(|a| a.thread) else {
                continue;
            };
            if let Some((_, tv)) = canonical.iter().find(|(t, _)| *t == tag) {
                out.insert(leaf.var.id(), tv.clone());
            }
        }
    }
    out
}

/// The stages emitted in their own leaves, whose statements take the
/// canonical thread variables once built. Renaming a stage's pieces before
/// emission would change what `simplify` sees in two cases:
///
/// * a bound data leaf under the reduce loop: the reset nest loops over it
///   as a serial variable, and only the update nest unifies it;
/// * two leaves of one tag in one stage's pieces (its own leaves, its
///   realize min, the mins of the tensors it reads): once both are the
///   canonical variable, `merge_terms` and `structural_eq` merge them.
///
/// A tensor a raw stage reads is raw too, so that an index and the min it
/// is rebased by are in the same variables.
fn raw_stages(
    sched: &Schedule,
    bodies: &IdMap<OpId, ComputeBody>,
    data: &IdMap<OpId, StageData>,
    bound: &IdMap<VarId, Expr>,
) -> IdSet<OpId> {
    // The bound leaves in each stage's realize min.
    let mut in_min: IdMap<OpId, Vec<VarId>> = IdMap::default();
    for (op, sd) in data {
        let mut vars = Vec::new();
        for m in sd.realize_min.iter().filter(|m| m.as_int().is_none()) {
            for v in tvm_ir::collect_vars(m) {
                if bound.contains_key(&v.id()) {
                    vars.push(v.id());
                }
            }
        }
        if !vars.is_empty() {
            in_min.insert(*op, vars);
        }
    }
    let mut raw: IdSet<OpId> = IdSet::default();
    for stage in &sched.stages {
        let op = stage.op_id();
        let Some(body) = bodies.get(&op) else {
            continue;
        };
        let reset = matches!(body, ComputeBody::Reduce { .. })
            && reset_leaves(&stage.leaf_iters, loop_end(stage))
                .any(|l| bound.contains_key(&l.var.id()));
        // (canonical variable, the leaf first seen for it)
        let mut seen: Vec<(VarId, VarId)> = Vec::new();
        let mut clash = false;
        let leaves = stage.leaf_iters.iter().map(|l| l.var.id());
        let mins = std::iter::once(op)
            .chain(read_ops(sched, op))
            .filter_map(|q| in_min.get(&q))
            .flatten()
            .copied();
        for v in leaves.chain(mins) {
            let Some(c) = bound.get(&v).and_then(Expr::as_var) else {
                continue;
            };
            match seen.iter().find(|(id, _)| *id == c.id()) {
                Some((_, first)) => clash |= *first != v,
                None => seen.push((c.id(), v)),
            }
        }
        if reset || clash {
            raw.insert(op);
        }
    }
    let mut work: Vec<OpId> = raw.iter().copied().collect();
    while let Some(op) = work.pop() {
        for q in read_ops(sched, op) {
            if sched.stage_by_op(q).is_some() && raw.insert(q) {
                work.push(q);
            }
        }
    }
    raw
}

/// The ops stage `op` reads once inlined stages are substituted into it.
fn read_ops(sched: &Schedule, op: OpId) -> Vec<OpId> {
    let mut out = Vec::new();
    let mut work = vec![op];
    while let Some(id) = work.pop() {
        let Some(spec) = sched.spec(id) else {
            continue;
        };
        for t in &spec.reads {
            let q = t.op_id();
            let inlined = sched
                .stage_by_op(q)
                .is_some_and(|st| matches!(st.attach, Attach::Inline));
            if inlined {
                work.push(q);
            } else if !out.contains(&q) {
                out.push(q);
            }
        }
    }
    out
}

/// Where a stage's loop levels end: at its tensorized region, or after its
/// last leaf.
fn loop_end(stage: &Stage) -> usize {
    stage
        .tensorize_at
        .as_ref()
        .and_then(|(vid, _)| stage.leaf_iters.iter().position(|l| l.var.id() == *vid))
        .unwrap_or(stage.leaf_iters.len())
}

/// The data leaves a reduction's reset nest loops over: those from the first
/// reduce leaf up to `end`, the stage's [`loop_end`].
fn reset_leaves(leaves: &[IterVar], end: usize) -> impl Iterator<Item = &IterVar> {
    let p = leaves
        .iter()
        .position(|l| l.kind == IterKind::Reduce)
        .unwrap_or(0)
        .min(end);
    leaves[p..end].iter().filter(|l| l.kind == IterKind::Data)
}

/// Emits a lowered function from a pre-computed [`LowerPlan`]. `sched`
/// must be the schedule the plan was computed from, or a clone of it that
/// differs only in loop annotations (the clone shares itervar identities,
/// which is what keeps the plan's variable maps valid).
pub fn emit_planned(
    sched: &Schedule,
    plan: &LowerPlan,
    args: &[Tensor],
    name: &str,
    opts: &LowerOptions,
) -> Result<LoweredFunc, TeError> {
    LOWERINGS.fetch_add(1, Ordering::Relaxed);
    let em = Emitter::new(sched, plan, args);
    let body = em.emit_roots(args)?;
    Ok(em.finish(body, args, name, opts))
}

/// Marks every leaf in `points` with [`LoopAnn::Unroll`] for
/// [`relabel_loops`], and returns each marked leaf's own loop kind: the
/// kind its loop has when no annotation knob touches it.
///
/// Refuses, leaving `sched` untouched, a point that is not a leaf of its
/// stage ([`ScheduleError::NotALeaf`](crate::ScheduleError::NotALeaf)) or
/// that the structure already annotates [`LoopAnn::VThread`]
/// ([`TeError::VThreadPoint`]: a virtual thread is lowered by rewriting its
/// nest, not by its loop kind, and annotating the leaf would replace it).
/// Either is a bug of the template that named the point.
pub fn mark_points<'a>(
    sched: &mut Schedule,
    points: impl IntoIterator<Item = &'a (Tensor, IterVar)> + Clone,
) -> Result<IdMap<VarId, ForKind>, TeError> {
    let mut base: IdMap<VarId, ForKind> = IdMap::default();
    for (t, iv) in points.clone() {
        let stage = sched.stage(t)?;
        stage.leaf_pos(iv)?;
        let ann = stage.iter_attrs.get(&iv.var.id()).and_then(|a| a.ann);
        if ann == Some(LoopAnn::VThread) {
            return Err(TeError::VThreadPoint {
                iter: iv.var.name().to_string(),
                stage: stage.tensor.name().to_string(),
            });
        }
        base.insert(iv.var.id(), ann.map_or(ForKind::Serial, LoopAnn::loop_kind));
    }
    for (t, iv) in points {
        sched.unroll(t, iv)?;
    }
    Ok(base)
}

/// Derives one annotation variant of a kernel from its marked emission,
/// without emitting it again.
///
/// `marked` is [`emit_planned`]'s output for a schedule whose annotation
/// points were marked by [`mark_points`], and `kinds` gives each point
/// leaf's loop kind in the variant (the base kinds [`mark_points`]
/// returned, overridden by the variant's annotations). Every `Unrolled`
/// loop over a leaf in `kinds` takes that leaf's kind; every other loop
/// keeps its own.
///
/// The result is exactly `emit_planned` of the variant's own schedule (the
/// structure with the variant's annotations and no marks): emission reads
/// a vectorize, unroll or parallel annotation in one place, as the kind of
/// the loop it writes over the leaf, and no later pass (shared-allocation
/// hoisting, virtual-thread lowering, simplification) reads a loop's kind
/// unless it is `VThread` or a thread binding. Two rules keep it exact:
///
/// * A reduction's reset nest loops over the same data leaves as the
///   update, with a `Serial` loop whatever their annotation; only the
///   marked (`Unrolled`) loops are relabeled, so the reset stays `Serial`.
/// * A thread-bound leaf has no loop of its own (the kernel's one loop per
///   tag replaces it), so a point on it has nothing to relabel.
///
/// `tests/relabel_exactness.rs` holds every planned tuning task and
/// generated schedules to this, byte for byte and analysis field for field.
pub fn relabel_loops(marked: &LoweredFunc, kinds: &IdMap<VarId, ForKind>) -> LoweredFunc {
    struct Relabel<'a> {
        kinds: &'a IdMap<VarId, ForKind>,
    }
    impl tvm_ir::Mutator for Relabel<'_> {
        // Only loop kinds change: no expression is rewritten.
        fn mutate_expr(&mut self, e: &Expr) -> Expr {
            e.clone()
        }

        fn mutate_stmt(&mut self, s: &Stmt) -> Stmt {
            if let StmtNode::For {
                var,
                min,
                extent,
                kind: ForKind::Unrolled,
                body,
            } = &*s.0
            {
                if let Some(&kind) = self.kinds.get(&var.id()) {
                    let b = self.mutate_stmt(body);
                    if kind == ForKind::Unrolled && b.same_as(body) {
                        return s.clone();
                    }
                    return Stmt::loop_(var, min.clone(), extent.clone(), kind, b);
                }
            }
            self.default_mutate_stmt(s)
        }
    }
    RELABELS.fetch_add(1, Ordering::Relaxed);
    LoweredFunc {
        body: tvm_ir::Mutator::mutate_stmt(&mut Relabel { kinds }, &marked.body),
        ..marked.clone()
    }
}

/// Applies `compute_inline` substitution, returning effective bodies for
/// every non-inlined compute op.
fn effective_bodies(sched: &Schedule) -> IdMap<OpId, ComputeBody> {
    let mut bodies: IdMap<OpId, ComputeBody> = IdMap::default();
    for stage in &sched.stages {
        if let Some(spec) = sched.spec(stage.op_id()) {
            bodies.insert(stage.op_id(), spec.body.clone());
        }
    }
    // Topological order: inline producers into everything downstream.
    for stage in &sched.stages {
        if !matches!(stage.attach, Attach::Inline) {
            continue;
        }
        let id = stage.op_id();
        let expr = match bodies.get(&id) {
            Some(ComputeBody::Plain(e)) => e.clone(),
            _ => continue, // validated at schedule time
        };
        let axes: Vec<Var> = stage
            .tensor
            .op
            .axes()
            .iter()
            .map(|iv| iv.var.clone())
            .collect();
        for (&key, b) in bodies.iter_mut() {
            if key != id {
                *b = crate::rewrite::inline_reads(b, id, &axes, &expr);
            }
        }
        bodies.remove(&id);
    }
    bodies
}

fn full_realize(shape: &[i64]) -> (Vec<Expr>, Vec<i64>) {
    (shape.iter().map(|_| Expr::int(0)).collect(), shape.to_vec())
}

fn infer_bounds(
    sched: &Schedule,
    bodies: &IdMap<OpId, ComputeBody>,
) -> Result<IdMap<OpId, StageData>, TeError> {
    let mut out: IdMap<OpId, StageData> = IdMap::default();
    // Thread-bound / vthread leaf extents seen so far; when a producer
    // lives in shared memory, these axes are *relaxed* (ranged over) so the
    // tile covers the whole thread block — even when the thread variable
    // reaches the region expression through an attachment chain.
    let mut thread_extents: IdMap<VarId, i64> = IdMap::default();
    // Consumers first.
    for stage in sched.stages.iter().rev() {
        if matches!(stage.attach, Attach::Inline) {
            continue;
        }
        let shape = stage.tensor.shape();
        let (mins, exts) = match &stage.attach {
            Attach::Root | Attach::Inline => full_realize(shape),
            Attach::At { consumer, iter } => {
                let cons_stage = sched.stage_by_op(*consumer).ok_or_else(|| {
                    TeError::msg(format!("unknown consumer for `{}`", stage.tensor.name()))
                })?;
                let cons_data = out
                    .get(consumer)
                    .ok_or_else(|| TeError::ComputeAtUnbounded {
                        producer: stage.tensor.name().to_string(),
                        consumer: cons_stage.tensor.name().to_string(),
                        consumer_inlined: matches!(cons_stage.attach, Attach::Inline),
                    })?;
                compute_region(
                    sched,
                    stage,
                    cons_stage,
                    cons_data,
                    iter,
                    &out,
                    bodies,
                    &thread_extents,
                )?
            }
        };
        // Root iter extents: data axes take realize extents, reduce axes
        // keep declared extents.
        let mut root_ext: IdMap<VarId, i64> = IdMap::default();
        let mut kinds: IdMap<VarId, IterKind> = IdMap::default();
        for (axis, e) in stage.tensor.op.axes().iter().zip(&exts) {
            root_ext.insert(axis.var.id(), *e);
            kinds.insert(axis.var.id(), IterKind::Data);
        }
        // Reduce axes from the *effective* body (cache_write moves them).
        if let Some(ComputeBody::Reduce { axes, .. }) = bodies.get(&stage.op_id()) {
            for r in axes {
                let e = r.const_extent().ok_or_else(|| {
                    TeError::msg(format!(
                        "reduce axis `{}` has no constant extent",
                        r.var.name()
                    ))
                })?;
                root_ext.insert(r.var.id(), e);
                kinds.insert(r.var.id(), IterKind::Reduce);
            }
        }
        let (extents, var_expr, guards) = resolve_iters(stage, root_ext, kinds)?;
        // Record thread-bound / vthread leaves for transitive relaxation.
        for leaf in &stage.leaf_iters {
            if let Some(attr) = stage.iter_attrs.get(&leaf.var.id()) {
                let threaded = matches!(attr.thread, Some(t) if !t.is_block());
                let vthreaded = matches!(attr.ann, Some(LoopAnn::VThread));
                if threaded || vthreaded {
                    if let Some(e) = extents.get(&leaf.var.id()) {
                        thread_extents.insert(leaf.var.id(), *e);
                    }
                }
            }
        }
        out.insert(
            stage.op_id(),
            StageData {
                realize_min: mins,
                realize_ext: exts,
                extents,
                var_expr,
                guards,
            },
        );
    }
    // Placeholders realize their full shape.
    for stage in &sched.stages {
        for inp in sched.input_tensors_of(stage.op_id()) {
            let id = inp.op_id();
            if sched.stage_by_op(id).is_none() && !out.contains_key(&id) {
                let (mins, exts) = full_realize(inp.shape());
                out.insert(
                    id,
                    StageData {
                        realize_min: mins,
                        realize_ext: exts,
                        extents: IdMap::default(),
                        var_expr: IdMap::default(),
                        guards: Vec::new(),
                    },
                );
            }
        }
    }
    Ok(out)
}

/// Computes the realize region of `stage` when attached inside `cons_stage`
/// under leaf `attach_iter`: the box around what the consumer reads there,
/// and what every other stage attached at the same loop reads (`done`
/// holds the bounds of the stages after `stage`).
#[allow(clippy::too_many_arguments)]
fn compute_region(
    sched: &Schedule,
    stage: &Stage,
    cons_stage: &Stage,
    cons_data: &StageData,
    attach_iter: &Var,
    done: &IdMap<OpId, StageData>,
    bodies: &IdMap<OpId, ComputeBody>,
    thread_extents: &IdMap<VarId, i64>,
) -> Result<(Vec<Expr>, Vec<i64>), TeError> {
    let shape = stage.tensor.shape();
    let pos = cons_stage
        .leaf_iters
        .iter()
        .position(|l| l.var == *attach_iter)
        .ok_or_else(|| {
            TeError::msg(format!(
                "attach iter `{}` is not a leaf of `{}`",
                attach_iter.name(),
                cons_stage.tensor.name()
            ))
        })?;
    // Inner vars range; outer vars are symbolic points. Thread-bound and
    // vthread outer leaves are relaxed when the producer is shared.
    let mut inner: IdSet<VarId> = cons_stage.leaf_iters[pos + 1..]
        .iter()
        .map(|l| l.var.id())
        .collect();
    if stage.scope == MemScope::Shared {
        for leaf in &cons_stage.leaf_iters[..=pos] {
            if let Some(attr) = cons_stage.iter_attrs.get(&leaf.var.id()) {
                let threaded = matches!(attr.thread, Some(t) if !t.is_block());
                let vthreaded = matches!(attr.ann, Some(LoopAnn::VThread));
                if threaded || vthreaded {
                    inner.insert(leaf.var.id());
                }
            }
        }
    }
    let mut regions: Vec<(Vec<Expr>, Vec<i64>)> = Vec::new();
    read_regions(
        sched,
        stage,
        cons_stage,
        cons_data,
        &inner,
        bodies,
        thread_extents,
        &mut regions,
    )?;
    // A stage attached at the same loop runs whole inside it, so its reads
    // range over all of its own loops.
    for sib in &sched.stages {
        let here = matches!(&sib.attach, Attach::At { consumer, iter }
            if *consumer == cons_stage.op_id() && iter == attach_iter);
        if !here || sib.op_id() == stage.op_id() {
            continue;
        }
        if let Some(sib_data) = done.get(&sib.op_id()) {
            let all: IdSet<VarId> = sib.leaf_iters.iter().map(|l| l.var.id()).collect();
            read_regions(
                sched,
                stage,
                sib,
                sib_data,
                &all,
                bodies,
                thread_extents,
                &mut regions,
            )?;
        }
    }
    if regions.is_empty() {
        // Nothing at this loop reads this op directly (multi-level
        // attachment chains read through other stages): be conservative.
        return Ok(full_realize(shape));
    }
    // Merge per axis: identical mins -> max extents; otherwise the full axis.
    let (mut mins, mut ext) = regions[0].clone();
    for (m, e) in &regions[1..] {
        for d in 0..shape.len() {
            if m[d].structural_eq(&mins[d]) {
                ext[d] = ext[d].max(e[d]);
            } else {
                mins[d] = Expr::int(0);
                ext[d] = shape[d];
            }
        }
    }
    Ok((mins, ext))
}

/// Appends the region of every read of `stage` in `reader`'s body, with the
/// reader's `inner` loop variables ranged and its other variables pinned.
#[allow(clippy::too_many_arguments)]
fn read_regions(
    sched: &Schedule,
    stage: &Stage,
    reader: &Stage,
    reader_data: &StageData,
    inner: &IdSet<VarId>,
    bodies: &IdMap<OpId, ComputeBody>,
    thread_extents: &IdMap<VarId, i64>,
    regions: &mut Vec<(Vec<Expr>, Vec<i64>)>,
) -> Result<(), TeError> {
    let shape = stage.tensor.shape();
    // Consumer coordinate substitution: axis -> realize_min + local expr.
    let mut sub: IdMap<VarId, Expr> = IdMap::default();
    for (d, axis) in reader.tensor.op.axes().iter().enumerate() {
        let local = reader_data
            .var_expr
            .get(&axis.var.id())
            .cloned()
            .unwrap_or_else(|| axis.expr());
        sub.insert(axis.var.id(), reader_data.realize_min[d].clone() + local);
    }
    if let Some(ComputeBody::Reduce { axes, .. }) = bodies.get(&reader.op_id()) {
        for r in axes {
            let local = reader_data
                .var_expr
                .get(&r.var.id())
                .cloned()
                .unwrap_or_else(|| r.expr());
            sub.insert(r.var.id(), local);
        }
    }
    let body = bodies
        .get(&reader.op_id())
        .ok_or_else(|| TeError::msg(format!("consumer `{}` has no body", reader.tensor.name())))?;
    let target = stage.op_id();
    let lookup = |id: OpId| sched.tensor(id).cloned();
    collect_reads(body.source_expr(), &lookup, &mut |t, idx| {
        if t.op_id() != target {
            return;
        }
        let mut mins = Vec::with_capacity(idx.len());
        let mut exts = Vec::with_capacity(idx.len());
        for (d, e) in idx.iter().enumerate() {
            let e = tvm_ir::simplify(&tvm_ir::substitute(e, &sub));
            let ranged = |v: &Var| {
                inner.contains(&v.id())
                    || (stage.scope == MemScope::Shared && thread_extents.contains_key(&v.id()))
            };
            if divmod_mixes_ranged(&e, &ranged) {
                // A floor-div/mod whose dividend mixes ranged (inner) and
                // pinned (outer) variables has no per-instance width that
                // is uniform in the outer value — e.g. an attachment under
                // a fused-then-split loop whose chunks straddle an inner
                // dimension boundary. Realize the whole axis, like TVM
                // relaxes unaligned fused sub-ranges.
                mins.push(Expr::int(0));
                exts.push(shape[d]);
                continue;
            }
            // Width: inner vars ranged, everything else pinned to 0.
            let mut bounds: IdMap<VarId, Interval> = IdMap::default();
            let mut ranged_hi: Vec<(VarId, i64)> = Vec::new();
            for v in tvm_ir::collect_vars(&e) {
                let iv = if inner.contains(&v.id()) {
                    let ext = reader_data.extents.get(&v.id()).copied().unwrap_or(1);
                    ranged_hi.push((v.id(), (ext - 1).max(0)));
                    Interval::new(0, (ext - 1).max(0))
                } else if stage.scope == MemScope::Shared && thread_extents.contains_key(&v.id()) {
                    // Transitive thread relaxation: thread variables that
                    // reach this index through the attachment chain range
                    // over the whole block for shared producers.
                    ranged_hi.push((v.id(), (thread_extents[&v.id()] - 1).max(0)));
                    Interval::new(0, (thread_extents[&v.id()] - 1).max(0))
                } else {
                    Interval::point(0)
                };
                bounds.insert(v.id(), iv);
            }
            match tvm_ir::eval_interval(&e, &bounds) {
                Some(iv) => {
                    let width = iv.extent().map_or(shape[d], |w| w.min(shape[d]));
                    // Min: substitute each ranged var by whichever loop
                    // endpoint minimizes the index. Indices that *decrease*
                    // in a reduction var — conv2d_transpose's mirrored
                    // weight access `k - 1 - r` — take their minimum at the
                    // var's upper end; always substituting 0 mis-offsets
                    // the realize region by the whole flip.
                    // Each endpoint pins one variable in `bounds`; its range
                    // goes back before the next variable is tried.
                    let mut min_sub: IdMap<VarId, Expr> = IdMap::default();
                    for &(vid, hi) in &ranged_hi {
                        let range = bounds[&vid];
                        let mut at = |x: i64| {
                            bounds.insert(vid, Interval::point(x));
                            tvm_ir::eval_interval(&e, &bounds).map(|i| i.min)
                        };
                        let pick = match (at(0), at(hi)) {
                            (Some(lo0), Some(lo1)) if lo1 < lo0 => hi,
                            _ => 0,
                        };
                        bounds.insert(vid, range);
                        min_sub.insert(vid, Expr::int(pick));
                    }
                    let min_e = tvm_ir::simplify(&tvm_ir::substitute(&e, &min_sub));
                    mins.push(min_e);
                    exts.push(width);
                }
                None => {
                    // Unanalyzable index: realize the whole axis.
                    mins.push(Expr::int(0));
                    exts.push(shape[d]);
                }
            }
        }
        regions.push((mins, exts));
    })?;
    Ok(())
}

/// True when some floor-div/mod inside `e` has a dividend mixing variables
/// the region query ranges over with variables it pins to a point. Interval
/// evaluation with the pinned vars at 0 underestimates the width of such
/// expressions (the span of `(outer*c + inner) // m` depends on `outer`),
/// so [`compute_region`] must fall back to the full axis for them.
fn divmod_mixes_ranged(e: &Expr, ranged: &dyn Fn(&Var) -> bool) -> bool {
    struct Mixes<'a> {
        ranged: &'a dyn Fn(&Var) -> bool,
        found: bool,
    }
    impl Visitor for Mixes<'_> {
        fn visit_expr(&mut self, e: &Expr) {
            if self.found {
                return;
            }
            if let ExprNode::Binary {
                op: BinOp::Div | BinOp::Mod,
                a,
                ..
            } = &*e.0
            {
                let vars = tvm_ir::collect_vars(a);
                let ranged = self.ranged;
                self.found = vars.iter().any(ranged) && vars.iter().any(|v| !ranged(v));
            }
            self.walk_expr(e);
        }
    }
    let mut m = Mixes {
        ranged,
        found: false,
    };
    m.visit_expr(e);
    m.found
}

type ResolvedIters = (IdMap<VarId, i64>, IdMap<VarId, Expr>, Vec<(Expr, IterKind)>);

/// Resolves extents, leaf-coordinate expressions and split guards for all
/// itervars of a stage. A leaf-coordinate expression writes an itervar in
/// the stage's leaf loop variables; each is built once per stage, and a
/// parent's expression holds its children's.
fn resolve_iters(
    stage: &Stage,
    root_ext: IdMap<VarId, i64>,
    mut kinds: IdMap<VarId, IterKind>,
) -> Result<ResolvedIters, TeError> {
    let mut extents = root_ext;
    let mut overshoot: Vec<(Var, i64)> = Vec::new(); // (parent, parent extent)
    for rel in &stage.relations {
        match rel {
            IterRelation::Split {
                parent,
                outer,
                inner,
                factor,
            } => {
                let ep = *extents.get(&parent.id()).ok_or_else(|| {
                    TeError::msg(format!(
                        "split parent `{}` has unknown extent",
                        parent.name()
                    ))
                })?;
                let ei = (*factor).min(ep).max(1);
                let eo = (ep + ei - 1) / ei;
                extents.insert(outer.var.id(), eo);
                extents.insert(inner.var.id(), ei);
                let kind = kinds.get(&parent.id()).copied().unwrap_or(IterKind::Data);
                kinds.insert(outer.var.id(), kind);
                kinds.insert(inner.var.id(), kind);
                if eo * ei > ep {
                    overshoot.push((parent.clone(), ep));
                }
            }
            IterRelation::Fuse {
                outer,
                inner,
                fused,
            } => {
                let eo = *extents.get(&outer.id()).ok_or_else(|| {
                    TeError::msg(format!("fuse outer `{}` has unknown extent", outer.name()))
                })?;
                let ei = *extents.get(&inner.id()).ok_or_else(|| {
                    TeError::msg(format!("fuse inner `{}` has unknown extent", inner.name()))
                })?;
                extents.insert(fused.var.id(), eo * ei);
                let kind = kinds.get(&outer.id()).copied().unwrap_or(IterKind::Data);
                kinds.insert(fused.var.id(), kind);
            }
        }
    }
    // Leaf-coordinate expressions: which relation consumes each variable,
    // indexed in one pass, then each expression built once from the memo.
    let mut consumer: IdMap<VarId, usize> = IdMap::default();
    for (i, rel) in stage.relations.iter().enumerate() {
        match rel {
            IterRelation::Split { parent, .. } => {
                consumer.entry(parent.id()).or_insert(i);
            }
            IterRelation::Fuse { outer, inner, .. } => {
                consumer.entry(outer.id()).or_insert(i);
                consumer.entry(inner.id()).or_insert(i);
            }
        }
    }
    let mut exp = Expander {
        stage,
        extents: &extents,
        consumer,
        memo: IdMap::default(),
    };
    for axis in stage.tensor.op.axes() {
        exp.expand(&axis.var)?;
    }
    for axis in stage.tensor.op.reduce_axes() {
        exp.expand(&axis.var)?;
    }
    for rel in &stage.relations {
        match rel {
            IterRelation::Split {
                parent,
                outer,
                inner,
                ..
            } => {
                exp.expand(parent)?;
                exp.expand(&outer.var)?;
                exp.expand(&inner.var)?;
            }
            IterRelation::Fuse { fused, .. } => {
                exp.expand(&fused.var)?;
            }
        }
    }
    // Every expansion returned, so every entry is finished.
    let var_expr: IdMap<VarId, Expr> = exp
        .memo
        .into_iter()
        .filter_map(|(id, e)| e.map(|e| (id, e)))
        .collect();
    let guards: Vec<(Expr, IterKind)> = overshoot
        .into_iter()
        .map(|(parent, ep)| {
            let pe = var_expr
                .get(&parent.id())
                .cloned()
                .unwrap_or_else(|| parent.to_expr());
            let kind = kinds.get(&parent.id()).copied().unwrap_or(IterKind::Data);
            (pe.lt(Expr::int(ep)), kind)
        })
        .collect();
    Ok((extents, var_expr, guards))
}

/// Builds leaf-coordinate expressions for one stage's itervars.
struct Expander<'a> {
    stage: &'a Stage,
    extents: &'a IdMap<VarId, i64>,
    /// The relation that consumes each variable: the first to name it as a
    /// split parent or a fuse input.
    consumer: IdMap<VarId, usize>,
    /// Finished expressions; `None` while a variable is being expanded.
    memo: IdMap<VarId, Option<Expr>>,
}

impl Expander<'_> {
    fn expand(&mut self, var: &Var) -> Result<Expr, TeError> {
        match self.memo.get(&var.id()) {
            Some(Some(e)) => return Ok(e.clone()),
            Some(None) => return err(format!("cyclic iter relation at `{}`", var.name())),
            None => {}
        }
        self.memo.insert(var.id(), None);
        let stage = self.stage;
        let e = match self.consumer.get(&var.id()).map(|&i| &stage.relations[i]) {
            Some(IterRelation::Split { outer, inner, .. }) => {
                let eo = self.expand(&outer.var)?;
                let ei_expr = self.expand(&inner.var)?;
                let ei = self.extent(&inner.var, "split inner")?;
                eo * ei + ei_expr
            }
            Some(IterRelation::Fuse {
                outer,
                inner,
                fused,
            }) => {
                let ei = self.extent(inner, "fuse inner")?;
                let f = self.expand(&fused.var)?;
                if outer.id() == var.id() {
                    f / ei
                } else {
                    f % ei
                }
            }
            None => var.to_expr(),
        };
        self.memo.insert(var.id(), Some(e.clone()));
        Ok(e)
    }

    fn extent(&self, var: &Var, role: &str) -> Result<i64, TeError> {
        self.extents
            .get(&var.id())
            .copied()
            .ok_or_else(|| TeError::msg(format!("{role} `{}` unresolved", var.name())))
    }
}

struct Emitter<'a> {
    sched: &'a Schedule,
    plan: &'a LowerPlan,
    buffers: IdMap<OpId, Var>,
    /// Thread-bound leaf -> canonical thread variable, for the plan's raw
    /// stages; empty when it has none.
    bound: IdMap<VarId, Expr>,
}

struct Plan {
    op: OpId,
    leaves: Vec<IterVar>,
    init_pos: Option<usize>,
    init_stmt: Option<Stmt>,
    init_loop_leaves: Vec<IterVar>,
    body_stmt: Stmt,
    ten_pos: Option<usize>,
}

impl<'a> Emitter<'a> {
    fn new(sched: &'a Schedule, plan: &'a LowerPlan, args: &[Tensor]) -> Self {
        // Buffer variables: params first (stable across calls), then internals.
        let mut buffers: IdMap<OpId, Var> = IdMap::default();
        for t in args {
            buffers.insert(t.op_id(), Var::new(t.name(), t.dtype()));
        }
        for id in plan.data.keys() {
            if !buffers.contains_key(id) {
                if let Some(stage) = sched.stage_by_op(*id) {
                    buffers.insert(*id, Var::new(stage.tensor.name(), stage.tensor.dtype()));
                } else if let Some(t) = sched.tensor(*id) {
                    buffers.insert(*id, Var::new(t.name(), t.dtype()));
                }
            }
        }
        let bound = if plan.raw.is_empty() {
            IdMap::default()
        } else {
            bound_leaves(sched, &plan.thread_vars)
        };
        Emitter {
            sched,
            plan,
            buffers,
            bound,
        }
    }

    /// Emits the root stages in order, wrapping non-param roots in
    /// allocations.
    fn emit_roots(&self, args: &[Tensor]) -> Result<Stmt, TeError> {
        let emit_span = tvm_obs::span("emit");
        let mut pieces: Vec<(OpId, Stmt)> = Vec::new();
        for stage in &self.sched.stages {
            if matches!(stage.attach, Attach::Root) {
                let mut s = tvm_obs::span("emit_stage");
                s.arg("stage", stage.tensor.name());
                pieces.push((stage.op_id(), self.emit_stage(stage.op_id())?));
            }
        }
        drop(emit_span);
        let param_ids: IdSet<OpId> = args.iter().map(|t| t.op_id()).collect();
        let mut body = Stmt::nop();
        for (op, nest) in pieces.into_iter().rev() {
            body = Stmt::seq(vec![nest, body]);
            if !param_ids.contains(&op) {
                let sd = &self.plan.data[&op];
                let extent: i64 = sd.realize_ext.iter().product::<i64>().max(1);
                let stage = self.stage(op)?;
                body = Stmt::allocate(
                    &self.buffers[&op],
                    stage.tensor.dtype(),
                    extent,
                    stage.scope,
                    body,
                );
            }
        }
        Ok(body)
    }

    /// Wraps the emitted roots in the thread loops and runs the post passes.
    fn finish(
        &self,
        mut body: Stmt,
        args: &[Tensor],
        name: &str,
        opts: &LowerOptions,
    ) -> LoweredFunc {
        // One canonical loop per bound thread axis: threadIdx innermost,
        // blockIdx outermost.
        for tag in [
            ThreadTag::ThreadIdxX,
            ThreadTag::ThreadIdxY,
            ThreadTag::ThreadIdxZ,
            ThreadTag::BlockIdxX,
            ThreadTag::BlockIdxY,
            ThreadTag::BlockIdxZ,
        ] {
            if let Some((v, ext)) = self.plan.thread_vars.get(&tag) {
                body = Stmt::loop_(v, 0, *ext, ForKind::ThreadBinding(tag), body);
            }
        }

        let params: Vec<Var> = args
            .iter()
            .map(|t| self.buffers[&t.op_id()].clone())
            .collect();
        let param_extents: Vec<usize> = args.iter().map(|t| t.numel() as usize).collect();

        let body = {
            let _s = tvm_obs::span("hoist_shared_allocs");
            hoist_shared_allocs(&body)
        };
        let body = {
            let _s = tvm_obs::span(if opts.dae_sync {
                "lower_dae"
            } else {
                "lower_vthreads"
            });
            if opts.dae_sync {
                crate::vthread::lower_dae(&body)
            } else {
                crate::vthread::lower_vthreads(&body)
            }
        };
        let body = {
            let _s = tvm_obs::span("simplify");
            tvm_ir::simplify_stmt(&body)
        };

        LoweredFunc {
            name: name.to_string(),
            param_dtypes: args.iter().map(|t| t.dtype()).collect(),
            param_extents,
            params,
            body,
        }
    }

    fn strides_of(&self, op: OpId) -> Vec<i64> {
        let exts = &self.plan.data[&op].realize_ext;
        row_major_strides(exts)
    }

    /// Applies the stage's coordinate substitution and converts tensor
    /// reads to flat buffer loads rebased into each producer's realize
    /// region, in one walk. A read's indices are substituted before it is
    /// converted, and the realize mins it is rebased by are not: they
    /// reference consumer *loop* variables which may coincide with this
    /// stage's axis variables. `raw` says which variables the stage's
    /// pieces are in (see [`raw_stages`]).
    fn convert_body_expr(
        &self,
        e: &Expr,
        axis_sub: &IdMap<VarId, Expr>,
        raw: bool,
    ) -> Result<Expr, TeError> {
        struct C<'b, 'c> {
            em: &'b Emitter<'c>,
            sub: &'b IdMap<VarId, Expr>,
            raw: bool,
            error: Option<TeError>,
        }
        impl tvm_ir::Mutator for C<'_, '_> {
            fn mutate_expr(&mut self, e: &Expr) -> Expr {
                match &*e.0 {
                    ExprNode::Var(v) => {
                        if let Some(to) = self.sub.get(&v.id()) {
                            return to.clone();
                        }
                    }
                    ExprNode::Call { name, args, .. } => {
                        if let Some(id) = crate::tensor::parse_read_key(name) {
                            let args: Vec<Expr> =
                                args.iter().map(|a| self.mutate_expr(a)).collect();
                            match self.em.flat_read(id, &args, self.raw) {
                                Ok(load) => return load,
                                Err(te) => {
                                    self.error.get_or_insert(te);
                                    return e.clone();
                                }
                            }
                        }
                    }
                    _ => {}
                }
                self.default_mutate_expr(e)
            }
        }
        let mut c = C {
            em: self,
            sub: axis_sub,
            raw,
            error: None,
        };
        let out = tvm_ir::Mutator::mutate_expr(&mut c, e);
        match c.error {
            Some(te) => Err(te),
            None => Ok(out),
        }
    }

    /// `id`'s realize min on axis `d` in the variables of a reader that is
    /// `raw` or not: a renamed reader renames a raw tensor's min.
    fn read_min(&self, id: OpId, sd: &StageData, d: usize, raw: bool) -> Expr {
        let min = &sd.realize_min[d];
        if !raw && self.plan.raw.contains(&id) {
            tvm_ir::substitute(min, &self.bound)
        } else {
            min.clone()
        }
    }

    fn flat_read(&self, id: OpId, idx: &[Expr], raw: bool) -> Result<Expr, TeError> {
        let buf = self
            .buffers
            .get(&id)
            .ok_or_else(|| TeError::msg(format!("no buffer for read of op {id:?}")))?;
        let sd = self
            .plan
            .data
            .get(&id)
            .ok_or_else(|| TeError::msg(format!("no bounds for read of op {id:?}")))?;
        let strides = row_major_strides(&sd.realize_ext);
        let mut flat = Expr::int(0);
        for (d, e) in idx.iter().enumerate() {
            let local = e.clone() - self.read_min(id, sd, d, raw);
            flat = flat + local * Expr::int(strides[d]);
        }
        Ok(Expr::load(buf, tvm_ir::simplify(&flat)))
    }

    /// The stage that computes `op`.
    fn stage(&self, op: OpId) -> Result<&'a Stage, TeError> {
        self.sched
            .stage_by_op(op)
            .ok_or_else(|| TeError::msg("missing stage"))
    }

    fn plan_stage(&self, op: OpId) -> Result<Plan, TeError> {
        let stage = self.stage(op)?;
        let sd = &self.plan.data[&op];
        let raw = self.plan.raw.contains(&op);
        let body =
            self.plan.bodies.get(&op).ok_or_else(|| {
                TeError::msg(format!("stage `{}` has no body", stage.tensor.name()))
            })?;
        let leaves = stage.leaf_iters.clone();
        let self_buf = self.buffers[&op].clone();
        let strides = self.strides_of(op);
        let dtype = stage.tensor.dtype();

        // Coordinate substitution for the body: axis -> min + local expr.
        let mut axis_sub: IdMap<VarId, Expr> = IdMap::default();
        let axes = stage.tensor.op.axes();
        for (d, axis) in axes.iter().enumerate() {
            let local = sd
                .var_expr
                .get(&axis.var.id())
                .cloned()
                .unwrap_or_else(|| axis.expr());
            axis_sub.insert(axis.var.id(), sd.realize_min[d].clone() + local);
        }
        if let ComputeBody::Reduce { axes: raxes, .. } = body {
            for r in raxes {
                let local = sd
                    .var_expr
                    .get(&r.var.id())
                    .cloned()
                    .unwrap_or_else(|| r.expr());
                axis_sub.insert(r.var.id(), local);
            }
        }

        // Store index (local coordinates).
        let mut store_idx = Expr::int(0);
        for (d, axis) in axes.iter().enumerate() {
            let local = sd
                .var_expr
                .get(&axis.var.id())
                .cloned()
                .unwrap_or_else(|| axis.expr());
            store_idx = store_idx + local * Expr::int(strides[d]);
        }
        let store_idx = tvm_ir::simplify(&store_idx);

        let mut data_guards: Vec<Expr> = sd
            .guards
            .iter()
            .filter(|(_, k)| *k == IterKind::Data)
            .map(|(g, _)| g.clone())
            .collect();
        let mut all_guards: Vec<Expr> = sd.guards.iter().map(|(g, _)| g.clone()).collect();
        // Attached stages may realize a region that overruns the tensor
        // when the consumer's own tiles are guarded; clamp computation to
        // the declared shape. The simplifier drops these when provably
        // in-bounds. Tensorized stages assert perfect tiling instead.
        if stage.tensorize_at.is_none() {
            let shape = stage.tensor.shape();
            for (d, axis) in axes.iter().enumerate() {
                let full = sd.realize_min[d].as_int() == Some(0) && sd.realize_ext[d] == shape[d];
                if !full {
                    let coord = axis_sub[&axis.var.id()].clone();
                    let g = coord.lt(Expr::int(shape[d]));
                    data_guards.push(g.clone());
                    all_guards.push(g);
                }
            }
        }
        let guard = |stmt: Stmt, gs: &[Expr]| -> Stmt {
            if gs.is_empty() {
                stmt
            } else {
                let cond = gs[1..]
                    .iter()
                    .fold(gs[0].clone(), |acc, g| acc.and(g.clone()));
                Stmt::if_then(cond, stmt)
            }
        };

        // Tensorize position.
        let ten = stage.tensorize_at.as_ref();
        let ten_pos = match ten {
            Some((vid, _)) => Some(
                leaves
                    .iter()
                    .position(|l| l.var.id() == *vid)
                    .ok_or_else(|| TeError::msg("tensorize target is not a leaf"))?,
            ),
            None => None,
        };

        // First reduce leaf (init position).
        let init_pos = match body {
            ComputeBody::Reduce { .. } => Some(
                leaves
                    .iter()
                    .position(|l| l.kind == IterKind::Reduce)
                    .unwrap_or(0),
            ),
            ComputeBody::Plain(_) => None,
        };

        let (init_stmt, body_stmt, init_loop_leaves) = match ten.zip(ten_pos) {
            None => match body {
                ComputeBody::Plain(e) => {
                    let val = self.convert_body_expr(e, &axis_sub, raw)?;
                    let st = guard(Stmt::store(&self_buf, store_idx.clone(), val), &all_guards);
                    (None, st, Vec::new())
                }
                ComputeBody::Reduce {
                    combiner, source, ..
                } => {
                    let val = self.convert_body_expr(source, &axis_sub, raw)?;
                    let acc = Expr::load(&self_buf, store_idx.clone());
                    let upd = Stmt::store(&self_buf, store_idx.clone(), combiner.combine(acc, val));
                    let upd = guard(upd, &all_guards);
                    let init = Stmt::store(&self_buf, store_idx.clone(), combiner.identity(dtype));
                    let init = guard(init, &data_guards);
                    let init_leaves = reset_leaves(&leaves, leaves.len()).cloned().collect();
                    (Some(init), upd, init_leaves)
                }
            },
            Some(((_, intrin), tp)) => {
                // Guards may not reference tensorized leaves.
                let ten_ids: IdSet<VarId> = leaves[tp..].iter().map(|l| l.var.id()).collect();
                for (g, _) in &sd.guards {
                    for v in tvm_ir::collect_vars(g) {
                        if ten_ids.contains(&v.id()) {
                            return err(format!(
                                "tensorize region of `{}` has a non-perfect split",
                                stage.tensor.name()
                            ));
                        }
                    }
                }
                // Extent checks.
                let data_prod: i64 = leaves[tp..]
                    .iter()
                    .filter(|l| l.kind == IterKind::Data)
                    .map(|l| sd.extents[&l.var.id()])
                    .product();
                let red_prod: i64 = leaves[tp..]
                    .iter()
                    .filter(|l| l.kind == IterKind::Reduce)
                    .map(|l| sd.extents[&l.var.id()])
                    .product();
                let want_data: i64 = intrin.output_shape().iter().product();
                let want_red: i64 = intrin.reduce_extents().iter().product::<i64>().max(1);
                if data_prod != want_data || red_prod != want_red {
                    return err(format!(
                        "tensorize mismatch on `{}`: loops cover {}x{} but intrinsic `{}` covers {}x{}",
                        stage.tensor.name(), data_prod, red_prod, intrin.name(), want_data, want_red
                    ));
                }
                // Zero the tensorized leaves to get slice origins.
                let zero_sub: IdMap<VarId, Expr> =
                    ten_ids.iter().map(|id| (*id, Expr::int(0))).collect();
                let out_off = tvm_ir::simplify(&tvm_ir::substitute(&store_idx, &zero_sub));
                let output = BufferSlice {
                    var: self_buf.clone(),
                    offset: out_off,
                    strides: strides.iter().map(|s| Expr::int(*s)).collect(),
                    shape: intrin.output_shape().to_vec(),
                    dtype,
                };
                // Input slices, in body read order.
                let mut inputs: Vec<BufferSlice> = Vec::new();
                let lookup = |id: OpId| self.sched.tensor(id).cloned();
                collect_reads(body.source_expr(), &lookup, &mut |t, idx| {
                    let id = t.op_id();
                    let tsd = &self.plan.data[&id];
                    let tstr = row_major_strides(&tsd.realize_ext);
                    let mut flat = Expr::int(0);
                    for (d, e) in idx.iter().enumerate() {
                        let e = tvm_ir::substitute(e, &axis_sub);
                        let local = e - self.read_min(id, tsd, d, raw);
                        flat = flat + local * Expr::int(tstr[d]);
                    }
                    let off = tvm_ir::simplify(&tvm_ir::substitute(&flat, &zero_sub));
                    inputs.push(BufferSlice {
                        var: self.buffers[&id].clone(),
                        offset: off,
                        strides: tstr.iter().map(|s| Expr::int(*s)).collect(),
                        shape: tsd.realize_ext.clone(),
                        dtype: t.dtype(),
                    });
                })?;
                let imp = (intrin.0.lower)(&inputs, &output);
                // When the whole reduction sits inside the tensorized
                // region, the reset belongs at the tensorize position.
                let init_leaves = reset_leaves(&leaves, tp).cloned().collect();
                (imp.reset, imp.body, init_leaves)
            }
        };
        let (init_stmt, body_stmt) = if raw {
            // A raw stage's statements take the canonical thread variables
            // once built; its reset nest keeps looping over its own leaves.
            let mut keep = self.bound.clone();
            for l in &init_loop_leaves {
                keep.remove(&l.var.id());
            }
            let rename = |s: &Stmt, to| tvm_ir::Mutator::mutate_stmt(&mut Renamer::new(to), s);
            let init = init_stmt.map(|s| rename(&s, &keep));
            (init, rename(&body_stmt, &self.bound))
        } else {
            (init_stmt, body_stmt)
        };

        Ok(Plan {
            op,
            leaves,
            init_pos,
            init_stmt,
            init_loop_leaves,
            body_stmt,
            ten_pos,
        })
    }

    fn emit_stage(&self, op: OpId) -> Result<Stmt, TeError> {
        let plan = self.plan_stage(op)?;
        self.emit_from(&plan, 0)
    }

    fn emit_from(&self, plan: &Plan, idx: usize) -> Result<Stmt, TeError> {
        if Some(idx) == plan.ten_pos || idx == plan.leaves.len() {
            // A reduction fully covered by the tensorized region needs its
            // reset emitted right before the intrinsic body.
            if Some(idx) == plan.ten_pos && plan.init_pos.map(|p| p >= idx).unwrap_or(false) {
                let init = plan.init_stmt.clone().unwrap_or_else(Stmt::nop);
                return Ok(Stmt::seq(vec![init, plan.body_stmt.clone()]));
            }
            return Ok(plan.body_stmt.clone());
        }
        let stage = self.stage(plan.op)?;
        let sd = &self.plan.data[&plan.op];
        let leaf = plan.leaves[idx].clone();
        let ext = *sd
            .extents
            .get(&leaf.var.id())
            .ok_or_else(|| TeError::msg(format!("no extent for leaf `{}`", leaf.var.name())))?;

        let mut inner = self.emit_from(plan, idx + 1)?;

        // Attached producers nest right after this loop opens. All
        // allocations are hoisted above one flat sequence so downstream
        // passes (DAE token injection) see the producer groups and the
        // consumer as siblings.
        if let Some(list) = self.plan.attach_map.get(&(plan.op, leaf.var.id())).cloned() {
            let mut items: Vec<Stmt> = Vec::new();
            let mut allocs: Vec<(Var, DType, i64, MemScope)> = Vec::new();
            for p in list {
                let p_stage = self.stage(p)?;
                let scope = p_stage.scope;
                let dtype = p_stage.tensor.dtype();
                let buf = self.buffers[&p].clone();
                let extent: i64 = self.plan.data[&p]
                    .realize_ext
                    .iter()
                    .product::<i64>()
                    .max(1);
                let nest = self.emit_stage(p)?;
                if scope == MemScope::Shared {
                    // WAR: previous iteration's readers must finish before
                    // the tile is overwritten; RAW: make it visible after.
                    items.push(Stmt::new(StmtNode::Barrier));
                    items.push(nest);
                    items.push(Stmt::new(StmtNode::Barrier));
                } else {
                    items.push(nest);
                }
                allocs.push((buf, dtype, extent, scope));
            }
            items.push(inner);
            inner = Stmt::seq(items);
            for (buf, dtype, extent, scope) in allocs.into_iter().rev() {
                inner = Stmt::allocate(&buf, dtype, extent, scope, inner);
            }
        }

        let attr = stage
            .iter_attrs
            .get(&leaf.var.id())
            .cloned()
            .unwrap_or_default();
        let loop_stmt = if let Some(tag) = attr.thread {
            // Thread-bound loops are elided here: every leaf bound to the
            // same tag is the pre-scanned canonical variable in the plan's
            // pieces, and the kernel is wrapped with a single loop nest per
            // tag at the end of lowering (all statements in a kernel execute
            // on every thread, as on real hardware). A stage binding fewer
            // iterations than the canonical extent runs under a guard.
            let (tv, text) = self.plan.thread_vars.get(&tag).cloned().ok_or_else(|| {
                TeError::msg(format!("thread axis {} not pre-scanned", tag.name()))
            })?;
            if ext < text {
                Stmt::if_then(tv.to_expr().lt(Expr::int(ext)), inner)
            } else {
                inner
            }
        } else {
            // The one place a vectorize / unroll / parallel annotation is
            // read, which is what `relabel_loops` relies on.
            let kind = attr.ann.map_or(ForKind::Serial, LoopAnn::loop_kind);
            let f = Stmt::loop_(&leaf.var, 0, ext, kind, inner);
            match &attr.pragma {
                Some(key) => Stmt::attr(format!("pragma.{key}"), Expr::int(ext), f),
                None => f,
            }
        };

        if Some(idx) == plan.init_pos && plan.ten_pos.map(|t| idx < t).unwrap_or(true) {
            let mut init = plan.init_stmt.clone().unwrap_or_else(Stmt::nop);
            for l in plan.init_loop_leaves.iter().rev() {
                let e = sd.extents[&l.var.id()];
                init = Stmt::for_(&l.var, 0, e, init);
            }
            // The reset loops over every data leaf under the reduction,
            // thread-bound ones included (those stay in their own leaves in
            // the reset; see `raw_stages`).
            Ok(Stmt::seq(vec![init, loop_stmt]))
        } else {
            Ok(loop_stmt)
        }
    }
}

fn row_major_strides(exts: &[i64]) -> Vec<i64> {
    let mut strides = vec![1i64; exts.len()];
    for d in (0..exts.len().saturating_sub(1)).rev() {
        strides[d] = strides[d + 1] * exts[d + 1];
    }
    strides
}

/// Hoists shared-memory allocations out of thread-bound loops so that one
/// tile is shared by the whole thread block.
fn hoist_shared_allocs(s: &Stmt) -> Stmt {
    use tvm_ir::Mutator;
    struct H;
    impl Mutator for H {
        // Allocations are statements: no expression is rewritten.
        fn mutate_expr(&mut self, e: &Expr) -> Expr {
            e.clone()
        }

        fn mutate_stmt(&mut self, s: &Stmt) -> Stmt {
            if let StmtNode::For {
                kind: ForKind::ThreadBinding(tag),
                ..
            } = &*s.0
            {
                if !tag.is_block() {
                    let mut specs = Vec::new();
                    let stripped = strip_shared(s, &mut specs);
                    let mut out = stripped;
                    for (buf, dtype, extent) in specs.into_iter().rev() {
                        out = Stmt::allocate(&buf, dtype, extent, MemScope::Shared, out);
                    }
                    return out;
                }
            }
            self.default_mutate_stmt(s)
        }
    }
    H.mutate_stmt(s)
}

fn strip_shared(s: &Stmt, specs: &mut Vec<(Var, DType, Expr)>) -> Stmt {
    use tvm_ir::Mutator;
    struct S<'a> {
        specs: &'a mut Vec<(Var, DType, Expr)>,
    }
    impl Mutator for S<'_> {
        fn mutate_expr(&mut self, e: &Expr) -> Expr {
            e.clone()
        }

        fn mutate_stmt(&mut self, s: &Stmt) -> Stmt {
            if let StmtNode::Allocate {
                buffer,
                dtype,
                extent,
                scope: MemScope::Shared,
                body,
            } = &*s.0
            {
                self.specs.push((buffer.clone(), *dtype, extent.clone()));
                return self.mutate_stmt(body);
            }
            self.default_mutate_stmt(s)
        }
    }
    S { specs }.mutate_stmt(s)
}

#[cfg(test)]
mod expansion_oracle {
    //! The memoized leaf-coordinate expansion against the per-variable one
    //! it replaced, which re-expanded every child and re-scanned the
    //! stage's relations at each level.

    use super::*;
    use crate::{compute, create_schedule, placeholder, reduce_axis, sum, ScheduleError};

    fn expand_var(
        var: &Var,
        stage: &Stage,
        extents: &IdMap<VarId, i64>,
        seen: &mut IdSet<VarId>,
    ) -> Result<Expr, TeError> {
        if !seen.insert(var.id()) {
            return err(format!("cyclic iter relation at `{}`", var.name()));
        }
        for rel in &stage.relations {
            match rel {
                IterRelation::Split {
                    parent,
                    outer,
                    inner,
                    ..
                } if parent.id() == var.id() => {
                    let eo = expand_var(&outer.var, stage, extents, seen)?;
                    let ei_expr = expand_var(&inner.var, stage, extents, seen)?;
                    let ei = extents[&inner.var.id()];
                    seen.remove(&var.id());
                    return Ok(eo * ei + ei_expr);
                }
                IterRelation::Fuse {
                    outer,
                    inner,
                    fused,
                } => {
                    let ei = extents[&inner.id()];
                    if outer.id() == var.id() {
                        let f = expand_var(&fused.var, stage, extents, seen)?;
                        seen.remove(&var.id());
                        return Ok(f / ei);
                    }
                    if inner.id() == var.id() {
                        let f = expand_var(&fused.var, stage, extents, seen)?;
                        seen.remove(&var.id());
                        return Ok(f % ei);
                    }
                }
                _ => {}
            }
        }
        seen.remove(&var.id());
        Ok(var.to_expr())
    }

    /// Every itervar a stage names: its axes, reduce axes and the
    /// variables of its relations.
    fn stage_vars(stage: &Stage) -> Vec<Var> {
        let mut v: Vec<Var> = stage
            .tensor
            .op
            .axes()
            .iter()
            .map(|a| a.var.clone())
            .collect();
        v.extend(stage.tensor.op.reduce_axes().iter().map(|a| a.var.clone()));
        for rel in &stage.relations {
            match rel {
                IterRelation::Split {
                    parent,
                    outer,
                    inner,
                    ..
                } => v.extend([parent.clone(), outer.var.clone(), inner.var.clone()]),
                IterRelation::Fuse { fused, .. } => v.push(fused.var.clone()),
            }
        }
        v
    }

    /// Plans `sched` and checks every non-inlined stage: each variable's
    /// expression equals the reference's, and a split parent's expression
    /// holds its inner child's by pointer. Returns the splits checked.
    fn check(sched: &Schedule) -> usize {
        let plan = plan_in_leaves(sched).expect("plans");
        let mut splits = 0;
        for stage in &sched.stages {
            let Some(sd) = plan.data.get(&stage.op_id()) else {
                continue;
            };
            let vars = stage_vars(stage);
            let ids: IdSet<VarId> = vars.iter().map(Var::id).collect();
            assert_eq!(sd.var_expr.len(), ids.len(), "`{}`", stage.tensor.name());
            for var in &vars {
                let want = expand_var(var, stage, &sd.extents, &mut IdSet::default())
                    .expect("the reference expands");
                let got = &sd.var_expr[&var.id()];
                assert!(
                    got.structural_eq(&want),
                    "`{}` of `{}`: {got} vs {want}",
                    var.name(),
                    stage.tensor.name()
                );
            }
            for rel in &stage.relations {
                let IterRelation::Split { parent, inner, .. } = rel else {
                    continue;
                };
                let ExprNode::Binary { b, .. } = &*sd.var_expr[&parent.id()].0 else {
                    panic!("split parent `{}` is not `o * f + i`", parent.name());
                };
                assert!(
                    b.same_as(&sd.var_expr[&inner.var.id()]),
                    "`{}` copies its inner child's expression",
                    parent.name()
                );
                splits += 1;
            }
        }
        splits
    }

    fn elementwise(shape: &[i64]) -> (Tensor, Tensor) {
        let a = placeholder(shape, DType::float32(), "A");
        let c = compute(shape, "C", |i| a.at(i) + 1);
        (a, c)
    }

    #[test]
    fn split_of_a_split() -> Result<(), ScheduleError> {
        let (_, c) = elementwise(&[64, 48]);
        let mut s = create_schedule(std::slice::from_ref(&c));
        let ax = c.op.axes();
        let (xo, xi) = s.split(&c, &ax[1], 12)?;
        let (_xio, _xii) = s.split(&c, &xi, 5)?;
        let (_xoo, _xoi) = s.split(&c, &xo, 3)?;
        let levels = s.split_levels(&c, &ax[0], &[4, 2])?;
        assert_eq!(levels.len(), 3);
        assert_eq!(check(&s), 5);
        Ok(())
    }

    #[test]
    fn fuse_of_splits() -> Result<(), ScheduleError> {
        let (_, c) = elementwise(&[30, 20]);
        let mut s = create_schedule(std::slice::from_ref(&c));
        let ax = c.op.axes();
        let (yo, yi) = s.split(&c, &ax[0], 4)?;
        let (xo, xi) = s.split(&c, &ax[1], 6)?;
        s.reorder(&c, &[&yo, &xo, &yi, &xi])?;
        s.fuse(&c, &yo, &xo)?;
        s.fuse(&c, &yi, &xi)?;
        assert_eq!(check(&s), 2);
        Ok(())
    }

    #[test]
    fn split_of_a_fuse() -> Result<(), ScheduleError> {
        let (_, c) = elementwise(&[6, 16, 5]);
        let mut s = create_schedule(std::slice::from_ref(&c));
        let ax = c.op.axes();
        let f = s.fuse(&c, &ax[0], &ax[1])?;
        let f = s.fuse(&c, &f, &ax[2])?;
        let (fo, _fi) = s.split(&c, &f, 7)?;
        s.split(&c, &fo, 3)?;
        assert_eq!(check(&s), 2);
        Ok(())
    }

    #[test]
    fn tile_and_reorder_with_a_reduction() -> Result<(), ScheduleError> {
        let a = placeholder(&[24, 20], DType::float32(), "A");
        let b = placeholder(&[20, 16], DType::float32(), "B");
        let k = reduce_axis(20, "k");
        let c = compute(&[24, 16], "C", |i| {
            sum(
                a.at(&[i[0].clone(), k.expr()]) * b.at(&[k.expr(), i[1].clone()]),
                std::slice::from_ref(&k),
            )
        });
        let mut s = create_schedule(std::slice::from_ref(&c));
        let ax = c.op.axes();
        let (yo, xo, yi, xi) = s.tile(&c, &ax[0], &ax[1], 8, 5)?;
        let (ko, ki) = s.split(&c, &k, 6)?;
        s.reorder(&c, &[&yo, &xo, &ko, &yi, &ki, &xi])?;
        assert_eq!(check(&s), 3);
        Ok(())
    }

    #[test]
    fn shared_compute_at() -> Result<(), ScheduleError> {
        // Two producers attached at the same consumer loop, one of them
        // split itself.
        let a = placeholder(&[12, 40], DType::float32(), "A");
        let p = compute(&[12, 40], "P", |i| a.at(i) * 2);
        let q = compute(&[12, 40], "Q", |i| a.at(i) + 3);
        let c = compute(&[12, 40], "C", |i| p.at(i) + q.at(i));
        let mut s = create_schedule(std::slice::from_ref(&c));
        let ax = c.op.axes();
        let (yo, xo, _yi, _xi) = s.tile(&c, &ax[0], &ax[1], 4, 8)?;
        let f = s.fuse(&c, &yo, &xo)?;
        s.compute_at(&p, &c, &f)?;
        s.compute_at(&q, &c, &f)?;
        let pax = p.op.axes();
        s.split(&p, &pax[1], 3)?;
        assert_eq!(check(&s), 3);
        Ok(())
    }

    #[test]
    fn a_cyclic_relation_is_an_error() -> Result<(), ScheduleError> {
        let (_, c) = elementwise(&[8]);
        let mut s = create_schedule(std::slice::from_ref(&c));
        let x = c.op.axes()[0].clone();
        let (xo, xi) = s.split(&c, &x, 2)?;
        // Hand-built, not reachable through the schedule API: fusing the
        // split's children back into its parent.
        let stage = &mut s.stages[0];
        stage.relations.push(IterRelation::Fuse {
            outer: xo.var.clone(),
            inner: xi.var.clone(),
            fused: x.clone(),
        });
        let e = plan_schedule(&s).err().expect("cycle");
        assert!(e.to_string().contains("cyclic iter relation"), "{e}");
        Ok(())
    }
}

#[cfg(test)]
mod emission_oracle {
    //! Emission against the two-pass emission it replaced, which built every
    //! root nest in the stages' own leaves and then rebuilt the whole nest
    //! with one substitution of the thread-bound leaves; a reset nest's
    //! loops kept their own variable.

    use super::*;
    use crate::{compute, create_schedule, placeholder, reduce_axis, sum, ScheduleError};
    use tvm_ir::Mutator;

    /// Substitutes `map` for free variables: a loop over a mapped variable
    /// binds it in its body.
    struct Free<'a>(&'a IdMap<VarId, Expr>);

    impl Mutator for Free<'_> {
        fn mutate_expr(&mut self, e: &Expr) -> Expr {
            if let ExprNode::Var(v) = &*e.0 {
                if let Some(to) = self.0.get(&v.id()) {
                    return to.clone();
                }
            }
            self.default_mutate_expr(e)
        }

        fn mutate_stmt(&mut self, s: &Stmt) -> Stmt {
            if let StmtNode::For { var, .. } = &*s.0 {
                if self.0.contains_key(&var.id()) {
                    let mut inner = self.0.clone();
                    inner.remove(&var.id());
                    return Free(&inner).default_mutate_stmt(s);
                }
            }
            self.default_mutate_stmt(s)
        }
    }

    fn two_pass(sched: &Schedule, args: &[Tensor]) -> Result<LoweredFunc, TeError> {
        let plan = plan_in_leaves(sched)?;
        let em = Emitter::new(sched, &plan, args);
        let nest = em.emit_roots(args)?;
        let nest = Free(&bound_leaves(sched, &plan.thread_vars)).mutate_stmt(&nest);
        Ok(em.finish(nest, args, "k", &LowerOptions::default()))
    }

    /// Asserts that both emissions print the same body; returns the names
    /// of the stages the plan keeps in their own leaves.
    fn check(sched: &Schedule, args: &[Tensor]) -> Vec<String> {
        let want = two_pass(sched, args).expect("the reference lowers");
        let got = lower(sched, args, "k").expect("lowers");
        assert_eq!(got.body.to_string(), want.body.to_string());
        let plan = plan_schedule(sched).expect("plans");
        let mut raw: Vec<String> = sched
            .stages
            .iter()
            .filter(|st| plan.raw.contains(&st.op_id()))
            .map(|st| st.tensor.name().to_string())
            .collect();
        raw.sort();
        raw
    }

    fn matmul(m: i64, n: i64, k: i64) -> (Tensor, Tensor, Tensor) {
        let a = placeholder(&[m, k], DType::float32(), "A");
        let b = placeholder(&[k, n], DType::float32(), "B");
        let kk = reduce_axis(k, "k");
        let c = compute(&[m, n], "C", |i| {
            sum(
                a.at(&[i[0].clone(), kk.expr()]) * b.at(&[kk.expr(), i[1].clone()]),
                std::slice::from_ref(&kk),
            )
        });
        (a, b, c)
    }

    #[test]
    fn cooperative_shared_fetch_is_renamed_in_the_plan() -> Result<(), ScheduleError> {
        let (a, b, c) = matmul(32, 32, 16);
        let mut s = create_schedule(std::slice::from_ref(&c));
        let cl = s.cache_write(&c, MemScope::Local)?;
        let ax = c.op.axes();
        let (by, bx, yb, xb) = s.tile(&c, &ax[0], &ax[1], 8, 8)?;
        let (ty, yi) = s.split(&c, &yb, 2)?;
        let (tx, xi) = s.split(&c, &xb, 2)?;
        s.reorder(&c, &[&by, &bx, &ty, &tx, &yi, &xi])?;
        s.bind(&c, &by, ThreadTag::BlockIdxY)?;
        s.bind(&c, &bx, ThreadTag::BlockIdxX)?;
        s.bind(&c, &ty, ThreadTag::ThreadIdxY)?;
        s.bind(&c, &tx, ThreadTag::ThreadIdxX)?;
        s.compute_at(&cl, &c, &tx)?;
        let (ko, _ki) = s.split(&cl, &cl.op.reduce_axes()[0], 4)?;
        let asb = s.cache_read(&a, MemScope::Shared, &[&cl])?;
        let bsb = s.cache_read(&b, MemScope::Shared, &[&cl])?;
        s.compute_at(&asb, &cl, &ko)?;
        s.compute_at(&bsb, &cl, &ko)?;
        for t in [&asb, &bsb] {
            let sax = t.op.axes();
            let fused = s.fuse(t, &sax[0], &sax[1])?;
            let (o, r) = s.split(t, &fused, 16)?;
            let (ty2, tx2) = s.split(t, &r, 4)?;
            s.bind(t, &ty2, ThreadTag::ThreadIdxY)?;
            s.bind(t, &tx2, ThreadTag::ThreadIdxX)?;
            let _ = o;
        }
        assert!(check(&s, &[a, b, c]).is_empty());
        Ok(())
    }

    #[test]
    fn a_bound_leaf_under_the_reduction_keeps_its_reset_loop() -> Result<(), ScheduleError> {
        // The reset stage reads a local tile attached under its bound
        // leaf, which must stay in the same variables as the stage.
        let (a, b, c) = matmul(8, 16, 4);
        let mut s = create_schedule(std::slice::from_ref(&c));
        let bl = s.cache_read(&b, MemScope::Local, &[&c])?;
        let ax = c.op.axes();
        let r = c.op.reduce_axes();
        let (jo, ji) = s.split(&c, &ax[1], 4)?;
        s.reorder(&c, &[&ax[0], &r[0], &jo, &ji])?;
        s.bind(&c, &ax[0], ThreadTag::BlockIdxX)?;
        s.bind(&c, &jo, ThreadTag::ThreadIdxX)?;
        s.compute_at(&bl, &c, &jo)?;
        assert_eq!(check(&s, &[a, b, c]), ["B.local", "C"]);
        Ok(())
    }

    #[test]
    fn two_leaves_of_one_tag_meet_in_a_producer() -> Result<(), ScheduleError> {
        // `P` sits under `C`'s bound leaf in local memory and binds the same
        // tag. Its read of the shared tile `A.shared` (which ranges over
        // both bound leaves) rebases to `C_i1.o * 8 + P_i1.o * 2`; renamed
        // first, the two terms would fold into `threadIdx.x * 10`.
        let a = placeholder(&[16, 32], DType::float32(), "A");
        let p = compute(&[16, 32], "P", |i| a.at(i) + 1);
        let c = compute(&[16, 32], "C", |i| p.at(i) * 2);
        let mut s = create_schedule(std::slice::from_ref(&c));
        let ash = s.cache_read(&a, MemScope::Shared, &[&p])?;
        s.set_scope(&p, MemScope::Local)?;
        let ax = c.op.axes();
        let (xo, _xi) = s.split(&c, &ax[1], 8)?;
        s.bind(&c, &ax[0], ThreadTag::BlockIdxX)?;
        s.bind(&c, &xo, ThreadTag::ThreadIdxX)?;
        s.compute_at(&p, &c, &xo)?;
        let pax = p.op.axes();
        let (po, pi) = s.split(&p, &pax[1], 2)?;
        s.bind(&p, &po, ThreadTag::ThreadIdxX)?;
        s.compute_at(&ash, &p, &pi)?;
        assert_eq!(check(&s, &[a, c]), ["A.shared", "P"]);
        Ok(())
    }
}
