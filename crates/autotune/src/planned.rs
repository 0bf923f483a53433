//! The back half every tuning-task builder shares, whether its schedule
//! structure comes from a hand-written template (`tvm-topi`) or a sketch
//! ([`crate::sketch`]): lower each structure once, with every annotation
//! point marked ([`mark_points`]), and derive each candidate from that
//! kernel by relabeling the marked loops ([`relabel_loops`]); no candidate
//! clones, annotates, emits or simplifies a schedule again. A structure
//! that fails (its template, its lowering, or a point [`mark_points`]
//! refuses) gives each of its candidates that one error. A relabeled
//! candidate is held to the target's limits ([`Target::check_limits`], the
//! check `tvm::build` makes too) with the one [`ProgramAnalysis`] that the
//! tuner then reads features and simulated cost from ([`build_analyzed`]).
//!
//! So [`tvm_te::lower_stats`] counts one plan miss per structure, one
//! emission per structure that lowers, and a relabel per candidate of it.

use std::cell::RefCell;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use tvm_ir::{ForKind, IdMap, LoweredFunc, Stmt, ThreadTag, VarId};
use tvm_sim::{analyze, ProgramAnalysis, Target};
use tvm_te::{
    create_schedule, lower, mark_points, relabel_loops, IterVar, LoopAnn, PlanCache, Schedule,
    TeError, Tensor,
};

use crate::config::{ConfigEntity, ConfigSpace};
use crate::tuner::TuningTask;

/// Knobs that only annotate loops (vectorize / parallel / unroll) without
/// changing loop structure, bounds or dataflow. Configurations differing
/// only in these share one plan-cache entry, which is keyed on everything
/// else.
const ANNOTATION_KNOBS: [&str; 3] = ["vec", "par", "unroll"];

/// Digest of the structural (non-annotation) part of a configuration,
/// used as the [`PlanCache`] key. Per-task caches mean collisions across
/// tasks are impossible; within a task the knob list is fixed, so
/// hashing (name, value) pairs in declaration order is a stable identity.
fn structural_key(cfg: &ConfigEntity) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for (name, v) in &cfg.values {
        if !ANNOTATION_KNOBS.contains(&name.as_str()) {
            name.hash(&mut h);
            v.hash(&mut h);
        }
    }
    h.finish()
}

/// Where a structure's annotation knobs land: which loops `unroll`, `vec`
/// and `par` mark, captured while applying the structural schedule.
#[derive(Default)]
pub struct AnnPoints {
    /// `unroll = k` unrolls the first `k` entries.
    pub unroll: Vec<(Tensor, IterVar)>,
    /// The loops `vec = 1` vectorizes.
    pub vec: Vec<(Tensor, IterVar)>,
    /// The loop `par = 1` parallelizes.
    pub par: Option<(Tensor, IterVar)>,
}

impl AnnPoints {
    /// Every point, whatever the knobs choose.
    fn all(&self) -> impl Iterator<Item = &(Tensor, IterVar)> + Clone {
        self.unroll.iter().chain(&self.vec).chain(&self.par)
    }

    /// The leaf variables the points name.
    fn leaves(&self) -> PointLeaves {
        let leaf = |(_, iv): &(Tensor, IterVar)| iv.var.id();
        PointLeaves {
            unroll: self.unroll.iter().map(leaf).collect(),
            vec: self.vec.iter().map(leaf).collect(),
            par: self.par.as_ref().map(leaf),
        }
    }
}

/// A structure's annotation points as the leaf variables they name, which
/// is all a relabeled candidate needs of them (the tensors would keep each
/// structure's cache stages alive).
struct PointLeaves {
    unroll: Vec<VarId>,
    vec: Vec<VarId>,
    par: Option<VarId>,
}

/// The annotations `cfg` chooses among a structure's points, in the order
/// they are applied (a leaf annotated twice keeps the last): `unroll = k`
/// the first `k` of `unroll`, then `vec = 1` every `vec` point, then
/// `par = 1` the `par` point. Missing knobs (e.g. no `vec` on GPU spaces)
/// read as 0.
fn chosen<'a, P>(
    cfg: &ConfigEntity,
    unroll: &'a [P],
    vec: &'a [P],
    par: Option<&'a P>,
) -> impl Iterator<Item = (&'a P, LoopAnn)> {
    let knob = |name: &str| {
        cfg.values
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    };
    let n = knob("unroll").clamp(0, unroll.len() as i64) as usize;
    let vec = if knob("vec") == 1 { vec } else { &[] };
    let par = par.filter(|_| knob("par") == 1);
    let with = |ann| move |p| (p, ann);
    (unroll[..n].iter().map(with(LoopAnn::Unroll)))
        .chain(vec.iter().map(with(LoopAnn::Vectorize)))
        .chain(par.into_iter().map(with(LoopAnn::Parallel)))
}

/// Applies the annotation-only knobs of `cfg` at the recorded points.
/// Missing knobs (e.g. no `vec` on GPU spaces) read as 0.
pub fn apply_annotations(
    s: &mut Schedule,
    cfg: &ConfigEntity,
    points: &AnnPoints,
) -> Result<(), TeError> {
    let (unroll, vec, par) = (&points.unroll, &points.vec, points.par.as_ref());
    for ((t, iv), ann) in chosen(cfg, unroll, vec, par) {
        s.annotate(t, iv, ann)?;
    }
    Ok(())
}

/// Distributes a cache stage's copy loops across the thread block — the
/// cooperative-fetch pattern of §4.2.
pub fn cooperative_load(
    s: &mut Schedule,
    t: &Tensor,
    threads: &[(ThreadTag, i64)],
) -> Result<(), TeError> {
    let axes = t.op.axes();
    let mut fused = axes[0].clone();
    for a in &axes[1..] {
        fused = s.fuse(t, &fused, a)?;
    }
    let total: i64 = threads.iter().map(|(_, e)| *e).product();
    let (_serial, mut rest) = s.split(t, &fused, total)?;
    // Peel thread axes innermost-first.
    let mut bound: Vec<(ThreadTag, IterVar)> = Vec::new();
    for (tag, ext) in threads.iter().rev() {
        let (outer, inner) = s.split(t, &rest, *ext)?;
        bound.push((*tag, inner));
        rest = outer;
    }
    for (tag, iv) in bound {
        s.bind(t, &iv, tag)?;
    }
    Ok(())
}

thread_local! {
    /// The analysis the last [`planned_task`] builder call on this thread
    /// checked the limits with, and the body it describes. `builder` can
    /// only return the function, so the analysis waits here for
    /// [`build_analyzed`], which runs next on the same thread.
    static CHECKED: RefCell<Option<(Stmt, ProgramAnalysis)>> = const { RefCell::new(None) };
}

/// Lowers `cfg` with `task.builder` and analyzes the function, once per
/// candidate: a [`planned_task`] builder has analyzed it already to check the
/// hardware limits, and that analysis is taken over; any other builder's
/// function is analyzed here.
pub(crate) fn build_analyzed(
    task: &TuningTask,
    cfg: &ConfigEntity,
) -> Result<(LoweredFunc, ProgramAnalysis), TeError> {
    let func = (task.builder)(cfg)?;
    let an = match CHECKED.with(|c| c.borrow_mut().take()) {
        Some((body, an)) if body.same_as(&func.body) => an,
        _ => analyze(&func),
    };
    Ok((func, an))
}

/// A structure that lowers: its kernel emitted with every annotation point
/// marked, each point leaf's own loop kind, and the points' leaves. A
/// candidate relabels the kernel's marked loops; the schedule is gone.
struct Marked {
    func: LoweredFunc,
    base: IdMap<VarId, ForKind>,
    leaves: PointLeaves,
}

/// Builds the tuning task over `space` whose candidates are `structural`
/// applied to a fresh schedule of `outputs` (everything except the
/// annotation knobs, whose target loops it returns), annotated, lowered
/// as `func_name(args)` and validated against `target`'s limits.
///
/// Ops are immutable, so one declaration DAG serves every candidate;
/// per-config rewrites (cache_read/cache_write/inline) live in each
/// schedule's own context and never touch the shared ops.
pub fn planned_task(
    name: String,
    space: ConfigSpace,
    target: Target,
    outputs: &[Tensor],
    args: &[Tensor],
    func_name: String,
    structural: impl Fn(&mut Schedule, &ConfigEntity) -> Result<AnnPoints, TeError>
        + Send
        + Sync
        + 'static,
) -> TuningTask {
    let (outputs, args) = (outputs.to_vec(), args.to_vec());
    let limits = target.clone();
    // Each structure's outcome: its marked kernel, or the error every
    // candidate of it gets (no annotation changes either).
    let cache: PlanCache<Result<Marked, TeError>> = PlanCache::default();
    let builder = move |cfg: &ConfigEntity| -> Result<LoweredFunc, TeError> {
        let outcome = cache.get_or_build(structural_key(cfg), || {
            let mut sched = create_schedule(&outputs);
            let points = structural(&mut sched, cfg)?;
            let base = mark_points(&mut sched, points.all())?;
            Ok(Marked {
                func: lower(&sched, &args, &func_name)?,
                base,
                leaves: points.leaves(),
            })
        });
        let Marked { func, base, leaves } = (*outcome).as_ref().map_err(TeError::clone)?;
        let mut kinds = base.clone();
        let (unroll, vec, par) = (&leaves.unroll, &leaves.vec, leaves.par.as_ref());
        for (&leaf, ann) in chosen(cfg, unroll, vec, par) {
            kinds.insert(leaf, ann.loop_kind());
        }
        let f = relabel_loops(func, &kinds);
        let an = analyze(&f);
        limits
            .check_limits(&an)
            .map_err(|e| TeError::msg(e.to_string()))?;
        CHECKED.with(|c| *c.borrow_mut() = Some((f.body.clone(), an)));
        Ok(f)
    };
    TuningTask {
        name,
        space,
        builder: Arc::new(builder),
        target,
        sim_opts: Default::default(),
    }
}
