//! The back half every tuning-task builder shares, whether its schedule
//! structure comes from a hand-written template (`tvm-topi`) or a sketch
//! ([`crate::sketch`]): plan a structure once, then turn each candidate
//! into a clone + annotate + [`emit_planned`], held to the target's limits
//! ([`Target::check_limits`], the check `tvm::build` makes too) with the
//! one [`ProgramAnalysis`] that the tuner then reads features and simulated
//! cost from ([`build_analyzed`]).

use std::cell::RefCell;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use tvm_ir::{LoweredFunc, Stmt, ThreadTag};
use tvm_sim::{analyze, ProgramAnalysis, Target};
use tvm_te::{
    create_schedule, emit_planned, plan_schedule, IterVar, LowerOptions, LowerPlan, PlanCache,
    Schedule, TeError, Tensor,
};

use crate::config::{ConfigEntity, ConfigSpace};
use crate::tuner::TuningTask;

/// Knobs that only annotate loops (vectorize / parallel / unroll) without
/// changing loop structure, bounds or dataflow. Configurations differing
/// only in these share one [`LowerPlan`] — the incremental-lowering cache
/// is keyed on everything else.
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
/// and `par` mark, captured while applying the structural schedule so the
/// annotations can be re-applied to a cloned schedule on a plan-cache hit.
#[derive(Clone, Default)]
pub struct AnnPoints {
    /// `unroll = k` unrolls the first `k` entries.
    pub unroll: Vec<(Tensor, IterVar)>,
    /// The loops `vec = 1` vectorizes.
    pub vec: Vec<(Tensor, IterVar)>,
    /// The loop `par = 1` parallelizes.
    pub par: Option<(Tensor, IterVar)>,
}

/// Applies the annotation-only knobs of `cfg` at the recorded points.
/// Missing knobs (e.g. no `vec` on GPU spaces) read as 0.
pub fn apply_annotations(
    s: &mut Schedule,
    cfg: &ConfigEntity,
    points: &AnnPoints,
) -> Result<(), TeError> {
    let knob = |name: &str| {
        cfg.values
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    };
    let n = knob("unroll").clamp(0, points.unroll.len() as i64) as usize;
    for (t, iv) in &points.unroll[..n] {
        s.unroll(t, iv)?;
    }
    if knob("vec") == 1 {
        for (t, iv) in &points.vec {
            s.vectorize(t, iv)?;
        }
    }
    if knob("par") == 1 {
        if let Some((t, iv)) = &points.par {
            s.parallel(t, iv)?;
        }
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

/// A structurally-scheduled candidate family cached per structural key:
/// the schedule (pre-annotation), its lowering plan, and the annotation
/// points. Emitting a candidate from this is a clone + annotate +
/// [`emit_planned`] — no re-inlining or bound inference.
struct Planned {
    sched: Schedule,
    plan: LowerPlan,
    points: AnnPoints,
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
    let cache: PlanCache<Planned> = PlanCache::default();
    let builder = move |cfg: &ConfigEntity| -> Result<LoweredFunc, TeError> {
        let planned = cache.get_or_build(structural_key(cfg), || -> Result<Planned, TeError> {
            let mut sched = create_schedule(&outputs);
            let points = structural(&mut sched, cfg)?;
            let plan = plan_schedule(&sched)?;
            Ok(Planned {
                sched,
                plan,
                points,
            })
        })?;
        let mut s = planned.sched.clone();
        apply_annotations(&mut s, cfg, &planned.points)?;
        let f = emit_planned(
            &s,
            &planned.plan,
            &args,
            &func_name,
            &LowerOptions::default(),
        )?;
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
