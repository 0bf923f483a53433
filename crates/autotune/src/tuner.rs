//! The automated schedule optimizer (§5): schedule explorer + ML cost
//! model + measurement loop (Fig. 11).
//!
//! Fig. 11 is one loop and so is [`tune_with`]: a proposer
//! (the `propose` module, one per [`TunerKind`]) names a batch, the loop
//! truncates it to the remaining budget, measures it, records and
//! journals every trial, feeds the online cost model, and reports the
//! costs back to the proposer. Everything that is not proposal logic
//! lives here, once.
//!
//! Measurement ("run on real hardware") is a full architectural-simulator
//! evaluation per DESIGN.md.
//!
//! The whole loop — lower → analyze → feature-extract → simulate → anneal —
//! runs on rayon workers, and every candidate (one lowering and one
//! `ProgramAnalysis`, kept as its feature vector, its simulated cost and its
//! static score) is memoized per run keyed by config index, so duplicate
//! configs proposed by the explorers are never re-lowered, re-analyzed or
//! re-simulated. The run is bit-for-bit deterministic for a fixed seed at
//! any worker count: batches are proposed serially, measured in parallel,
//! and recorded in proposal order, and each annealing chain owns its own
//! seeded RNG.

use std::collections::{HashMap, HashSet};
use std::convert::Infallible;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;

use tvm_ir::LoweredFunc;
use tvm_sim::{estimate_analysis, SimOptions, Target};
use tvm_te::TeError;

use crate::config::{ConfigEntity, ConfigSpace};
use crate::db::{DbRecord, Journal};
use crate::gbt::{fit_more, Gbt, GbtParams};
use crate::planned::build_analyzed;
use crate::pool::{DeviceHealth, PoolStats, Tracker};
use crate::propose::{predefined_score, proposer_for, Round};

/// Template callback: lowers one configuration, or rejects it with an
/// error. `Send + Sync` so measurement workers can lower configs
/// concurrently (§5.4's parallel measurement).
pub type TemplateBuilder = Arc<dyn Fn(&ConfigEntity) -> Result<LoweredFunc, TeError> + Send + Sync>;

/// A tunable kernel: a config space plus a builder producing a lowered
/// function for each configuration.
pub struct TuningTask {
    /// Task name (db key).
    pub name: String,
    /// Declared schedule space.
    pub space: ConfigSpace,
    /// Template: config -> lowered function. Configs may be invalid
    /// (e.g. exceeding shared memory); the builder returns an error and
    /// the tuner skips them.
    pub builder: TemplateBuilder,
    /// Measurement target.
    pub target: Target,
    /// Simulator options (intrinsic costs).
    pub sim_opts: SimOptions,
}

impl TuningTask {
    /// Builds and "measures" one configuration; `None` when invalid.
    pub fn measure(&self, cfg: &ConfigEntity) -> Option<(LoweredFunc, f64)> {
        let (f, an) = build_analyzed(self, cfg).ok()?;
        let ms = estimate_analysis(&an, &self.target, &self.sim_opts).millis();
        Some((f, ms))
    }
}

// Lowering a config from any worker thread requires the task (and hence
// the IR the builder produces) to be shareable.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<TuningTask>();
    assert_send_sync::<LoweredFunc>();
};

/// Which optimizer drives exploration.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TunerKind {
    /// ML cost model (rank objective) + simulated annealing.
    GbtRank,
    /// ML cost model (regression objective) + simulated annealing.
    GbtReg,
    /// Blackbox random search.
    Random,
    /// Blackbox genetic algorithm.
    Genetic,
    /// Hand-written static cost model (no measurements drive the search;
    /// Table 1's "predefined cost model" row): candidates are ranked by a
    /// simple arithmetic-intensity heuristic, and only the predicted-best
    /// are measured. Zero data cost, but the model's bias caps quality.
    Predefined,
    /// Evolutionary search guided by the ML cost model: tournament
    /// selection + crossover + mutation over the measured population,
    /// children ranked by the GBT before measurement. The default driver
    /// for sketch-derived spaces, where the structural `sketch` knob and
    /// the hole knobs recombine well; honors
    /// [`TuneOptions::warm_start`] seeds (transfer learning).
    Evolutionary,
}

/// Tuning options.
#[derive(Clone, Debug)]
pub struct TuneOptions {
    /// Total measurement trials.
    pub n_trials: usize,
    /// Trials measured per round (the paper measures in batches on the
    /// device cluster).
    pub batch: usize,
    /// Simulated-annealing steps per exploration round.
    pub sa_steps: usize,
    /// Parallel annealing chains.
    pub sa_chains: usize,
    /// RNG seed (determinism for tests/benches).
    pub seed: u64,
    /// Config indices to seed the initial population with (transfer
    /// learning; see [`crate::transfer::warm_start_seeds`]). Used by
    /// [`TunerKind::Evolutionary`]; empty means cold start. When tuning
    /// through a journal with no explicit seeds, [`tune_with`] fills
    /// this from the nearest journaled neighbor automatically.
    pub warm_start: Vec<u64>,
}

impl Default for TuneOptions {
    fn default() -> Self {
        TuneOptions {
            n_trials: 64,
            batch: 8,
            sa_steps: 40,
            sa_chains: 16,
            seed: 0,
            warm_start: Vec::new(),
        }
    }
}

/// One measured trial.
#[derive(Clone, Debug)]
pub struct TrialRecord {
    /// Trial number (1-based).
    pub trial: usize,
    /// Config index in the space.
    pub config_index: u64,
    /// Measured cost (ms); `f64::INFINITY` for invalid configs.
    pub cost_ms: f64,
}

/// Work counters of one tuning run (cache effectiveness / throughput).
///
/// Every field counts this run alone, and nothing copies it into the
/// process-global `tvm-obs` registry, which would sum concurrent runs. The
/// process-wide lowering and analysis counts ([`tvm_te::lower_stats`],
/// [`tvm_sim::analysis::analyze_calls`]) are read around a run by whoever
/// needs them.
#[derive(Clone, Debug, Default)]
pub struct TuneStats {
    /// Template-builder calls: one per distinct config the run looked up.
    /// A planned task's builder emits a kernel only for a new structure and
    /// relabels one otherwise, so [`tvm_te::lower_stats`] counts fewer
    /// emissions than this (see [`crate::planned`]).
    pub lowerings: usize,
    /// Simulator evaluations actually performed.
    pub simulations: usize,
    /// Config lookups served (measurements + explorer scorings); lookups
    /// minus lowerings = memo-cache hits.
    pub lookups: usize,
    /// Retry/quarantine/fault counters from the device pool (zeros when
    /// the run measured without a pool).
    pub pool: PoolStats,
    /// Per-device health at the end of the run (empty without a pool).
    pub device_health: Vec<DeviceHealth>,
}

/// One parallelizable phase of tuner work: the per-item wall-clock
/// durations of a batch whose items ran concurrently, recorded in
/// execution order. The perf ledger sums them per label into its
/// measure and anneal times.
#[derive(Clone, Debug)]
pub struct WorkPhase {
    /// What the items were: `"measure"` (lower + simulate), `"lower"`
    /// (pool path) or `"anneal"` (one SA chain per item).
    pub label: &'static str,
    /// Per-item durations in seconds, in proposal order.
    pub durs_s: Vec<f64>,
}

/// Ordered log of the parallel measurement and annealing work a tuning
/// run performed.
#[derive(Clone, Debug, Default)]
pub struct WorkLog {
    /// Phases in execution order.
    pub phases: Vec<WorkPhase>,
}

/// Result of a tuning run.
#[derive(Clone, Debug)]
pub struct TuneResult {
    /// All measured trials in order.
    pub history: Vec<TrialRecord>,
    /// Best cost found.
    pub best_ms: f64,
    /// Best configuration.
    pub best_config: Option<ConfigEntity>,
    /// `best_curve[i]` = best cost after trial `i+1` (Fig. 12 y-axis data).
    pub best_curve: Vec<f64>,
    /// Lower/simulate/lookup counters for this run.
    pub stats: TuneStats,
    /// Per-phase parallel work durations (see [`WorkLog`]).
    pub work: WorkLog,
}

impl TuneResult {
    /// Best cost after `n` trials (for convergence comparisons).
    pub fn best_after(&self, n: usize) -> f64 {
        if self.best_curve.is_empty() {
            return f64::INFINITY;
        }
        self.best_curve[n.min(self.best_curve.len()) - 1]
    }
}

// ------------------------------------------------------------ memo cache

/// A memoized candidate: what one lowering and one analysis of a valid
/// config leave behind. The function and its analysis are dropped once
/// these are read from them: every scored candidate's loop tree and
/// per-access records would otherwise stay alive for the whole run.
pub(crate) struct Candidate {
    /// Feature vector the cost model scores.
    pub(crate) feats: Arc<Vec<f64>>,
    /// Fault-free simulated cost on the task's target, under the task's
    /// simulator options: what measuring the config records, or hands the
    /// device pool.
    pub(crate) est_ms: f64,
    /// The predefined cost model's static score (higher is better).
    pub(crate) score: f64,
}

/// `None` for invalid configs (builder error).
type Lowered = Option<Arc<Candidate>>;

/// Per-config memo slot: the candidate and the simulated cost are each
/// computed exactly once per tuning run, even when several workers race on
/// the same config.
#[derive(Default)]
struct CacheSlot {
    lowered: OnceLock<Lowered>,
    /// Simulated cost; `INFINITY` for invalid configs.
    cost: OnceLock<f64>,
}

/// Measurement/lowering memoization for one tuning run (keyed by config
/// index): duplicate configs proposed by SA or the genetic explorer reuse
/// the first lowering, feature vector and simulated cost.
pub(crate) struct MeasureCache<'a> {
    task: &'a TuningTask,
    slots: Mutex<HashMap<u64, Arc<CacheSlot>>>,
    lowerings: AtomicUsize,
    simulations: AtomicUsize,
    lookups: AtomicUsize,
    /// Per-phase parallel work durations, harvested into the result.
    work: Mutex<WorkLog>,
    /// When set, measurements dispatch through the fault-tolerant device
    /// pool instead of a direct simulator call. Only the serial batch
    /// path locks it, so contention is nil; the mutex exists to keep the
    /// cache `Sync` for the annealing workers.
    pool: Option<Mutex<&'a mut Tracker>>,
}

impl<'a> MeasureCache<'a> {
    fn new(task: &'a TuningTask) -> Self {
        MeasureCache {
            task,
            slots: Mutex::new(HashMap::new()),
            lowerings: AtomicUsize::new(0),
            simulations: AtomicUsize::new(0),
            lookups: AtomicUsize::new(0),
            work: Mutex::new(WorkLog::default()),
            pool: None,
        }
    }

    /// Pre-loads the measured cost of a config (journal replay on
    /// resume); first writer wins, so replay never overwrites a live
    /// measurement.
    fn preload_cost(&self, idx: u64, cost: f64) {
        let slot = self.slot(idx);
        let _ = slot.cost.get_or_init(|| cost);
    }

    /// Locks the slot map. Poisoned locks are recovered: the map only
    /// holds `Arc`s to per-slot `OnceLock`s, so a panicking peer cannot
    /// leave it torn.
    fn lock_slots(&self) -> MutexGuard<'_, HashMap<u64, Arc<CacheSlot>>> {
        self.slots.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Records one parallelizable phase's per-item durations.
    pub(crate) fn record_phase(&self, label: &'static str, durs_s: Vec<f64>) {
        if durs_s.is_empty() {
            return;
        }
        self.work
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .phases
            .push(WorkPhase { label, durs_s });
    }

    fn slot(&self, idx: u64) -> Arc<CacheSlot> {
        let mut map = self.lock_slots();
        map.entry(idx).or_default().clone()
    }

    /// One served lookup of `idx`'s candidate in its slot.
    fn lowered_in(&self, idx: u64, slot: &CacheSlot) -> Lowered {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        slot.lowered
            .get_or_init(|| {
                self.lowerings.fetch_add(1, Ordering::Relaxed);
                let cfg = self.task.space.get(idx);
                let (_func, an) = build_analyzed(self.task, &cfg).ok()?;
                let task = self.task;
                Some(Arc::new(Candidate {
                    feats: Arc::new(crate::features::extract_analysis(&an)),
                    est_ms: estimate_analysis(&an, &task.target, &task.sim_opts).millis(),
                    score: predefined_score(&an),
                }))
            })
            .clone()
    }

    /// The lowered, analyzed candidate for a config; memoized.
    pub(crate) fn lowered(&self, idx: u64) -> Lowered {
        self.lowered_in(idx, &self.slot(idx))
    }

    /// Simulated cost (and features when valid) for a config; memoized.
    fn measure(&self, idx: u64) -> (f64, Option<Arc<Vec<f64>>>) {
        let slot = self.slot(idx);
        let lowered = self.lowered_in(idx, &slot);
        let cost = *slot.cost.get_or_init(|| match &lowered {
            None => f64::INFINITY,
            Some(c) => {
                self.simulations.fetch_add(1, Ordering::Relaxed);
                c.est_ms
            }
        });
        (cost, lowered.map(|c| Arc::clone(&c.feats)))
    }

    fn stats(&self) -> TuneStats {
        TuneStats {
            lowerings: self.lowerings.load(Ordering::Relaxed),
            simulations: self.simulations.load(Ordering::Relaxed),
            lookups: self.lookups.load(Ordering::Relaxed),
            ..TuneStats::default()
        }
    }
}

/// Maps `f` over `items` on the rayon workers, returning results in input
/// order alongside each item's wall-clock duration — the raw material of
/// a [`WorkPhase`].
pub(crate) fn timed_par_map<T: Send, U: Send>(
    items: Vec<T>,
    f: impl Fn(T) -> U + Sync,
) -> (Vec<U>, Vec<f64>) {
    let timed: Vec<(U, f64)> = items
        .into_par_iter()
        .map(|item| {
            let start = Instant::now();
            let r = f(item);
            (r, start.elapsed().as_secs_f64())
        })
        .collect();
    timed.into_iter().unzip()
}

/// Measures a proposed batch on the rayon workers; results come back in
/// proposal order, so the recorded history is thread-count independent.
///
/// With a device pool attached, the costs of the unmeasured configs are
/// dispatched as one batch through [`Tracker::run_costs`] — retries,
/// quarantine and replica verification included — and permanently failed
/// jobs (all devices dead, retries exhausted) record as `INFINITY` rather
/// than aborting the run.
fn measure_batch(cache: &MeasureCache, batch: &[u64]) -> Vec<(f64, Option<Arc<Vec<f64>>>)> {
    let _span = tvm_obs::span_with("measure", &[("batch", &batch.len().to_string())]);
    let Some(pool) = &cache.pool else {
        let (results, durs) = timed_par_map(batch.to_vec(), |idx| cache.measure(idx));
        cache.record_phase("measure", durs);
        return results;
    };
    // Lower (and feature-extract) everything in parallel; memoized.
    let (lowered, durs): (Vec<Lowered>, Vec<f64>) =
        timed_par_map(batch.to_vec(), |idx| cache.lowered(idx));
    cache.record_phase("lower", durs);
    // Queue each distinct not-yet-measured valid config once, in batch
    // order (the pool's dispatch order decides which device, and so
    // which fault, each job meets).
    let mut queued: HashSet<u64> = HashSet::new();
    let mut jobs: Vec<u64> = Vec::new();
    let mut costs_ms: Vec<f64> = Vec::new();
    for (&idx, low) in batch.iter().zip(&lowered) {
        let slot = cache.slot(idx);
        if slot.cost.get().is_some() || !queued.insert(idx) {
            continue;
        }
        match low {
            Some(c) => {
                jobs.push(idx);
                costs_ms.push(c.est_ms);
            }
            None => {
                let _ = slot.cost.get_or_init(|| f64::INFINITY);
            }
        }
    }
    if !jobs.is_empty() {
        let outcomes = {
            // Poison recovery: a panic on another thread mid-dispatch
            // leaves the tracker in whatever state its own error handling
            // produced — still usable, and far better than cascading the
            // panic through every remaining measurement.
            let mut tracker = pool.lock().unwrap_or_else(|e| e.into_inner());
            tracker.run_costs(cache.task.target.name(), &costs_ms, &[])
        };
        for (&idx, outcome) in jobs.iter().zip(&outcomes) {
            let cost = *outcome.ms.as_ref().unwrap_or(&f64::INFINITY);
            let slot = cache.slot(idx);
            let _ = slot.cost.get_or_init(|| {
                cache.simulations.fetch_add(1, Ordering::Relaxed);
                cost
            });
        }
    }
    batch
        .iter()
        .zip(lowered)
        .map(|(&idx, low)| {
            // Every batch config was queued or preloaded above; if a pool
            // outcome went missing anyway (a tracker bug, a short outcome
            // vector), degrade that config to "invalid" rather than
            // aborting the whole tuning run.
            let cost = cache.slot(idx).cost.get().copied().unwrap_or(f64::INFINITY);
            (cost, low.map(|c| Arc::clone(&c.feats)))
        })
        .collect()
}

/// Runs the optimizer on a task (direct simulator measurement, no pool,
/// no journal).
pub fn tune(task: &TuningTask, opts: &TuneOptions, kind: TunerKind) -> TuneResult {
    let Ok(result) = search(task, opts, kind, None, ());
    result
}

/// Runs the optimizer with optional fault-tolerant measurement and
/// crash-safe journaling.
///
/// * `pool` — dispatch measurements through a health-aware device
///   [`Tracker`] (retries, quarantine, replica verification); its
///   retry/fault counters and per-device health land in
///   [`TuneStats::pool`] / [`TuneStats::device_health`].
/// * `journal` — append every trial to a crash-safe [`Journal`] as it
///   completes. When the journal already holds trials for this task
///   (a previous run was killed), their costs are replayed into the
///   measurement cache and the run resumes: the deterministic explorer
///   re-derives the same proposals, replayed trials cost nothing, and
///   only new trials are measured and appended. Errors at the first
///   failed append, or if the journal was written under a different seed
///   (resuming it would silently diverge).
///
/// The result is bit-for-bit identical to the equivalent uninterrupted
/// [`tune`] run at any worker count, as long as every pooled job
/// eventually succeeds (the fault-tolerance guarantee the chaos tier
/// asserts).
pub fn tune_with(
    task: &TuningTask,
    opts: &TuneOptions,
    kind: TunerKind,
    pool: Option<&mut Tracker>,
    journal: Option<&mut Journal>,
) -> std::io::Result<TuneResult> {
    match journal {
        Some(j) => search(task, opts, kind, pool, j),
        None => {
            let Ok(result) = search(task, opts, kind, pool, ());
            Ok(result)
        }
    }
}

/// Where a run's trials are journaled: a [`Journal`], or nowhere (`()`,
/// whose error type says it cannot fail).
trait TrialLog {
    type Error;

    /// Prepares the log for `task` before its first trial: replays what a
    /// previous run journaled into `cache`, may fill `eff.warm_start`, and
    /// returns how many trials it replayed.
    fn resume(
        &mut self,
        _task: &TuningTask,
        _cache: &MeasureCache,
        _eff: &mut TuneOptions,
    ) -> Result<usize, Self::Error> {
        Ok(0)
    }

    /// Records trial number `trial`: config `idx` (`cfg`) cost `cost_ms`.
    fn append(
        &mut self,
        _task: &TuningTask,
        _trial: usize,
        _idx: u64,
        _cfg: &ConfigEntity,
        _cost_ms: f64,
    ) -> Result<(), Self::Error> {
        Ok(())
    }
}

impl TrialLog for () {
    type Error = Infallible;
}

impl TrialLog for &mut Journal {
    type Error = std::io::Error;

    fn resume(
        &mut self,
        task: &TuningTask,
        cache: &MeasureCache,
        eff: &mut TuneOptions,
    ) -> std::io::Result<usize> {
        let j = &mut **self;
        if let Some(seed) = j.meta_seed(&task.name) {
            if seed != eff.seed {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!(
                        "journal for task `{}` was written with seed {seed}, not {}",
                        task.name, eff.seed
                    ),
                ));
            }
        }
        j.append_meta(&task.name, eff.seed)?;
        // Fingerprint the task in invariant feature space: the signature
        // is journaled (first writer wins, so replays append nothing) and
        // locates the nearest already-tuned neighbor for warm-starting.
        // The canonical config index 0 keeps the fingerprint identical
        // across runs; the invariant block is the feature vector's tail.
        let probe = [0u64, task.space.size() / 2];
        if let Some(feats) = probe
            .iter()
            .find_map(|&i| cache.lowered(i).map(|c| Arc::clone(&c.feats)))
        {
            let sig = feats[feats.len() - crate::features::INVARIANT_FEATURES..].to_vec();
            if eff.warm_start.is_empty() {
                eff.warm_start =
                    crate::transfer::warm_start_seeds(j, &task.name, &sig, &task.space, 4);
            }
            j.append_sig(&task.name, &sig)?;
        }
        let prior = j.trials_for(&task.name);
        for rec in &prior {
            cache.preload_cost(rec.config_index, rec.cost_ms);
        }
        Ok(prior.len())
    }

    fn append(
        &mut self,
        task: &TuningTask,
        trial: usize,
        idx: u64,
        cfg: &ConfigEntity,
        cost_ms: f64,
    ) -> std::io::Result<()> {
        Journal::append(
            self,
            DbRecord {
                task: task.name.clone(),
                trial: trial as u64,
                config_index: idx,
                config: cfg.summary(),
                cost_ms,
            },
        )
    }
}

/// [`tune_with`] over any [`TrialLog`].
fn search<L: TrialLog>(
    task: &TuningTask,
    opts: &TuneOptions,
    kind: TunerKind,
    pool: Option<&mut Tracker>,
    mut log: L,
) -> Result<TuneResult, L::Error> {
    let _tune_span = tvm_obs::span_with(
        "tune",
        &[("task", &task.name), ("tuner", &format!("{kind:?}"))],
    );
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let mut cache = MeasureCache::new(task);
    let pool_before: Option<PoolStats> = pool.as_ref().map(|t| t.pool_stats().clone());
    cache.pool = pool.map(Mutex::new);

    // Effective options: `warm_start` may be filled from the journal's
    // nearest neighbor. Trials already journaled by a previous (killed)
    // run are replayed from the memo cache and not appended again.
    let mut eff = opts.clone();
    let journaled = log.resume(task, &cache, &mut eff)?;

    let opts = &eff;
    let (mut proposer, model_spec) = proposer_for(kind, &task.space, opts, &mut rng);
    let mut model = model_spec.map(|(objective, trees_per_round)| CostModel {
        params: GbtParams {
            objective,
            ..GbtParams::default()
        },
        trees_per_round,
        ..CostModel::default()
    });
    let (mut history, mut best_curve) = (Vec::new(), Vec::new());
    let (mut best_ms, mut best_config) = (f64::INFINITY, None);
    let mut visited: HashSet<u64> = HashSet::new();
    while history.len() < opts.n_trials {
        let remaining = opts.n_trials - history.len();
        // Propose serially (RNG), measure in parallel, record in proposal
        // order.
        let round = Round {
            space: &task.space,
            cache: &cache,
            opts,
            visited: &visited,
            model: model.as_mut().and_then(|m| m.refit(opts.batch)),
            remaining,
            want: opts.batch.min(remaining).max(1),
        };
        let mut batch = proposer.propose(&round, &mut rng);
        batch.truncate(remaining);
        visited.extend(&batch);
        let mut measured: Vec<(u64, f64)> = Vec::with_capacity(batch.len());
        for (&idx, (cost, feats)) in batch.iter().zip(measure_batch(&cache, &batch)) {
            let valid = feats.filter(|_| cost.is_finite());
            let cost = if valid.is_some() { cost } else { f64::INFINITY };
            if let (Some(m), Some(feats)) = (&mut model, valid) {
                m.xs.push(feats.as_ref().clone());
                m.ys.push(-(cost.max(1e-9)).ln());
            }
            let cfg = task.space.get(idx);
            let trial = history.len() + 1;
            if trial > journaled {
                log.append(task, trial, idx, &cfg, cost)?;
            }
            history.push(TrialRecord {
                trial,
                config_index: idx,
                cost_ms: cost,
            });
            if cost < best_ms {
                best_ms = cost;
                best_config = Some(cfg);
            }
            best_curve.push(best_ms);
            measured.push((idx, cost));
        }
        proposer.observe(&measured);
    }
    let mut result = TuneResult {
        history,
        best_ms,
        best_config,
        best_curve,
        stats: cache.stats(),
        work: std::mem::take(cache.work.get_mut().unwrap_or_else(|e| e.into_inner())),
    };
    if let Some(m) = cache.pool.take() {
        let tracker: &mut Tracker = m.into_inner().unwrap_or_else(|e| e.into_inner());
        let before = pool_before.unwrap_or_default();
        result.stats.pool = tracker.pool_stats().minus(&before);
        result.stats.device_health = tracker.health();
    }
    Ok(result)
}

/// The online cost model (§5.2): a GBT ensemble over the features of every
/// valid measured config, extended warm-start each round — every batch of
/// new measurements adds `trees_per_round` boosting rounds on the grown
/// history instead of refitting the whole ensemble, so the serial fit
/// stays off the measurement loop's critical path.
#[derive(Default)]
struct CostModel {
    params: GbtParams,
    trees_per_round: usize,
    /// Feature vectors and `-ln(cost)` scores of the valid trials.
    xs: Vec<Vec<f64>>,
    ys: Vec<f64>,
    gbt: Gbt,
    /// Samples the ensemble has been fitted on.
    trained: usize,
}

impl CostModel {
    /// The model fitted on every sample so far, or `None` while it has
    /// fewer than one batch of them (the proposer bootstraps randomly).
    fn refit(&mut self, batch: usize) -> Option<&Gbt> {
        if self.xs.is_empty() || self.xs.len() < batch {
            return None;
        }
        if self.xs.len() > self.trained {
            let _fit_span = tvm_obs::span_with("fit", &[("samples", &self.xs.len().to_string())]);
            fit_more(
                &mut self.gbt,
                &self.xs,
                &self.ys,
                &self.params,
                self.trees_per_round,
            );
            self.trained = self.xs.len();
        }
        Some(&self.gbt)
    }
}
