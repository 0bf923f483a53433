//! The schedule explorers of Fig. 11, as proposers behind the one search
//! loop in [`crate::tuner::tune_with`]. A proposer only decides which
//! configs to measure next: budget truncation, measurement, the history,
//! the journal and the cost-model fit belong to the loop.
//!
//! Only proposers draw from the master RNG, serially, so the order of
//! draws is a run's determinism contract (EXPERIMENTS.md, "Tuning
//! throughput"). Work that fans out to the rayon workers seeds its own RNG
//! from a master draw and merges results in proposal order.

use std::collections::HashSet;

use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};
use rayon::prelude::*;

use crate::config::ConfigSpace;
use crate::gbt::{Gbt, Objective};
use crate::tuner::{timed_par_map, MeasureCache, TuneOptions, TunerKind};

/// What a proposer sees of the search when asked for the next batch.
pub(crate) struct Round<'r, 'a> {
    pub space: &'r ConfigSpace,
    /// Memoized lowering + features, for scoring candidates on the model.
    pub cache: &'r MeasureCache<'a>,
    pub opts: &'r TuneOptions,
    /// Every config index measured so far.
    pub visited: &'r HashSet<u64>,
    /// The online cost model, once it has a batch's worth of samples
    /// (never, for the kinds that declare no model).
    pub model: Option<&'r Gbt>,
    /// Trials left in the budget; the loop truncates longer batches.
    pub remaining: usize,
    /// One measurement batch, clipped to the remaining budget.
    pub want: usize,
}

/// One search strategy: a propose/observe pair around the loop's
/// measurement step.
pub(crate) trait Proposer {
    /// The next batch of config indices to measure, sized by the proposer.
    /// `rng` is the master RNG.
    fn propose(&mut self, r: &Round, rng: &mut StdRng) -> Vec<u64>;

    /// The `(config index, cost)` pairs of the batch just measured, in
    /// proposal order; invalid configs cost `INFINITY`.
    fn observe(&mut self, _measured: &[(u64, f64)]) {}
}

/// The proposer for `kind`, plus the cost model it wants the loop to
/// train: `(objective, boosting rounds added per fit)`.
pub(crate) fn proposer_for(
    kind: TunerKind,
    space: &ConfigSpace,
    opts: &TuneOptions,
    rng: &mut StdRng,
) -> (Box<dyn Proposer>, Option<(Objective, usize)>) {
    let mut annealer = || -> Box<dyn Proposer> {
        let chains = (0..opts.sa_chains).map(|_| space.random_index(rng));
        Box::new(Annealer {
            chains: chains.collect(),
            ..Annealer::default()
        })
    };
    match kind {
        TunerKind::Random => (Box::new(RandomSearch), None),
        TunerKind::Genetic => (Box::<Genetic>::default(), None),
        TunerKind::Predefined => (Box::<Predefined>::default(), None),
        TunerKind::Evolutionary => (Box::<Evolution>::default(), Some((Objective::Rank, 8))),
        TunerKind::GbtRank => (annealer(), Some((Objective::Rank, 4))),
        TunerKind::GbtReg => (annealer(), Some((Objective::Regression, 4))),
    }
}

/// Draws random indices until `out` holds `n`, keeping a draw when
/// `accept`ed or once more than `cap` draws have been made: a nearly
/// exhausted space must not stall the search.
fn fill_random(
    space: &ConfigSpace,
    rng: &mut StdRng,
    out: &mut Vec<u64>,
    n: usize,
    cap: usize,
    accept: impl Fn(u64, &[u64]) -> bool,
) {
    let mut attempts = 0usize;
    while out.len() < n {
        let idx = space.random_index(rng);
        attempts += 1;
        if accept(idx, out) || attempts > cap {
            out.push(idx);
        }
    }
}

/// Extends `out` to `n` with random unmeasured configs; any draw will do
/// when the budget covers the whole space, where repeats are unavoidable.
/// `distinct` also rejects configs already in `out`. The model bootstrap
/// (§5.3: random batches while the cost model has no data) passes `false`
/// — it has always allowed in-batch repeats, and history is contract.
fn fill_unvisited(
    r: &Round,
    rng: &mut StdRng,
    mut out: Vec<u64>,
    n: usize,
    cap: usize,
    distinct: bool,
) -> Vec<u64> {
    let repeats_ok = r.space.size() <= r.opts.n_trials as u64;
    let accept = |idx, out: &[u64]| {
        repeats_ok || !(r.visited.contains(&idx) || distinct && out.contains(&idx))
    };
    fill_random(r.space, rng, &mut out, n, cap, accept);
    out
}

/// Best-first, one entry per config, at most `n`.
fn keep_best(pop: &mut Vec<(u64, f64)>, n: usize) {
    pop.sort_by(|a, b| a.1.total_cmp(&b.1));
    pop.dedup_by_key(|(i, _)| *i);
    pop.truncate(n);
}

/// Predicted score of a config (higher is better); `-inf` when invalid.
fn predict(cache: &MeasureCache, model: &Gbt, idx: u64) -> f64 {
    match cache.lowered(idx) {
        Some(c) => model.predict(&c.feats),
        None => f64::NEG_INFINITY,
    }
}

/// Epsilon-greedy batch of `n` from model-`scored` candidates (higher is
/// better): `exploit` slots for the best-predicted unmeasured configs, a
/// random unmeasured tail so a biased early model cannot trap the search
/// in one basin. Tree predictions plateau and a batch from one plateau is
/// nearly redundant, so exploit slots take one config per distinct score
/// first and backfill from the rest only if that leaves slots empty.
fn select_batch(
    r: &Round,
    rng: &mut StdRng,
    scored: Vec<(u64, f64)>,
    exploit: usize,
    n: usize,
) -> Vec<u64> {
    let mut ranked: Vec<(u64, f64)> = scored
        .into_iter()
        .filter(|(i, _)| !r.visited.contains(i))
        .collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
    let mut out: Vec<u64> = Vec::new();
    let mut levels: HashSet<u64> = HashSet::new();
    for capped in [true, false] {
        for &(i, s) in &ranked {
            if out.len() >= exploit {
                break;
            }
            // Distinct configs often tie on score, so duplicates of one
            // index need not be adjacent after the sort: check `out`.
            if !out.contains(&i) && (!capped || levels.insert(s.to_bits())) {
                out.push(i);
            }
        }
    }
    fill_unvisited(r, rng, out, n, 64, true)
}

/// Binary-tournament parent selection over `(index, cost)` pairs.
fn tournament(rng: &mut StdRng, pop: &[(u64, f64)]) -> u64 {
    let a = &pop[rng.random_range(0..pop.len())];
    let b = &pop[rng.random_range(0..pop.len())];
    if a.1 < b.1 {
        a.0
    } else {
        b.0
    }
}

/// Uniform knob-wise crossover of two config indices.
fn crossover(space: &ConfigSpace, a: u64, b: u64, rng: &mut StdRng) -> u64 {
    let (mut ra, mut rb) = (a % space.size().max(1), b % space.size().max(1));
    let mut out = 0u64;
    let mut mult = 1u64;
    for k in &space.knobs {
        let n = k.options.len() as u64;
        let da = ra % n;
        let db = rb % n;
        ra /= n;
        rb /= n;
        let d = if rng.random_range(0.0..1.0) < 0.5 {
            da
        } else {
            db
        };
        out += d * mult;
        mult *= n;
    }
    out
}

/// One child: two tournament parents, crossover, 30% neighbor mutation.
fn breed(space: &ConfigSpace, rng: &mut StdRng, pop: &[(u64, f64)]) -> u64 {
    let pa = tournament(rng, pop);
    let pb = tournament(rng, pop);
    let child = crossover(space, pa, pb, rng);
    if rng.random_range(0.0..1.0) < 0.3 {
        space.neighbor(child, rng)
    } else {
        child
    }
}

/// Blackbox random search without replacement.
struct RandomSearch;

impl Proposer for RandomSearch {
    fn propose(&mut self, r: &Round, rng: &mut StdRng) -> Vec<u64> {
        fill_unvisited(r, rng, Vec::new(), r.want, usize::MAX, true)
    }
}

/// Blackbox genetic algorithm over knob digit vectors: a measured
/// population, children bred from it, the worst member replaced by any
/// better child.
#[derive(Default)]
struct Genetic {
    pop: Vec<(u64, f64)>,
}

impl Proposer for Genetic {
    fn propose(&mut self, r: &Round, rng: &mut StdRng) -> Vec<u64> {
        if self.pop.is_empty() {
            // Generation zero: the whole population in one batch.
            let size = r.opts.batch.max(8).min(r.remaining);
            return (0..size).map(|_| r.space.random_index(rng)).collect();
        }
        (0..r.want)
            .map(|_| breed(r.space, rng, &self.pop))
            .collect()
    }

    fn observe(&mut self, measured: &[(u64, f64)]) {
        if self.pop.is_empty() {
            self.pop.extend_from_slice(measured);
            return;
        }
        for &(child, cost) in measured {
            let worst = self.pop.iter_mut().max_by(|a, b| a.1.total_cmp(&b.1));
            if let Some(worst) = worst.filter(|w| cost < w.1) {
                *worst = (child, cost);
            }
        }
    }
}

/// Static heuristic score (higher = predicted faster): rewards SIMD-able
/// unit-stride inner loops, parallelism and small inner-tile footprints —
/// the kind of rules a hand-written cost model encodes. Deliberately
/// ignores the memory hierarchy's actual behavior (that is the "model
/// bias" the paper's Table 1 calls out).
pub(crate) fn predefined_score(an: &tvm_sim::ProgramAnalysis) -> f64 {
    let vec_frac = if an.flops > 0.0 {
        an.vector_flops / an.flops
    } else {
        0.0
    };
    let par = (an.parallel_extent as f64).clamp(1.0, 8.0);
    let unit_stride = an
        .accesses
        .iter()
        .filter(|a| a.innermost_stride == 1 || a.innermost_stride == 0)
        .count() as f64
        / an.accesses.len().max(1) as f64;
    let overhead = an.loop_iterations / an.flops.max(1.0);
    // GPU-flavored terms: total parallelism and coalesced global access.
    let threads = (an.block_threads() * an.grid_blocks()) as f64;
    let global: Vec<_> = an
        .accesses
        .iter()
        .filter(|a| a.scope == tvm_ir::MemScope::Global)
        .collect();
    let coalesced = global
        .iter()
        .filter(|a| matches!(a.thread_stride, Some(0) | Some(1)))
        .count() as f64
        / global.len().max(1) as f64;
    threads.clamp(1.0, 16384.0).log2()
        + 3.0 * coalesced
        + 3.0 * vec_frac
        + par.log2()
        + 2.0 * unit_stride
        - overhead
}

/// Table 1's "predefined cost model" row: one budget-wide round of the
/// statically best-scored configs, then single random trials for whatever
/// budget invalid configs left over.
#[derive(Default)]
struct Predefined {
    ranked: bool,
}

impl Proposer for Predefined {
    fn propose(&mut self, r: &Round, rng: &mut StdRng) -> Vec<u64> {
        if self.ranked {
            return vec![r.space.random_index(rng)];
        }
        self.ranked = true;
        // Score a sizeable random sample with the static model. Sampling
        // is serial (RNG), lowering + scoring run on the workers.
        let sample = (r.opts.n_trials * 8).max(64);
        let sample_idx: Vec<u64> = (0..sample).map(|_| r.space.random_index(rng)).collect();
        let mut scored: Vec<(u64, f64)> = sample_idx
            .par_iter()
            .map(|&idx| r.cache.lowered(idx).map(|c| (idx, c.score)))
            .collect::<Vec<Option<(u64, f64)>>>()
            .into_iter()
            .flatten()
            .collect();
        scored.sort_by(|a, b| b.1.total_cmp(&a.1));
        scored.dedup_by_key(|(i, _)| *i);
        scored.into_iter().map(|(i, _)| i).collect()
    }
}

/// The ML-based explorer (§5.3): parallel simulated annealing over the
/// space, scored by the cost model. Chain heads persist across model
/// updates.
#[derive(Default)]
struct Annealer {
    chains: Vec<u64>,
    /// The 8 best measured configs; restarts exploit these basins.
    elites: Vec<(u64, f64)>,
    /// Rounds since the best cost last improved; widens exploration when
    /// the search plateaus (tree predictions tie over large flat regions,
    /// and a purely greedy batch would keep harvesting one basin).
    stagnant: usize,
}

impl Proposer for Annealer {
    fn propose(&mut self, r: &Round, rng: &mut StdRng) -> Vec<u64> {
        let Some(model) = r.model else {
            return fill_unvisited(r, rng, Vec::new(), r.want, usize::MAX, false);
        };
        let _sa_span = tvm_obs::span("propose_sa");
        // Restart half the chains each round — persisting every chain
        // lets one early bad basin capture the whole explorer —
        // alternating between the best *measured* configs (exploit) and
        // fresh random points (explore).
        let mut elite_cursor = 0usize;
        for (i, c) in self.chains.iter_mut().enumerate() {
            if i % 2 == 1 {
                *c = if i % 4 == 1 && !self.elites.is_empty() {
                    let pick = self.elites[elite_cursor % self.elites.len()].0;
                    elite_cursor += 1;
                    pick
                } else {
                    r.space.random_index(rng)
                };
            }
        }
        // Each chain anneals on its own worker with its own RNG, seeded
        // serially here, and candidates merge in chain order.
        let jobs: Vec<(u64, u64)> = self.chains.iter().map(|&c| (c, rng.next_u64())).collect();
        let (runs, durs) = timed_par_map(jobs, |(start, seed)| {
            anneal_chain(r.space, r.cache, model, start, seed, r.opts.sa_steps)
        });
        r.cache.record_phase("anneal", durs);
        let mut cand: Vec<(u64, f64)> = Vec::new();
        for ((head, chain_cands), slot) in runs.into_iter().zip(self.chains.iter_mut()) {
            *slot = head;
            cand.extend(chain_cands);
        }
        // The random tail widens while the search is stagnant: random
        // picks are what escape the plateau the best already sits on.
        let batch = r.opts.batch;
        let explore = ((batch / 4).max(1) * (1 + self.stagnant.min(3))).min(batch / 2);
        let exploit = batch.saturating_sub(explore.max(1));
        select_batch(r, rng, cand, exploit, batch)
    }

    fn observe(&mut self, measured: &[(u64, f64)]) {
        let best = |elites: &[(u64, f64)]| elites.first().map_or(f64::INFINITY, |e| e.1);
        let prev_best = best(&self.elites);
        self.elites
            .extend(measured.iter().filter(|m| m.1.is_finite()));
        keep_best(&mut self.elites, 8);
        let improved = best(&self.elites) < prev_best;
        self.stagnant = if improved { 0 } else { self.stagnant + 1 };
    }
}

/// One annealing chain: walks `steps` neighbors under a geometric cooling
/// schedule, scoring via the memoized lowering cache. Returns the final
/// chain head and every scored state (with its predicted score).
fn anneal_chain(
    space: &ConfigSpace,
    cache: &MeasureCache,
    model: &Gbt,
    start: u64,
    seed: u64,
    steps: usize,
) -> (u64, Vec<(u64, f64)>) {
    let score = |idx| predict(cache, model, idx);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut c = start;
    let mut s = score(c);
    let mut cand: Vec<(u64, f64)> = Vec::new();
    let mut temp = 1.0f64;
    let cooling = 0.9f64;
    for _ in 0..steps {
        let nb = space.neighbor(c, &mut rng);
        let ns = score(nb);
        // Every scored state is a candidate — the model already paid for
        // the prediction, so rejected moves still inform the proposal.
        if ns.is_finite() {
            cand.push((nb, ns));
        }
        let accept = ns > s || rng.random_range(0.0..1.0) < ((ns - s) / temp).exp();
        if accept && ns.is_finite() {
            c = nb;
            s = ns;
        }
        temp *= cooling;
    }
    // Also consider the final chain head.
    if s.is_finite() {
        cand.push((c, s));
    }
    (c, cand)
}

/// Evolutionary search guided by the cost model (the sketch-space
/// driver): between measurements a virtual population is evolved against
/// the model, and only the predicted-best children are measured.
#[derive(Default)]
struct Evolution {
    /// Measured valid configs.
    pop: Vec<(u64, f64)>,
}

impl Evolution {
    fn pop_size(r: &Round) -> usize {
        (r.opts.batch * 2).max(16)
    }

    /// Generation zero, proposed while nothing is measured yet: the space's
    /// own declared seeds first (sketch generators emit occupancy-heuristic
    /// starts; fixed positions keep cold and warmed runs comparable
    /// trial-for-trial), then [`TuneOptions::warm_start`] transfer seeds —
    /// all transfer needs, their genes spread from here — then random fill.
    fn founders(r: &Round, rng: &mut StdRng) -> Vec<u64> {
        let size = Self::pop_size(r).min(r.remaining).max(1);
        let mut init: Vec<u64> = Vec::new();
        for &seed in r.space.seeds.iter().chain(&r.opts.warm_start) {
            let seed = seed % r.space.size().max(1);
            if init.len() < size && !init.contains(&seed) {
                init.push(seed);
            }
        }
        let repeats_ok = r.space.size() <= size as u64;
        let accept = |idx, init: &[u64]| repeats_ok || !init.contains(&idx);
        fill_random(r.space, rng, &mut init, size, 256, accept);
        init
    }

    /// Evolves a virtual population against the model, so each measured
    /// batch is the outcome of a real search over predicted scores rather
    /// than a single breed step; returns every candidate scored. Breeding
    /// is serial from `grng`; only scoring fans out, in proposal order.
    fn evolve(&self, r: &Round, model: &Gbt, grng: &mut StdRng) -> Vec<(u64, f64)> {
        const EVOLVE_ROUNDS: usize = 6;
        let pool = (r.want * 8).max(64);
        let mut seen: HashSet<u64> = HashSet::new();
        let mut scored: Vec<(u64, f64)> = Vec::new();
        // Up to `n` unseen random configs, giving up after `tries` draws.
        let immigrants =
            |cands: &mut Vec<u64>, seen: &mut HashSet<u64>, grng: &mut StdRng, n, tries| {
                for _ in 0..tries {
                    if cands.len() >= n {
                        break;
                    }
                    let idx = r.space.random_index(grng);
                    if seen.insert(idx) {
                        cands.push(idx);
                    }
                }
            };
        // Round zero: the measured population plus uniform immigrants.
        let mut cands: Vec<u64> = Vec::new();
        for &(i, _) in &self.pop {
            if seen.insert(i) {
                cands.push(i);
            }
        }
        immigrants(&mut cands, &mut seen, grng, pool, pool * 8);
        for _ in 0..EVOLVE_ROUNDS {
            if cands.is_empty() {
                break;
            }
            let scores: Vec<f64> = cands
                .par_iter()
                .map(|&idx| predict(r.cache, model, idx))
                .collect();
            scored.extend(cands.iter().copied().zip(scores));
            // Parents: the best-predicted candidates seen so far (negated
            // score, so the tournament's lower-is-better convention
            // applies unchanged).
            let mut parents: Vec<(u64, f64)> = scored.iter().map(|&(i, s)| (i, -s)).collect();
            keep_best(&mut parents, Self::pop_size(r));
            cands.clear();
            for _ in 0..pool * 8 {
                if cands.len() >= pool {
                    break;
                }
                let child = breed(r.space, grng, &parents);
                if seen.insert(child) {
                    cands.push(child);
                }
            }
            // A slice of uniform immigrants each round keeps fresh
            // regions in play, not only recombinations of the elite.
            immigrants(&mut cands, &mut seen, grng, pool + pool / 4, pool * 2);
        }
        scored
    }
}

impl Proposer for Evolution {
    fn propose(&mut self, r: &Round, rng: &mut StdRng) -> Vec<u64> {
        if r.visited.is_empty() {
            return Self::founders(r, rng);
        }
        keep_best(&mut self.pop, Self::pop_size(r));
        let Some(model) = r.model else {
            return fill_unvisited(r, rng, Vec::new(), r.want, 256, false);
        };
        // A dedicated per-generation RNG makes each generation's child
        // stream a pure function of (seed, generation index).
        let mut grng = StdRng::seed_from_u64(rng.next_u64());
        let scored = self.evolve(r, model, &mut grng);
        let explore = (r.want / 4).max(1);
        select_batch(r, &mut grng, scored, r.want.saturating_sub(explore), r.want)
    }

    fn observe(&mut self, measured: &[(u64, f64)]) {
        self.pop.extend(measured.iter().filter(|m| m.1.is_finite()));
    }
}
