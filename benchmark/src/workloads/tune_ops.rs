//! `tune_ops` — op = one trial; the timed call is one `tune()` of 32 trials.
//!
//! Section 5's loop, used the opposite way from `compile_zoo` (one operator,
//! thousands of configurations): plan-cached `te` lowering of candidates,
//! `sim::analyze`, feature extraction, GBT fits, and the simulated-annealing
//! and evolutionary proposers. Template and sketch spaces are both in the
//! mix so a tuner-loop refactor cannot trade one for the other. The only
//! multi-threaded workload: `min(nproc, 2)` rayon workers.

use std::path::Path;

use tvm_autotune::{
    tune, ConfigEntity, DbRecord, GbtParams, Journal, Tracker, TuneOptions, TuneResult, TunerKind,
    TuningTask,
};
use tvm_ir::{DType, LoweredFunc};
use tvm_sim::{arm_a53, titanx};
use tvm_topi::{self as topi, Conv2dWorkload, DenseWorkload};

use super::{add, kernel_probes, Templated};
use crate::harness::{geomean, Metrics, Outcome, Rng, Workload};
use crate::trace::Recorder;

const TRIALS: usize = 32;
/// Seeded configurations per task the layer probes lower.
const PROBE_CONFIGS: usize = 100;
/// Lowered kernels per task the simulator, feature and pool probes take.
const PROBE_KERNELS: usize = 40;

fn dense_wl() -> DenseWorkload {
    DenseWorkload {
        m: 64,
        n: 512,
        k: 512,
        dtype: DType::float32(),
    }
}

/// ResNet-18's C7 (Table 2): 28x28, 128 -> 256, 3x3 stride 2.
fn c7() -> Conv2dWorkload {
    topi::resnet18_convs()[6]
}

struct Kind {
    name: &'static str,
    tuner: TunerKind,
    /// A fresh task, so every timed call starts with cold plan and memo
    /// caches, like a tuning run a user starts.
    task: fn() -> TuningTask,
    /// The templated operator behind a template task (not for sketches).
    template: Option<fn() -> (Templated, tvm_sim::Target)>,
}

const KINDS: [Kind; 5] = [
    Kind {
        name: "dense/titanx/template",
        tuner: TunerKind::GbtRank,
        task: || topi::dense_task(dense_wl(), titanx()),
        template: Some(|| {
            let (d, w, out) = topi::dense(&dense_wl());
            (Templated::Dense(d, w, out), titanx())
        }),
    },
    Kind {
        name: "conv2d_c7/titanx/template",
        tuner: TunerKind::GbtRank,
        task: || topi::conv2d_task(c7(), DType::float32(), titanx()),
        template: Some(|| {
            (
                Templated::Conv(topi::conv2d(&c7(), DType::float32()), false),
                titanx(),
            )
        }),
    },
    Kind {
        name: "conv2d_c7/arm_a53/template",
        tuner: TunerKind::GbtRank,
        task: || topi::conv2d_task(c7(), DType::float32(), arm_a53()),
        template: Some(|| {
            (
                Templated::Conv(topi::conv2d(&c7(), DType::float32()), false),
                arm_a53(),
            )
        }),
    },
    Kind {
        name: "dense/titanx/sketch",
        tuner: TunerKind::Evolutionary,
        task: || topi::dense_sketch_task(dense_wl(), titanx()).expect("dense is sketchable"),
        template: None,
    },
    Kind {
        name: "conv2d_c7/titanx/sketch",
        tuner: TunerKind::Evolutionary,
        task: || {
            topi::conv2d_sketch_task(c7(), DType::float32(), titanx())
                .expect("conv2d is sketchable")
        },
        template: None,
    },
];

/// What one `tune()` call must repeat at any thread count.
#[derive(PartialEq, Debug)]
struct Trace {
    history: Vec<(u64, u64)>,
    best_bits: u64,
    lowerings: usize,
    simulations: usize,
    lookups: usize,
}

impl Trace {
    fn of(r: &TuneResult) -> Trace {
        Trace {
            history: r
                .history
                .iter()
                .map(|t| (t.config_index, t.cost_ms.to_bits()))
                .collect(),
            best_bits: r.best_ms.to_bits(),
            lowerings: r.stats.lowerings,
            simulations: r.stats.simulations,
            lookups: r.stats.lookups,
        }
    }
}

pub struct TuneOps {
    seed: u64,
    /// Cost of each kind's default configuration: tuning must not lose to it.
    default_ms: Vec<f64>,
    /// Pass 0, by kind: what every later pass and the 1-thread searches
    /// compare to.
    first: Vec<Option<Trace>>,
}

impl TuneOps {
    /// The tuner's trajectory, and with it the lowerings it performs and the
    /// memory its memo holds, changes by tens of percent with its seed, and
    /// the peak memory of a two-worker run by as much with the order of the
    /// searches. So each task has one fixed tuner seed and the order is
    /// fixed: every pass of every `--seed` times the same five searches, and
    /// every pass must reproduce pass 0 bit for bit. The seed draws the
    /// warm-up search, the task of the one-thread check and the
    /// configurations the layer probes lower.
    fn options(kind: usize) -> TuneOptions {
        TuneOptions {
            n_trials: TRIALS,
            seed: Rng::derive(0x7e57, kind as u64).next_u64(),
            ..TuneOptions::default()
        }
    }

    /// One timed `tune()` on a fresh task under a pool of `threads` workers.
    fn tune_once(
        threads: usize,
        kind: &Kind,
        opts: &TuneOptions,
        span: &'static str,
        op: u64,
        rec: &mut Recorder,
    ) -> (TuneResult, f64) {
        let task = (kind.task)();
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool");
        rec.time(span, op, || pool.install(|| tune(&task, opts, kind.tuner)))
    }
}

impl Workload for TuneOps {
    const NAME: &'static str = "tune_ops";
    /// About 20 timed calls fit in `run_seconds`, so p75 has five samples
    /// beyond it, not ten: forty calls of the default search would take 24 s.
    const TAIL_Q: f64 = 0.75;
    const FIXED_PASSES: usize = 2;
    const PARALLEL: bool = true;

    fn setup(seed: u64) -> Self {
        let mut default_ms = Vec::new();
        for kind in &KINDS {
            let task = (kind.task)();
            let cfg = topi::default_config(&task.space);
            let ms = task.measure(&cfg).map_or(f64::INFINITY, |(_, ms)| ms);
            default_ms.push(ms);
            // Warm-up: one short untimed search per task.
            let opts = TuneOptions {
                n_trials: 8,
                seed,
                ..TuneOptions::default()
            };
            std::hint::black_box(tune(&task, &opts, kind.tuner));
        }
        TuneOps {
            seed,
            default_ms,
            first: KINDS.iter().map(|_| None).collect(),
        }
    }

    fn ops_per_pass(&self) -> u64 {
        (KINDS.len() * TRIALS) as u64
    }

    fn pass(&mut self, idx: usize, rec: &mut Recorder, calls: &mut Vec<f64>, out: &mut Outcome) {
        for (k, kind) in KINDS.iter().enumerate() {
            let opts = Self::options(k);
            let op = (idx * 100 + k) as u64;
            let (r, wall) = Self::tune_once(crate::threads(), kind, &opts, "call.tune", op, rec);
            calls.push(wall);
            out.check(r.history.len() == TRIALS, || {
                format!(
                    "{}: {} trials, asked for {TRIALS}",
                    kind.name,
                    r.history.len()
                )
            });
            out.check(r.best_ms <= self.default_ms[k], || {
                format!(
                    "{}: best {} loses to the default {}",
                    kind.name, r.best_ms, self.default_ms[k]
                )
            });
            let trace = Trace::of(&r);
            match &self.first[k] {
                None => self.first[k] = Some(trace),
                Some(first) => out.check(*first == trace, || {
                    format!("{}: pass {idx} tuned differently from pass 0", kind.name)
                }),
            }
        }
    }

    /// One search again on one thread: the trial history must be
    /// bit-identical at any worker count.
    fn finish(&mut self, out: &mut Outcome) {
        let k = (self.seed % KINDS.len() as u64) as usize;
        let mut rec = Recorder::new(false);
        let (again, _) =
            Self::tune_once(1, &KINDS[k], &Self::options(k), "check.tune", 0, &mut rec);
        let again = Trace::of(&again);
        out.check(self.first[k].as_ref() == Some(&again), || {
            format!(
                "{}: 1 thread and {} threads tuned differently",
                KINDS[k].name,
                crate::threads()
            )
        });
    }

    fn probes(
        &mut self,
        rec: &mut Recorder,
        layer: &mut Metrics,
        out: &mut Outcome,
        scratch: &Path,
    ) {
        // Each search under the timed passes' pool and then on one thread, back to back so the host's speed cancels in the ratio:
        // the real scaling, the exact counters and uncontended phase times.
        let mut stats = (0usize, 0usize, 0usize);
        let mut te = [0u64; 4];
        for (k, kind) in KINDS.iter().enumerate() {
            let opts = Self::options(k);
            let op = k as u64;
            let (pooled, _) =
                Self::tune_once(crate::threads(), kind, &opts, "tune.pooled", op, rec);
            let before = tvm_te::lower_stats();
            let (r, _) = Self::tune_once(1, kind, &opts, "tune.one_thread", op, rec);
            let after = tvm_te::lower_stats();
            let same = self.first[k].as_ref() == Some(&Trace::of(&r))
                && Trace::of(&pooled) == Trace::of(&r);
            out.check(same, || {
                format!(
                    "{}: 1 thread and {} threads tuned differently",
                    kind.name,
                    crate::threads()
                )
            });
            te[0] += after.lowerings - before.lowerings;
            te[1] += after.plan_hits - before.plan_hits;
            te[2] += after.plan_misses - before.plan_misses;
            te[3] += after.lock_wait_ns - before.lock_wait_ns;
            stats.0 += r.stats.lowerings;
            stats.1 += r.stats.simulations;
            stats.2 += r.stats.lookups;
            for phase in &r.work.phases {
                let total: f64 = phase.durs_s.iter().sum();
                match phase.label {
                    "measure" | "lower" => add(layer, "autotune.measure_s", total),
                    "anneal" => add(layer, "autotune.anneal_s", total),
                    _ => {}
                }
            }
        }
        let one_thread_s = rec.total_s("tune.one_thread");
        add(layer, "te.lowerings", te[0] as f64);
        add(layer, "te.plan_hits", te[1] as f64);
        add(layer, "te.plan_misses", te[2] as f64);
        add(layer, "te.lock_wait_ns", te[3] as f64);
        add(layer, "autotune.lowerings", stats.0 as f64);
        add(layer, "autotune.simulations", stats.1 as f64);
        add(layer, "autotune.lookups", stats.2 as f64);
        add(
            layer,
            "autotune.memo_hit_share",
            1.0 - stats.0 as f64 / stats.2.max(1) as f64,
        );
        add(
            layer,
            "autotune.trials_per_s_1t",
            self.ops_per_pass() as f64 / one_thread_s,
        );
        add(
            layer,
            "autotune.scale_2t",
            one_thread_s / rec.total_s("tune.pooled"),
        );

        // Each layer's public functions on seeded configurations of each task.
        let (mut built, mut invalid) = (0usize, 0usize);
        for (k, kind) in KINDS.iter().enumerate() {
            let task = (kind.task)();
            let mut rng = Rng::derive(self.seed, 0x2000 + k as u64);
            let configs: Vec<ConfigEntity> = (0..PROBE_CONFIGS)
                .map(|_| task.space.get(rng.next_u64() % task.space.size().max(1)))
                .collect();
            let mut kernels: Vec<LoweredFunc> = Vec::new();
            for cfg in &configs {
                built += 1;
                match rec
                    .time("topi.task_build", cfg.index, || (task.builder)(cfg))
                    .0
                {
                    Ok(f) if kernels.len() < PROBE_KERNELS => kernels.push(f),
                    Ok(_) => {}
                    Err(_) => invalid += 1,
                }
            }
            if let Some(template) = kind.template {
                let (op, target) = template();
                for cfg in &configs {
                    // Invalid configurations are counted by the builder above.
                    let _ = op.lower(&target, cfg, rec);
                }
            }
            kernel_probes(kernels.iter(), &task.target, rec, layer);

            let (mut xs, mut ys) = (Vec::new(), Vec::new());
            for f in &kernels {
                let an = tvm_sim::analyze(f);
                let (x, _) = rec.time("autotune.features", k as u64, || {
                    tvm_autotune::extract_analysis(&an)
                });
                let ms = tvm_sim::estimate_analysis(&an, &task.target, &task.sim_opts).millis();
                xs.push(x);
                ys.push(-ms.ln());
            }
            let (model, _) = rec.time("autotune.fit", k as u64, || {
                tvm_autotune::fit(&xs, &ys, &GbtParams::default())
            });
            let (score, _) = rec.time("autotune.predict", k as u64, || {
                (0..50)
                    .flat_map(|_| &xs)
                    .map(|x| model.predict(x))
                    .sum::<f64>()
            });
            std::hint::black_box(score);

            let funcs: Vec<&LoweredFunc> = kernels.iter().collect();
            let mut pool = Tracker::new(vec![task.target.clone(); 3]);
            let (timings, _) = rec.time("autotune.pool_batch", k as u64, || {
                pool.run_batch(task.target.name(), &funcs)
            });
            out.check(timings.iter().all(Option::is_some), || {
                format!("{}: a fault-free pool lost a job", kind.name)
            });
        }
        add(layer, "topi.invalid_share", invalid as f64 / built as f64);
        journal_probe(scratch, rec, layer, out);

        for (metric, span) in [
            ("topi.task_build_s", "topi.task_build"),
            ("topi.schedule_s", "topi.schedule"),
            ("te.plan_s", "te.plan"),
            ("te.emit_s", "te.emit"),
            ("sim.analyze_s", "sim.analyze"),
            ("sim.cost_s", "sim.cost"),
            ("analysis.check_s", "analysis.check"),
            ("autotune.features_s", "autotune.features"),
            ("autotune.fit_s", "autotune.fit"),
            ("autotune.predict_s", "autotune.predict"),
            ("autotune.pool_batch_s", "autotune.pool_batch"),
        ] {
            add(layer, metric, rec.total_s(span));
        }
        let best_ms: Vec<f64> = self
            .first
            .iter()
            .flatten()
            .map(|t| f64::from_bits(t.best_bits))
            .collect();
        add(layer, "sim.op_ms", geomean(&best_ms));
    }
}

/// `Journal::append` + `sync` of one tuning run's worth of records, in
/// batches of eight like the tuner's measurement rounds.
fn journal_probe(dir: &Path, rec: &mut Recorder, layer: &mut Metrics, out: &mut Outcome) {
    let path = dir.join("journal-probe.jsonl");
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| Journal::create(&path))
        .and_then(|mut journal| {
            let (appended, wall) = rec.time("autotune.journal_append", 0, || {
                for trial in 0..64u64 {
                    journal.append(DbRecord {
                        task: "journal_probe".into(),
                        trial: trial + 1,
                        config_index: trial * 7919,
                        config: format!("tile_m={},tile_n=8,unroll=1", trial % 16),
                        cost_ms: 1.0 + trial as f64 / 64.0,
                    })?;
                    if trial % 8 == 7 {
                        journal.sync()?;
                    }
                }
                Ok(())
            });
            add(layer, "autotune.journal_append_s", wall);
            appended
        });
    out.check(written.is_ok(), || {
        format!("journal probe at {}: {written:?}", path.display())
    });
}
