//! A tuning candidate costs one lowering and one analysis: the hardware
//! limits check, the feature vector, the simulated cost of a measured trial
//! and the predefined model's score all read the one `ProgramAnalysis` made
//! when the candidate was lowered. Counted with the process-wide
//! `tvm_sim::analysis::analyze_calls`, which the tuner reports per run as
//! `TuneStats::analyses` and publishes as the `autotune.analyses` counter.
//!
//! Lives in its own test binary, and its tests take one lock: the count and
//! the obs registry are process-global.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use tvm_autotune::{
    sketch_task, tune, tune_with, ConfigEntity, ConfigSpace, Tracker, TuneOptions, TuneResult,
    TunerKind, TuningTask,
};
use tvm_ir::DType;
use tvm_sim::{arm_a53, titanx};
use tvm_te::{compute, create_schedule, lower, placeholder, reduce_axis, sum, TeError};

static GLOBALS: Mutex<()> = Mutex::new(());

/// A sketch-derived (planned) matmul task on the GPU target: its builder
/// analyzes every function it emits to check shared memory and thread
/// limits.
fn planned_gpu_task() -> TuningTask {
    let n = 64;
    let a = placeholder(&[n, n], DType::float32(), "A");
    let b = placeholder(&[n, n], DType::float32(), "B");
    let k = reduce_axis(n, "k");
    let c = compute(&[n, n], "C", |i| {
        sum(
            a.at(&[i[0].clone(), k.expr()]) * b.at(&[k.expr(), i[1].clone()]),
            std::slice::from_ref(&k),
        )
    });
    sketch_task(
        "analyze_once_mm64",
        std::slice::from_ref(&c),
        &[a, b, c.clone()],
        titanx(),
    )
    .expect("matmul is sketchable")
}

/// A hand-written builder that never analyzes (the 2-D copy of the other
/// suites; a quarter of its space is invalid).
fn plain_cpu_task() -> TuningTask {
    let mut space = ConfigSpace::new();
    space.define_split("tile", 256, 64);
    space.define_knob("vec", &[0, 1]);
    space.define_knob("poison", &[0, 0, 0, 1]);
    let builder = move |cfg: &ConfigEntity| -> Result<tvm_ir::LoweredFunc, TeError> {
        if cfg.get("poison") == 1 {
            return Err(TeError::msg("invalid configuration"));
        }
        let n = 256i64;
        let a = placeholder(&[n, n], DType::float32(), "A");
        let a2 = a.clone();
        let b = compute(&[n, n], "B", move |i| {
            a2.at(&[i[1].clone(), i[0].clone()]) + 1
        });
        let mut s = create_schedule(std::slice::from_ref(&b));
        let ax = b.op.axes();
        let (_, wi) = s.split(&b, &ax[1], cfg.get("tile"))?;
        if cfg.get("vec") == 1 {
            s.vectorize(&b, &wi)?;
        }
        lower(&s, &[a, b], "copy_t")
    };
    TuningTask {
        name: "analyze_once_copy".into(),
        space,
        builder: Arc::new(builder),
        target: arm_a53(),
        sim_opts: Default::default(),
    }
}

/// Wraps `task.builder` to count the builder calls that produced a function
/// to analyze: the accepted ones, and the ones rejected by the limits check
/// (which needs the analysis to reject).
fn counting(mut task: TuningTask) -> (TuningTask, Arc<AtomicUsize>) {
    let analyzed = Arc::new(AtomicUsize::new(0));
    let (inner, count) = (task.builder.clone(), analyzed.clone());
    task.builder = Arc::new(move |cfg: &ConfigEntity| {
        let built = inner(cfg);
        let over_limits = |e: &TeError| {
            let msg = e.to_string();
            msg.contains("shared memory overflow") || msg.contains("too many threads")
        };
        if built.as_ref().map_or_else(over_limits, |_| true) {
            count.fetch_add(1, Ordering::SeqCst);
        }
        built
    });
    (task, analyzed)
}

fn with_threads<T: Send>(threads: usize, f: impl FnOnce() -> T + Send) -> T {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool")
        .install(f)
}

fn history_of(r: &TuneResult) -> Vec<(u64, u64)> {
    r.history
        .iter()
        .map(|t| (t.config_index, t.cost_ms.to_bits()))
        .collect()
}

#[test]
fn a_search_analyzes_each_lowered_candidate_exactly_once() {
    let _g = GLOBALS.lock().unwrap_or_else(|e| e.into_inner());
    let opts = TuneOptions {
        n_trials: 32,
        seed: 5,
        ..Default::default()
    };
    for make in [planned_gpu_task as fn() -> TuningTask, plain_cpu_task] {
        for kind in [
            TunerKind::GbtRank,
            TunerKind::Evolutionary,
            TunerKind::Predefined,
        ] {
            for threads in [1usize, 4] {
                let (task, analyzed) = counting(make());
                tvm_obs::Registry::global().reset();
                tvm_obs::set_enabled(true);
                let r = with_threads(threads, || tune(&task, &opts, kind));
                tvm_obs::set_enabled(false);
                let what = format!("{} / {kind:?} / {threads} workers", task.name);
                assert_eq!(r.history.len(), 32, "{what}");
                let analyzed = analyzed.load(Ordering::SeqCst) as u64;
                // The search scored many more candidates than it measured,
                // and measured some: every one of those paths is covered.
                assert!(analyzed > r.stats.simulations as u64, "{what}");
                assert!(r.stats.simulations > 0, "{what}");
                assert_eq!(r.stats.analyses, analyzed, "{what}");
                assert_eq!(
                    tvm_obs::counter_get("autotune.analyses"),
                    analyzed,
                    "{what}"
                );
            }
        }
    }
}

#[test]
fn task_measure_analyzes_once() {
    let _g = GLOBALS.lock().unwrap_or_else(|e| e.into_inner());
    for task in [planned_gpu_task(), plain_cpu_task()] {
        let cfg = (0..task.space.size())
            .map(|i| task.space.get(i))
            .find(|cfg| (task.builder)(cfg).is_ok())
            .expect("a valid config");
        let before = tvm_sim::analysis::analyze_calls();
        let (f, ms) = task.measure(&cfg).expect("valid");
        assert_eq!(
            tvm_sim::analysis::analyze_calls() - before,
            1,
            "{}",
            task.name
        );
        let direct = tvm_sim::estimate_with(&f, &task.target, &task.sim_opts).millis();
        assert_eq!(ms.to_bits(), direct.to_bits(), "{}", task.name);
    }
}

#[test]
fn a_pooled_planned_search_reproduces_the_direct_one() {
    let _g = GLOBALS.lock().unwrap_or_else(|e| e.into_inner());
    // With a pool the memo also keeps each candidate's function (the pool
    // ships functions to its devices); histories must not notice.
    let opts = TuneOptions {
        n_trials: 24,
        seed: 9,
        ..Default::default()
    };
    let task = planned_gpu_task();
    let direct = tune(&task, &opts, TunerKind::Evolutionary);
    for threads in [1usize, 4] {
        let mut tracker = Tracker::new(vec![titanx(); 3]);
        let pooled = with_threads(threads, || {
            tune_with(
                &task,
                &opts,
                TunerKind::Evolutionary,
                Some(&mut tracker),
                None,
            )
            .expect("tunes")
        });
        assert_eq!(history_of(&direct), history_of(&pooled));
        assert_eq!(direct.stats.lowerings, pooled.stats.lowerings);
        assert_eq!(pooled.stats.pool.failed_jobs, 0);
    }
}
