//! A tuning candidate costs one lowering and one analysis: the hardware
//! limits check, the feature vector, the simulated cost of a measured trial
//! and the predefined model's score all read the one `ProgramAnalysis` made
//! when the candidate was lowered. Counted with the process-wide
//! `tvm_sim::analysis::analyze_calls`, read before and after each run.
//! The device pool adds none: it schedules the cost its caller hands it, and
//! its "upload a module" convenience costs each function once per job,
//! whatever the fleet then does to the attempts.
//!
//! Lives in its own test binary, and its tests take one lock: the count is
//! process-global.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use tvm_autotune::{
    sketch_task, tune, tune_with, ConfigEntity, ConfigSpace, RetryPolicy, Tracker, TuneOptions,
    TuneResult, TunerKind, TuningTask,
};
use tvm_ir::{DType, Expr, LoweredFunc, Stmt};
use tvm_sim::analysis::analyze_calls;
use tvm_sim::{arm_a53, titanx, Fault, FaultPlan, SimOptions};
use tvm_te::{
    compute, create_schedule, lower, placeholder, reduce_axis, sum, TeError, TensorIntrin,
    TensorIntrinImpl,
};

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

/// A 32x32x32 matmul whose inner 4x4x4 tile is a hardware intrinsic, costed
/// by the task's own `sim_opts` (the simulator's default for an unknown
/// intrinsic is 16 ops and 64 bytes a call).
fn tensorized_cpu_task() -> TuningTask {
    let mut space = ConfigSpace::new();
    space.define_split("ty", 8, 8);
    space.define_split("tx", 8, 8);
    space.define_knob("par", &[0, 1]);
    let builder = move |cfg: &ConfigEntity| -> Result<LoweredFunc, TeError> {
        let n = 32i64;
        let a = placeholder(&[n, n], DType::float32(), "A");
        let b = placeholder(&[n, n], DType::float32(), "B");
        let k = reduce_axis(n, "k");
        let c = compute(&[n, n], "C", |i| {
            sum(
                a.at(&[i[0].clone(), k.expr()]) * b.at(&[k.expr(), i[1].clone()]),
                std::slice::from_ref(&k),
            )
        });
        let mut s = create_schedule(std::slice::from_ref(&c));
        let ax = c.op.axes();
        let (yo, xo, yi, xi) = s.tile(&c, &ax[0], &ax[1], 4, 4)?;
        let (ko, ki) = s.split(&c, &c.op.reduce_axes()[0], 4)?;
        let (yoo, yoi) = s.split(&c, &yo, cfg.get("ty"))?;
        let (xoo, xoi) = s.split(&c, &xo, cfg.get("tx"))?;
        s.reorder(&c, &[&yoo, &xoo, &yoi, &xoi, &ko, &yi, &xi, &ki])?;
        if cfg.get("par") == 1 {
            s.parallel(&c, &yoo)?;
        }
        let wd = placeholder(&[4, 4], DType::float32(), "w");
        let xd = placeholder(&[4, 4], DType::float32(), "x");
        let kd = reduce_axis(4, "k");
        let yd = compute(&[4, 4], "y", |i| {
            sum(
                wd.at(&[i[0].clone(), kd.expr()]) * xd.at(&[kd.expr(), i[1].clone()]),
                std::slice::from_ref(&kd),
            )
        });
        let call = |name: &str, bufs: &[&tvm_te::BufferSlice]| {
            let args = bufs
                .iter()
                .flat_map(|b| [b.access_ptr(), b.offset.clone(), b.strides[0].clone()])
                .collect();
            Stmt::evaluate(Expr::hw_call(name, args, DType::int32()))
        };
        let intrin = TensorIntrin::new("gemm4x4", yd, move |inputs, output| TensorIntrinImpl {
            reset: Some(call("mock.fill_zero", &[output])),
            body: call("mock.gemm4x4_acc", &[output, &inputs[0], &inputs[1]]),
        });
        s.tensorize(&c, &yi, intrin)?;
        lower(&s, &[a, b, c], "mm_tensorized")
    };
    let mut sim_opts = SimOptions::default();
    sim_opts
        .intrin_costs
        .insert("mock.gemm4x4_acc".into(), (85.0, 192.0));
    TuningTask {
        name: "analyze_once_mm_tensorized".into(),
        space,
        builder: Arc::new(builder),
        target: arm_a53(),
        sim_opts,
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
            // Directly at 1 and 4 workers, then through a 3-device pool.
            for (threads, pooled) in [(1usize, false), (4, false), (4, true)] {
                let (task, analyzed) = counting(make());
                let mut tracker = Tracker::new(vec![task.target.clone(); 3]);
                let before = analyze_calls();
                let r = with_threads(threads, || {
                    tune_with(&task, &opts, kind, pooled.then_some(&mut tracker), None)
                        .expect("tunes")
                });
                let analyses = analyze_calls() - before;
                let what = format!(
                    "{} / {kind:?} / {threads} workers / pooled {pooled}",
                    task.name
                );
                assert_eq!(r.history.len(), 32, "{what}");
                assert_eq!(r.stats.pool.attempts > 0, pooled, "{what}");
                let analyzed = analyzed.load(Ordering::SeqCst) as u64;
                // The search scored many more candidates than it measured,
                // and measured some: every one of those paths is covered.
                assert!(analyzed > r.stats.simulations as u64, "{what}");
                assert!(r.stats.simulations > 0, "{what}");
                assert_eq!(analyses, analyzed, "{what}");
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
        let before = analyze_calls();
        let (f, ms) = task.measure(&cfg).expect("valid");
        assert_eq!(analyze_calls() - before, 1, "{}", task.name);
        let direct = tvm_sim::estimate_with(&f, &task.target, &task.sim_opts).millis();
        assert_eq!(ms.to_bits(), direct.to_bits(), "{}", task.name);
    }
}

#[test]
fn a_pooled_planned_search_reproduces_the_direct_one() {
    let _g = GLOBALS.lock().unwrap_or_else(|e| e.into_inner());
    // The pool reports the cost the tuner hands it — the candidate's one
    // analysis under the task's own `sim_opts` — so histories must not
    // notice it, on a planned task or on one whose intrinsic is not costed
    // by the simulator's default.
    let opts = TuneOptions {
        n_trials: 24,
        seed: 9,
        ..Default::default()
    };
    for task in [planned_gpu_task(), tensorized_cpu_task()] {
        let direct = tune(&task, &opts, TunerKind::Evolutionary);
        assert!(direct.best_ms.is_finite(), "{}", task.name);
        for threads in [1usize, 4] {
            let mut tracker = Tracker::new(vec![task.target.clone(); 3]);
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
            assert_eq!(history_of(&direct), history_of(&pooled), "{}", task.name);
            assert_eq!(direct.best_ms.to_bits(), pooled.best_ms.to_bits());
            assert_eq!(direct.stats.lowerings, pooled.stats.lowerings);
            assert_eq!(pooled.stats.pool.failed_jobs, 0);
        }
    }
}

#[test]
fn the_pool_analyzes_an_uploaded_job_once_and_a_cost_never() {
    let _g = GLOBALS.lock().unwrap_or_else(|e| e.into_inner());
    let task = plain_cpu_task();
    let funcs: Vec<LoweredFunc> = (0..task.space.size())
        .filter_map(|i| (task.builder)(&task.space.get(i)).ok())
        .take(6)
        .collect();
    let refs: Vec<&LoweredFunc> = funcs.iter().collect();
    // Every job is sampled twice, two attempts fail and are retried, and one
    // noisy sample escalates its job to a median vote.
    let fleet = || {
        let mut t = Tracker::new(vec![arm_a53(); 3]);
        t.set_retry_policy(RetryPolicy {
            replicas: 2,
            ..RetryPolicy::default()
        });
        let mut plan = FaultPlan::none();
        plan.inject(0, 0, Fault::Transient)
            .inject(1, 1, Fault::Transient)
            .inject(2, 0, Fault::Noise(8.0));
        t.set_fault_plan(plan);
        t
    };
    let mut uploaded = fleet();
    let before = analyze_calls();
    let out = uploaded.run_batch_detailed("a53-sim", &refs);
    assert_eq!(analyze_calls() - before, funcs.len() as u64);
    let stats = uploaded.pool_stats().clone();
    assert!(stats.attempts > 2 * funcs.len(), "{stats:?}");
    assert_eq!((stats.retries, stats.remeasured_jobs), (2, 1), "{stats:?}");
    // The vote recovers each job's fault-free time; scheduling those times
    // directly is the same batch without a simulator in it.
    let costs_ms: Vec<f64> = out
        .iter()
        .zip(&refs)
        .map(|(o, f)| {
            let ms = *o.ms.as_ref().expect("job succeeds");
            let clean = tvm_sim::estimate(f, &task.target).millis();
            assert_eq!(ms.to_bits(), clean.to_bits());
            ms
        })
        .collect();
    let mut costed = fleet();
    let before = analyze_calls();
    let again = costed.run_costs("a53-sim", &costs_ms, &[]);
    assert_eq!(analyze_calls() - before, 0);
    assert_eq!(costed.pool_stats(), &stats);
    assert_eq!(costed.health(), uploaded.health());
    let key = |o: &tvm_autotune::JobOutcome| (o.ms.clone().ok(), o.attempts, o.samples, o.device);
    assert_eq!(
        out.iter().map(key).collect::<Vec<_>>(),
        again.iter().map(key).collect::<Vec<_>>()
    );
}
