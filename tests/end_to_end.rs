//! Cross-crate integration tests: the full §2 pipeline — frontend import,
//! graph optimization, operator compilation, tuned deployment — executed
//! functionally, plus the evaluation-shape claims on fast configurations.

use tvm::prelude::*;
use tvm_ir::DType;
use tvm_sim::{arm_a53, mali_t860, titanx};
use tvm_topi as topi;

/// A batch-8 MLP: dense layers under element-wise tails, the other shape
/// (with the CNN's convolutions) a fused group's master takes.
fn small_mlp() -> tvm_graph::Graph {
    let mut g = tvm_graph::Graph::new();
    let x = g.input(&[8, 32], "data");
    let dense = |m, n, k| topi::DenseWorkload {
        m,
        n,
        k,
        dtype: DType::float32(),
    };
    let d1 = g.dense(x, dense(8, 64, 32), "fc1");
    let r1 = g.relu(d1, "r1");
    let d2 = g.dense(r1, dense(8, 16, 64), "fc2");
    let out = g.relu(d2, "out");
    g.outputs.push(out);
    g
}

/// Host reference for `g`: an unfused CPU build — an independently
/// scheduled second compilation acting as the oracle (both executors seed
/// the parameters identically).
fn reference_forward(g: &tvm_graph::Graph, input: &NDArray) -> Vec<f32> {
    let module = tvm::build(
        g,
        &arm_a53(),
        &BuildOptions {
            no_fusion: true,
            db: None,
        },
    )
    .expect("builds");
    let mut ex = GraphExecutor::new(module);
    ex.set_input("data", input.clone()).expect("binds");
    ex.run().expect("runs");
    ex.get_output(0).expect("output").data.clone()
}

/// A database holding, for each conv and dense of `g` on `target`, the
/// cheapest of the first 48 legal configurations after a seeded start whose
/// `use_shared` knob (GPU spaces only) is `use_shared` — a short search, so
/// the record is one a cost comparison would prefer.
fn seeded_db(g: &tvm_graph::Graph, target: &Target, use_shared: i64) -> Database {
    let mut db = Database::new();
    for (n, node) in g.nodes.iter().enumerate() {
        let task = match &node.op {
            tvm_graph::OpType::Conv2d(w) => topi::conv2d_task(*w, node.dtype, target.clone()),
            tvm_graph::OpType::Dense(w) => topi::dense_task(*w, target.clone()),
            _ => continue,
        };
        let size = task.space.size();
        let start = 0x9E37_79B9u64.wrapping_mul(n as u64 + 1) % size;
        let (cfg, ms) = (0..size)
            .map(|step| task.space.get((start + step) % size))
            .filter(|cfg| cfg.try_get("use_shared").map_or(true, |v| v == use_shared))
            .filter_map(|cfg| task.measure(&cfg).map(|(_, ms)| (cfg, ms)))
            .take(48)
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("a legal configuration");
        db.add(&task.name, &cfg, ms);
    }
    db
}

#[test]
fn fused_and_unfused_builds_agree_numerically() {
    for (g, input) in [
        (
            tvm_models::residual_cnn(16),
            NDArray::seeded(&[1, 3, 16, 16], 5),
        ),
        (small_mlp(), NDArray::seeded(&[8, 32], 5)),
    ] {
        let want = reference_forward(&g, &input);
        // Untuned on every target, then under tuning records that stage
        // through shared memory and records that do not.
        let mut cases = vec![
            (arm_a53(), None),
            (arm_a53(), Some(seeded_db(&g, &arm_a53(), 0))),
        ];
        for target in [titanx(), mali_t860()] {
            cases.push((target.clone(), None));
            for use_shared in [0, 1] {
                cases.push((target.clone(), Some(seeded_db(&g, &target, use_shared))));
            }
        }
        for (target, db) in &cases {
            let opts = BuildOptions {
                no_fusion: false,
                db: db.as_ref(),
            };
            let module = tvm::build(&g, target, &opts).expect("builds");
            let at = format!(
                "{} ({} tuning records)",
                target.name(),
                db.as_ref().map_or(0, |db| db.records.len())
            );
            let report = module.verify();
            assert!(!report.has_errors(), "{at}:\n{}", report.render());
            let mut ex = GraphExecutor::new(module);
            ex.set_input("data", input.clone()).expect("binds");
            ex.run().unwrap_or_else(|e| panic!("{at}: {e}"));
            let got = ex.get_output(0).expect("output").data.clone();
            assert_eq!(got.len(), want.len());
            for (i, (a, b)) in got.iter().zip(&want).enumerate() {
                assert!(
                    (a - b).abs() <= 1e-3 * b.abs().max(1.0),
                    "{at}: output {i} differs: {a} vs {b}"
                );
            }
            // ReLU output is non-negative.
            assert!(got.iter().all(|&v| v >= 0.0));
        }
    }
}

#[test]
fn resnet18_fused_and_unfused_agree_at_model_scale() {
    // The flagship model, executed: the fused kernels against the unfused
    // ones, whose groups must run in dependency order through the residual
    // and projection-shortcut branches.
    let g = tvm_models::resnet18(32);
    let input = NDArray::seeded(&[1, 3, 32, 32], 11);
    let infer = |no_fusion: bool| {
        let opts = BuildOptions {
            no_fusion,
            db: None,
        };
        let module = tvm::build(&g, &arm_a53(), &opts).expect("builds");
        let kernels = module.kernels.len();
        let mut ex = GraphExecutor::new(module);
        ex.set_input("data", input.clone()).expect("binds");
        ex.run().expect("runs");
        (kernels, ex.get_output(0).expect("output").data.clone())
    };
    let (fused_kernels, got) = infer(false);
    let (unfused_kernels, want) = infer(true);
    assert!(fused_kernels < unfused_kernels);
    assert_eq!(got.len(), 1000);
    for (i, (a, b)) in got.iter().zip(&want).enumerate() {
        assert!(
            (a - b).abs() <= 1e-3 * b.abs().max(1.0),
            "class {i} differs: {a} vs {b}"
        );
    }
    // A softmax head: a distribution, and not a degenerate one.
    assert!((got.iter().sum::<f32>() - 1.0).abs() < 1e-3);
    assert!(got.iter().all(|p| p.is_finite() && *p >= 0.0));
}

#[test]
fn fusion_reduces_kernel_count_and_time() {
    let g = tvm_models::residual_cnn(16);
    let t = titanx();
    let fused = tvm::build(&g, &t, &BuildOptions::default()).expect("builds");
    let unfused = tvm::build(
        &g,
        &t,
        &BuildOptions {
            no_fusion: true,
            db: None,
        },
    )
    .expect("builds");
    assert!(fused.kernels.len() < unfused.kernels.len());
    assert!(
        fused.total_ms() < unfused.total_ms(),
        "fused {} vs unfused {}",
        fused.total_ms(),
        unfused.total_ms()
    );
}

/// Builds the one-convolution graph of `w` from `r`'s history and takes the
/// static verdict on what ships: the tuner verifies nothing it scores.
fn assert_tuned_kernel_verifies(
    w: topi::Conv2dWorkload,
    task: &tvm_autotune::TuningTask,
    r: &tvm_autotune::TuneResult,
) {
    let mut db = Database::new();
    db.add_result(&task.name, &task.space, r);
    let mut g = tvm_graph::Graph::new();
    let data = g.input(&[w.batch, w.in_c, w.size, w.size], "data");
    let conv = g.conv2d(data, w, "conv");
    g.outputs.push(conv);
    let opts = BuildOptions {
        no_fusion: false,
        db: Some(&db),
    };
    let module = tvm::build(&g, &task.target, &opts).expect("builds");
    assert_eq!(module.total_ms().to_bits(), r.best_ms.to_bits());
    let report = module.verify();
    assert!(!report.has_errors(), "{}:\n{}", task.name, report.render());
}

#[test]
fn tuning_beats_default_schedule() {
    let w = topi::Conv2dWorkload {
        batch: 1,
        size: 14,
        in_c: 32,
        out_c: 32,
        kernel: 3,
        stride: 1,
        pad: 1,
    };
    let task = topi::conv2d_task(w, DType::float32(), titanx());
    let cfg = topi::default_config(&task.space);
    let default_ms = task.measure(&cfg).expect("valid default").1;
    let opts = TuneOptions {
        n_trials: 32,
        ..Default::default()
    };
    let r = tune(&task, &opts, TunerKind::GbtRank);
    assert!(
        r.best_ms <= default_ms,
        "tuned {} should not lose to default {}",
        r.best_ms,
        default_ms
    );
    assert_tuned_kernel_verifies(w, &task, &r);
}

#[test]
fn ml_tuner_is_more_sample_efficient_than_random() {
    // The Fig. 12 shape on a fast workload: compare best-after-N curves.
    let w = topi::Conv2dWorkload {
        batch: 1,
        size: 14,
        in_c: 32,
        out_c: 64,
        kernel: 3,
        stride: 2,
        pad: 1,
    };
    let mk = || topi::conv2d_task(w, DType::float32(), titanx());
    let opts = TuneOptions {
        n_trials: 48,
        ..Default::default()
    };
    let ml = tune(&mk(), &opts, TunerKind::GbtRank);
    let rnd = tune(&mk(), &opts, TunerKind::Random);
    assert_tuned_kernel_verifies(w, &mk(), &ml);
    assert_tuned_kernel_verifies(w, &mk(), &rnd);
    // After the full budget the ML tuner is at least as good.
    assert!(
        ml.best_after(48) <= rnd.best_after(48) * 1.05,
        "ml {} vs random {}",
        ml.best_after(48),
        rnd.best_after(48)
    );
}

#[test]
fn dqn_beats_vendor_model_on_unconventional_convs() {
    // The §6.1 DQN story: library fallback loses to the searched schedule
    // on 4x4/stride-2.
    let t = titanx();
    let w = topi::dqn_convs()[1];
    let vendor = topi::vendor_conv2d_ms(topi::Library::CuDnn, &w, DType::float32(), &t);
    let task = topi::conv2d_task(w, DType::float32(), t);
    let opts = TuneOptions {
        n_trials: 48,
        ..Default::default()
    };
    let tuned = tune(&task, &opts, TunerKind::GbtRank).best_ms;
    assert!(
        vendor / tuned > 1.5,
        "expected a large win on 4x4/s2: vendor {vendor} vs tvm {tuned}"
    );
}

#[test]
fn frontend_to_deployment_round_trip() {
    let json = r#"{
        "inputs": [{"name": "data", "shape": [1, 4, 8, 8]}],
        "nodes": [
            {"name": "c", "op": "conv2d", "inputs": ["data"], "channels": 4, "kernel_size": 3},
            {"name": "r", "op": "relu", "inputs": ["c"]},
            {"name": "g", "op": "global_avg_pool", "inputs": ["r"]},
            {"name": "sm", "op": "softmax", "inputs": ["g"]}
        ],
        "outputs": ["sm"]
    }"#;
    let g = from_json(json).expect("imports");
    let module = tvm::build(&g, &arm_a53(), &Default::default()).expect("builds");
    let mut ex = GraphExecutor::new(module);
    ex.set_input("data", NDArray::seeded(&[1, 4, 8, 8], 3))
        .expect("binds");
    let ms = ex.run().expect("runs");
    assert!(ms > 0.0);
    let out = ex.get_output(0).expect("output");
    let sum: f32 = out.data.iter().sum();
    assert!((sum - 1.0).abs() < 1e-3, "softmax sums to {sum}");
}

#[test]
fn memory_planner_reuses_buffers_on_models() {
    let g = tvm_models::resnet18(32);
    let fused = tvm_graph::fuse(&g, true);
    let plan = tvm_graph::plan_memory(&g, &fused);
    assert!(
        (plan.total_bytes() as f64) < 0.6 * plan.naive_bytes(&g, &fused) as f64,
        "planned {} vs naive {}",
        plan.total_bytes(),
        plan.naive_bytes(&g, &fused)
    );
}

#[test]
fn vdla_latency_hiding_shape() {
    // Fig. 10's mechanism on one layer.
    let w = topi::resnet18_convs()[8];
    let (base, _) = tvm_bench::vdla_gemm::run_conv_on_vdla(&w, false);
    let (hidden, _) = tvm_bench::vdla_gemm::run_conv_on_vdla(&w, true);
    assert_eq!(base.macs, hidden.macs);
    assert!(hidden.cycles < base.cycles);
    assert!(hidden.compute_utilization() > base.compute_utilization() + 0.1);
}
