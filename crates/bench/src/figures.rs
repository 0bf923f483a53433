//! Data generators for every evaluation figure and table of the paper.
//! Each function returns the rows the corresponding plot/table shows;
//! `entries` prints them and checks the paper's claims against them.

use tvm::compiler::{build, BuildOptions};
use tvm_autotune::{tune, Database, TuneOptions, TunerKind, TuningTask};
use tvm_graph::Graph;
use tvm_ir::DType;
use tvm_sim::{arm_a53, mali_t860, titanx, Target};
use tvm_topi::{self as topi, Library};

use crate::baselines_e2e::{framework_e2e_ms, Framework};
use crate::vdla_gemm::run_conv_on_vdla;

/// Small deterministic tuning budget used throughout the harness.
pub fn quick_tune_opts(n_trials: usize) -> TuneOptions {
    TuneOptions {
        n_trials,
        batch: 8,
        sa_steps: 10,
        sa_chains: 8,
        seed: 42,
        warm_start: Vec::new(),
    }
}

/// Tunes a task with the ML optimizer and returns the best simulated ms.
pub fn tuned_ms(task: &TuningTask, trials: usize) -> f64 {
    tune(task, &quick_tune_opts(trials), TunerKind::GbtRank).best_ms
}

// ---------------------------------------------------------------- Fig. 4

/// One fusion-benchmark row: workload, times without/with operator fusion.
pub struct FusionRow {
    /// Workload label (as in the figure).
    pub name: String,
    /// End-to-end ms without fusion.
    pub no_fusion_ms: f64,
    /// End-to-end ms with fusion.
    pub fusion_ms: f64,
}

impl FusionRow {
    /// Relative speedup from fusion.
    pub fn speedup(&self) -> f64 {
        self.no_fusion_ms / self.fusion_ms
    }
}

/// Fig. 4: fused vs non-fused operations on the server GPU model.
pub fn fig04_fusion(trials: usize) -> Vec<FusionRow> {
    let target = titanx();
    let mut rows = Vec::new();
    let cases: Vec<(&str, Graph)> = vec![
        ("conv+bn+relu 128x28x28 k1", {
            // 1x1x128x256 conv at 28x28 with bn + relu, per the figure.
            let mut g = Graph::new();
            let x = g.input(&[1, 128, 28, 28], "data");
            let w = topi::Conv2dWorkload {
                batch: 1,
                size: 28,
                in_c: 128,
                out_c: 256,
                kernel: 1,
                stride: 1,
                pad: 0,
            };
            let c = g.conv2d(x, w, "conv");
            let b = g.batch_norm(c, "bn");
            let r = g.relu(b, "relu");
            g.outputs.push(r);
            g
        }),
        ("dwconv+bn+relu 512x14x14 k3", {
            let mut g = Graph::new();
            let x = g.input(&[1, 512, 14, 14], "data");
            let w = topi::DepthwiseConv2dWorkload {
                batch: 1,
                size: 14,
                channels: 512,
                kernel: 3,
                stride: 1,
                pad: 1,
            };
            let d = g.depthwise_conv2d(x, w, "dw");
            let b = g.batch_norm(d, "bn");
            let r = g.relu(b, "relu");
            g.outputs.push(r);
            g
        }),
        ("rnn cell h=128", {
            // h' = tanh(Wx + Uh)
            let mut g = Graph::new();
            let dw = topi::DenseWorkload {
                m: 1,
                n: 128,
                k: 128,
                dtype: DType::float32(),
            };
            let x = g.input(&[1, 128], "x");
            let h = g.input(&[1, 128], "h");
            let a = g.dense(x, dw, "wx");
            let b = g.dense(h, dw, "uh");
            let s = g.add_op(a, b, "sum");
            let shape = g.node(s).shape.clone();
            let t = g.add(tvm_graph::OpType::Tanh, vec![s], shape, "tanh");
            g.outputs.push(t);
            g
        }),
        ("lstm cell h=128", { tvm_models::lstm_lm(128, 1) }),
    ];
    for (name, g) in cases {
        let db = tune_graph_convs(&g, &target, trials);
        let total_ms = |no_fusion| {
            let opts = BuildOptions {
                no_fusion,
                db: Some(&db),
            };
            build(&g, &target, &opts).expect("builds").total_ms()
        };
        rows.push(FusionRow {
            name: name.to_string(),
            no_fusion_ms: total_ms(true),
            fusion_ms: total_ms(false),
        });
    }
    rows
}

// ---------------------------------------------------------------- Fig. 7

/// One matmul row of Fig. 7.
pub struct GemmRow {
    /// Square matrix size.
    pub size: i64,
    /// cuBLAS-model time.
    pub cublas_ms: f64,
    /// TVM without cooperative shared-memory fetching.
    pub tvm_no_coop_ms: f64,
    /// Full TVM (shared-memory cooperative fetch allowed).
    pub tvm_ms: f64,
}

/// Fig. 7: cooperative memory fetching on matmul, Titan X model.
pub fn fig07_gemm(trials: usize) -> Vec<GemmRow> {
    let target = titanx();
    let mut rows = Vec::new();
    for size in [1024i64, 2048] {
        let w = topi::DenseWorkload {
            m: size,
            n: size,
            k: size,
            dtype: DType::float32(),
        };
        let cublas = topi::vendor_dense_ms(Library::CuBlas, &w, &target);
        let mut no_coop = topi::dense_task(w, target.clone());
        // Restrict the space: shared-memory staging off.
        for k in &mut no_coop.space.knobs {
            if k.name == "use_shared" {
                k.options = vec![0];
            }
        }
        let mut coop = topi::dense_task(w, target.clone());
        for k in &mut coop.space.knobs {
            if k.name == "use_shared" {
                k.options = vec![1];
            }
        }
        rows.push(GemmRow {
            size,
            cublas_ms: cublas,
            tvm_no_coop_ms: tuned_ms(&no_coop, trials),
            tvm_ms: tuned_ms(&coop, trials),
        });
    }
    rows
}

// --------------------------------------------------------------- Fig. 10

/// One roofline point per ResNet conv layer on the VDLA.
pub struct RooflineRow {
    /// Layer label (C2..C12).
    pub name: String,
    /// Operational intensity (ops/byte).
    pub intensity: f64,
    /// GOPS without latency hiding.
    pub gops_base: f64,
    /// GOPS with latency hiding.
    pub gops_hidden: f64,
    /// Compute utilization without / with latency hiding.
    pub util_base: f64,
    /// Utilization with latency hiding.
    pub util_hidden: f64,
}

/// Fig. 10: roofline of the VDLA running ResNet conv layers, with and
/// without virtual-thread latency hiding.
pub fn fig10_roofline() -> Vec<RooflineRow> {
    let mut rows = Vec::new();
    for (i, w) in topi::resnet18_convs().iter().enumerate().skip(1) {
        let (base, spec) = run_conv_on_vdla(w, false);
        let (hidden, _) = run_conv_on_vdla(w, true);
        rows.push(RooflineRow {
            name: format!("C{}", i + 1),
            intensity: hidden.intensity(),
            gops_base: base.gops(&spec),
            gops_hidden: hidden.gops(&spec),
            util_base: base
                .busy
                .get(&tvm_ir::PipeStage::Compute)
                .copied()
                .unwrap_or(0.0)
                / base.cycles.max(1.0),
            util_hidden: hidden.compute_utilization(),
        });
    }
    rows
}

// --------------------------------------------------------------- Fig. 12

/// A tuning-convergence curve.
pub struct TuneCurve {
    /// Method label.
    pub method: String,
    /// Best cost after each trial.
    pub best_curve: Vec<f64>,
}

/// Fig. 12: ML-based model vs blackbox genetic algorithm vs random search
/// on a ResNet-18 conv2d (C7), against the cuDNN model baseline.
/// Returns (curves, cudnn_ms).
pub fn fig12_tuning(trials: usize) -> (Vec<TuneCurve>, f64) {
    let target = titanx();
    let w = topi::resnet18_convs()[6]; // C7
    let cudnn = topi::vendor_conv2d_ms(Library::CuDnn, &w, DType::float32(), &target);
    let mut curves = Vec::new();
    for (name, kind) in [
        ("ML-based model", TunerKind::GbtRank),
        ("Blackbox genetic", TunerKind::Genetic),
        ("Random search", TunerKind::Random),
    ] {
        let task = topi::conv2d_task(w, DType::float32(), target.clone());
        let r = tune(&task, &quick_tune_opts(trials), kind);
        curves.push(TuneCurve {
            method: name.to_string(),
            best_curve: r.best_curve,
        });
    }
    (curves, cudnn)
}

// ------------------------------------------------- Figs. 14 / 16 / 19

/// One comparison row: a model or operator label and per-system times.
pub struct Row {
    /// Model name or operator label (C1..C12, D1..D9).
    pub name: String,
    /// (system label, ms) pairs.
    pub systems: Vec<(String, f64)>,
}

impl Row {
    /// Time of a labeled system, if the row has it.
    pub fn get(&self, label: &str) -> Option<f64> {
        self.systems
            .iter()
            .find(|(l, _)| l == label)
            .map(|(_, v)| *v)
    }
}

fn tune_graph_convs(g: &Graph, target: &Target, trials: usize) -> Database {
    let mut db = Database::new();
    let mut seen: Vec<String> = Vec::new();
    for node in &g.nodes {
        let task = match &node.op {
            tvm_graph::OpType::Conv2d(w) => topi::conv2d_task(*w, node.dtype, target.clone()),
            tvm_graph::OpType::DepthwiseConv2d(w) => {
                topi::depthwise_task(*w, node.dtype, target.clone())
            }
            tvm_graph::OpType::Dense(w) => topi::dense_task(*w, target.clone()),
            _ => continue,
        };
        if !seen.contains(&task.name) {
            seen.push(task.name.clone());
            let r = tune(&task, &quick_tune_opts(trials), TunerKind::GbtRank);
            db.add_result(&task.name, &task.space, &r);
        }
    }
    db
}

/// One row per model: each framework baseline, then TVM without and with
/// graph optimization, both built from one per-op tuning database.
fn e2e_rows(
    models: Vec<(&str, Graph)>,
    target: &Target,
    baselines: &[Framework],
    trials: usize,
) -> Vec<Row> {
    let row = |(model, g): &(&str, Graph)| {
        let db = tune_graph_convs(g, target, trials);
        let tvm_ms = |no_fusion| {
            let opts = BuildOptions {
                no_fusion,
                db: Some(&db),
            };
            build(g, target, &opts).expect("builds").total_ms()
        };
        let mut systems: Vec<(String, f64)> = baselines
            .iter()
            .map(|fw| (format!("{fw:?}"), framework_e2e_ms(g, *fw, target)))
            .collect();
        systems.push(("TVM w/o graph opt".to_string(), tvm_ms(true)));
        systems.push(("TVM".to_string(), tvm_ms(false)));
        Row {
            name: model.to_string(),
            systems,
        }
    };
    models.iter().map(row).collect()
}

/// Fig. 14: server-GPU end-to-end comparison. `input_size` scales the
/// vision models (224 = paper scale); `trials` is the per-op tuning
/// budget.
pub fn fig14_gpu_e2e(input_size: i64, trials: usize) -> Vec<Row> {
    let models = vec![
        ("ResNet-18", tvm_models::resnet18(input_size)),
        ("MobileNet", tvm_models::mobilenet(input_size)),
        ("LSTM LM", tvm_models::lstm_lm(128, 4)),
        ("DQN", tvm_models::dqn()),
        ("DCGAN", tvm_models::dcgan_generator()),
    ];
    let fws = [
        Framework::MxNet,
        Framework::TensorFlow,
        Framework::TensorFlowXla,
    ];
    e2e_rows(models, &titanx(), &fws, trials)
}

/// Fig. 16: ARM A53 end-to-end vs the TFLite model.
pub fn fig16_arm_e2e(input_size: i64, trials: usize) -> Vec<Row> {
    let models = vec![
        ("ResNet-18", tvm_models::resnet18(input_size)),
        ("MobileNet", tvm_models::mobilenet(input_size)),
        ("DQN", tvm_models::dqn()),
    ];
    e2e_rows(models, &arm_a53(), &[Framework::TfLite], trials)
}

/// Fig. 19: Mali GPU, fp32 and fp16, vs the ARM Compute Library model.
/// Reported per model as the sum of its conv workload times (the
/// convolution-dominated portion), for both precisions.
pub fn fig19_mali(trials: usize) -> Vec<Row> {
    let target = mali_t860();
    let mut rows = Vec::new();
    let models: Vec<(&str, Vec<topi::Conv2dWorkload>)> = vec![
        ("ResNet-18", topi::resnet18_convs()),
        ("DQN", topi::dqn_convs()),
    ];
    for (name, convs) in models {
        for (dt, label) in [(DType::float32(), "float32"), (DType::float16(), "float16")] {
            let mut acl = 0.0;
            let mut tvm_t = 0.0;
            for w in &convs {
                acl += topi::vendor_conv2d_ms(Library::ArmComputeLib, w, dt, &target);
                let task = topi::conv2d_task(*w, dt, target.clone());
                tvm_t += tuned_ms(&task, trials);
            }
            rows.push(Row {
                name: format!("{name} {label}"),
                systems: vec![
                    ("ARMComputeLib".to_string(), acl),
                    ("TVM".to_string(), tvm_t),
                ],
            });
        }
    }
    rows
}

// ---------------------------------------------------- Figs. 15 / 17

/// Figs. 15 (GPU) / 17 (ARM): per-operator comparison over all Table 2
/// workloads. `gpu` selects the target and baselines.
pub fn per_op_rows(gpu: bool, trials: usize) -> Vec<Row> {
    let target = if gpu { titanx() } else { arm_a53() };
    let mut rows = Vec::new();
    for (i, w) in topi::resnet18_convs().iter().enumerate() {
        let mut systems = Vec::new();
        if gpu {
            systems.push((
                "cuDNN".to_string(),
                topi::vendor_conv2d_ms(Library::CuDnn, w, DType::float32(), &target),
            ));
            // Tensor Comprehensions: blackbox auto-tuning (scaled-down
            // trial count relative to the paper's 2000).
            let task = topi::conv2d_task(*w, DType::float32(), target.clone());
            let tc = tune(&task, &quick_tune_opts(trials), TunerKind::Genetic);
            systems.push(("TC".to_string(), tc.best_ms));
        } else {
            systems.push((
                "TFLite".to_string(),
                topi::vendor_conv2d_ms(Library::TfLite, w, DType::float32(), &target),
            ));
        }
        let task = topi::conv2d_task(*w, DType::float32(), target.clone());
        systems.push(("TVM".to_string(), tuned_ms(&task, trials)));
        // Weight-pretransformed Winograd for 3x3/s1 layers (TVM PT), CPU
        // flavor (see winograd module docs).
        if !gpu && w.kernel == 3 && w.stride == 1 && w.out_size() % 2 == 0 {
            let pt = topi::winograd_task(*w, DType::float32(), target.clone());
            systems.push(("TVM PT".to_string(), tuned_ms(&pt, trials)));
        }
        rows.push(Row {
            name: format!("C{}", i + 1),
            systems,
        });
    }
    for (i, w) in topi::mobilenet_dwconvs().iter().enumerate() {
        let mut systems = Vec::new();
        if gpu {
            systems.push((
                "MX Kernel".to_string(),
                topi::vendor_depthwise_ms(Library::MxKernel, w, DType::float32(), &target),
            ));
        } else {
            systems.push((
                "TFLite".to_string(),
                topi::vendor_depthwise_ms(Library::TfLite, w, DType::float32(), &target),
            ));
        }
        let task = topi::depthwise_task(*w, DType::float32(), target.clone());
        systems.push(("TVM".to_string(), tuned_ms(&task, trials)));
        rows.push(Row {
            name: format!("D{}", i + 1),
            systems,
        });
    }
    rows
}

// --------------------------------------------------------------- Fig. 18

/// Fig. 18: ultra-low-precision (2-bit activation, 1-bit weight) conv on
/// ARM vs the Caffe2 ultra-low-precision model; single- and multi-
/// threaded TVM.
pub fn fig18_lowprec(trials: usize) -> Vec<Row> {
    let target = arm_a53();
    let mut rows = Vec::new();
    for (i, c) in topi::resnet18_convs().iter().enumerate().skip(1) {
        // Packed inputs are spatially pre-padded; the operator itself runs
        // pad-free.
        let w = tvm_topi::bitserial::BitserialWorkload {
            conv: topi::Conv2dWorkload {
                pad: 0,
                size: c.size + 2 * c.pad,
                ..*c
            },
            a_bits: 2,
            w_bits: 1,
        };
        let base = topi::vendor_conv2d_ms(Library::Caffe2LowPrec, c, DType::uint(8), &target) / 9.0; // low-precision kernels are ~9x cheaper than int8 MACs
        let single = tvm_topi::bitserial::bitserial_task(w, target.clone(), false);
        let multi = tvm_topi::bitserial::bitserial_task(w, target.clone(), true);
        rows.push(Row {
            name: format!("C{}", i + 1),
            systems: vec![
                ("Hand optimized".to_string(), base),
                ("TVM single-threaded".to_string(), tuned_ms(&single, trials)),
                ("TVM multi-threaded".to_string(), tuned_ms(&multi, trials)),
            ],
        });
    }
    rows
}

// --------------------------------------------------------------- Fig. 21

/// Fig. 21 data: ResNet-18 inference time split into conv time and other
/// time, for CPU-only and CPU+FPGA execution.
pub struct OffloadRow {
    /// Execution mode label.
    pub mode: String,
    /// Time spent in offloadable conv layers.
    pub conv_ms: f64,
    /// First (non-offloaded) conv layer.
    pub layer0_ms: f64,
    /// Everything else (CPU).
    pub other_ms: f64,
}

impl OffloadRow {
    /// Total time.
    pub fn total_ms(&self) -> f64 {
        self.conv_ms + self.layer0_ms + self.other_ms
    }
}

/// Fig. 21: offloading ResNet conv layers to the VDLA.
pub fn fig21_offload(input_size: i64, trials: usize) -> Vec<OffloadRow> {
    let cpu = arm_a53();
    let g = tvm_models::resnet18(input_size);
    let db = tune_graph_convs(&g, &cpu, trials);
    let module = build(
        &g,
        &cpu,
        &BuildOptions {
            no_fusion: false,
            db: Some(&db),
        },
    )
    .expect("builds");
    // Split CPU kernel times: conv groups (except the shallow stem conv,
    // which stays on the CPU) vs the rest.
    let mut conv_cpu = 0.0;
    let mut layer0 = 0.0;
    let mut other = 0.0;
    for k in &module.kernels {
        if k.name.contains("conv2d") && !k.name.contains("depthwise") {
            if layer0 == 0.0 {
                layer0 = k.est_ms; // first conv in execution order = stem
            } else {
                conv_cpu += k.est_ms;
            }
        } else {
            other += k.est_ms;
        }
    }
    // FPGA path: every offloadable conv runs on the VDLA pipeline.
    let spec = tvm_vdla::VdlaSpec::default();
    let mut conv_fpga = 0.0;
    let mut seen_first = false;
    for node in &g.nodes {
        if let tvm_graph::OpType::Conv2d(w) = &node.op {
            if !seen_first {
                seen_first = true; // stem stays on CPU
                continue;
            }
            let (r, _) = run_conv_on_vdla(w, true);
            conv_fpga += r.millis(&spec);
        }
    }
    vec![
        OffloadRow {
            mode: "TVM ARM".to_string(),
            conv_ms: conv_cpu,
            layer0_ms: layer0,
            other_ms: other,
        },
        OffloadRow {
            mode: "TVM ARM+FPGA".to_string(),
            conv_ms: conv_fpga,
            layer0_ms: layer0,
            other_ms: other,
        },
    ]
}

// --------------------------------------------------------------- Table 1

/// Table 1, measured: trials needed by each automation method to reach
/// within `slack`x of the best cost any method found.
pub fn table01_data_efficiency(trials: usize, slack: f64) -> Vec<(String, usize)> {
    let target = titanx();
    let w = topi::resnet18_convs()[5]; // C6
    let mut results = Vec::new();
    let mut best_overall = f64::INFINITY;
    let mut curves = Vec::new();
    for (name, kind) in [
        ("ML based cost model", TunerKind::GbtRank),
        ("Blackbox auto-tuning (GA)", TunerKind::Genetic),
        ("Blackbox auto-tuning (random)", TunerKind::Random),
        ("Predefined cost model", TunerKind::Predefined),
    ] {
        let task = topi::conv2d_task(w, DType::float32(), target.clone());
        let r = tune(&task, &quick_tune_opts(trials), kind);
        best_overall = best_overall.min(r.best_ms);
        curves.push((name.to_string(), r.best_curve));
    }
    for (name, curve) in curves {
        let need = curve
            .iter()
            .position(|&c| c <= best_overall * slack)
            .map(|p| p + 1)
            .unwrap_or(trials + 1);
        results.push((name, need));
    }
    results
}
