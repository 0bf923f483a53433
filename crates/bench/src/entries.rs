//! The registry behind `figures <entry>... | all`: one entry per figure
//! and table of the paper's evaluation, plus three simulated-clock results
//! (`sketch`, `pool`, `serving`). Each entry prints its table and returns
//! the claims read off it; `PINS` lists the claims that are false today.
//! Every budget is fixed here — the one CI runs and EXPERIMENTS.md reports.

use tvm_autotune::pool::Tracker;
use tvm_autotune::{tune, tune_with, Journal, RetryPolicy, TuneOptions, TuneResult, TunerKind};
use tvm_ir::DType;
use tvm_serve::{
    generate, AdmissionConfig, BatchPolicy, BurstSpec, Model, Service, ServiceConfig, TenantConfig,
    TenantTraffic, TrafficSpec,
};
use tvm_sim::{titanx, FaultPlan, FaultRates};
use tvm_topi::{self as topi, DenseWorkload};

use crate::claims::{claim, Claim, Entry, Pin};
use crate::figures::*;
use crate::print_table;

pub const ENTRIES: &[Entry] = &[
    ("fig04", fig04),
    ("fig07", fig07),
    ("fig10", fig10),
    ("fig12", fig12),
    ("table01", table01),
    ("fig14", fig14),
    ("fig15", fig15),
    ("fig16", fig16),
    ("fig17", fig17),
    ("fig18", fig18),
    ("fig19", fig19),
    ("fig21", fig21),
    ("table02", table02),
    ("ablation", ablation),
    ("sketch", sketch),
    ("pool", pool),
    ("serving", serving),
];

/// The known deviations. A cause names the mechanism or, where nobody
/// knows yet, the ROADMAP item that owns finding it. EXPERIMENTS.md "Known
/// deviations" lists the same ids (a `claims` unit test keeps it so).
pub const PINS: &[Pin] = &[
    Pin {
        id: "table01.ml_needs_fewest_trials",
        cause: "on C6 random search reaches 1.1x-of-best in 23 trials and the GBT-guided search \
                in 38; whether the model or the searcher is at fault is ROADMAP item 2 (rank \
                accuracy and trial provenance per batch)",
    },
    Pin {
        id: "fig14.tvm_beats_best_framework",
        cause:
            "DQN ties the TensorFlow-XLA model at 1.00x (0.384 against 0.383 ms): the framework \
                runs a seed-7 search of the same templates times a library factor and TVM a \
                seed-42 search, so with the fused build costing its tuned operators the row is \
                search variance at 32 trials; ROADMAP item 1 (the group as the tuning task)",
    },
    Pin {
        id: "fig15.speedup_ge_1x",
        cause: "the cuDNN model is a 32-trial seed-7 search of the same template times 1.1 on \
                standard shapes; on C3 and C6 the seed-42 search ends more than 10% behind it, \
                search variance at this budget; ROADMAP item 3",
    },
    Pin {
        id: "fig15.depthwise_is_searched",
        cause: "D1-D9 are all exactly 1.60x: baseline and TVM search the same small depthwise \
                template to the same optimum, so the ratio is the MX-kernel factor 1.6, not a \
                search result; ROADMAP item 3 (sketch coverage for depthwise)",
    },
    Pin {
        id: "fig17.speedup_ge_1x",
        cause: "the TFLite model is a seed-7 search of the same template times 1.25; on C3 the \
                seed-42 search ends 30% behind it, search variance at 32 trials; ROADMAP item 3",
    },
    Pin {
        id: "fig17.depthwise_is_searched",
        cause: "D1-D9 sit at 1.29-1.31x, the TFLite depthwise factor 1.3: both sides search the \
                same template to (nearly) the same optimum; ROADMAP item 3",
    },
    Pin {
        id: "fig18.four_threads_beat_one",
        cause: "the multi-threaded space only adds a `par` knob on the output-channel tile and \
                a53-sim prices these bit-serial kernels as memory-bound, so no 24-trial search \
                ends on a parallel config that beats the single-threaded best; ROADMAP item 3",
    },
];

/// `(min, max)` of the values.
fn span(vals: impl Iterator<Item = f64>) -> (f64, f64) {
    vals.fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| {
        (lo.min(v), hi.max(v))
    })
}

/// A claim quantified over rows of `(label, value)`: holds when every row
/// passes `ok`. `observed` lists the rows that do not, or the range.
fn every(id: &str, unit: &str, rows: Vec<(String, f64)>, ok: impl Fn(f64) -> bool) -> Claim {
    let bad: Vec<String> = rows
        .iter()
        .filter(|(_, v)| !ok(*v))
        .map(|(n, v)| format!("{n} {v:.2}{unit}"))
        .collect();
    let (lo, hi) = span(rows.iter().map(|r| r.1));
    let observed = if bad.is_empty() {
        format!("{lo:.2}-{hi:.2}{unit} over {} rows", rows.len())
    } else {
        bad.join(", ")
    };
    claim(id, bad.is_empty() && !rows.is_empty(), observed)
}

/// `(row name, base / other)` for every row that has both systems.
fn ratios(rows: &[Row], base: &str, other: &str) -> Vec<(String, f64)> {
    rows.iter()
        .filter_map(|r| Some((r.name.clone(), r.get(base)? / r.get(other)?)))
        .collect()
}

fn opt_ms(v: Option<f64>) -> String {
    v.map_or_else(|| "-".into(), |v| format!("{v:.3}"))
}

fn fig04() -> Vec<Claim> {
    let rows = fig04_fusion(48);
    print_table(
        "Figure 4: operator fusion speedup (titanx-sim)",
        &["workload", "w/o fusion (ms)", "w/ fusion (ms)", "speedup"],
        rows.iter().map(|r| {
            vec![
                r.name.clone(),
                format!("{:.4}", r.no_fusion_ms),
                format!("{:.4}", r.fusion_ms),
                format!("{:.2}x", r.speedup()),
            ]
        }),
    );
    let speedups = rows.iter().map(|r| (r.name.clone(), r.speedup())).collect();
    vec![every("fig04.fusion_ge_1.2x", "x", speedups, |s| s >= 1.2)]
}

fn fig07() -> Vec<Claim> {
    let rows = fig07_gemm(48);
    print_table(
        "Figure 7: matmul with/without cooperative fetching (titanx-sim)",
        &["size", "cuBLAS (ms)", "TVM w/o coop (ms)", "TVM (ms)"],
        rows.iter().map(|r| {
            vec![
                r.size.to_string(),
                format!("{:.3}", r.cublas_ms),
                format!("{:.3}", r.tvm_no_coop_ms),
                format!("{:.3}", r.tvm_ms),
            ]
        }),
    );
    let per_size =
        |f: fn(&GemmRow) -> f64| rows.iter().map(|r| (r.size.to_string(), f(r))).collect();
    vec![
        every(
            "fig07.coop_ge_3x",
            "x",
            per_size(|r| r.tvm_no_coop_ms / r.tvm_ms),
            |s| s >= 3.0,
        ),
        every(
            "fig07.within_1.25x_of_cublas",
            "x",
            per_size(|r| r.tvm_ms / r.cublas_ms),
            |s| s <= 1.25,
        ),
    ]
}

fn fig10() -> Vec<Claim> {
    let rows = fig10_roofline();
    print_table(
        "Figure 10: VDLA roofline (peak 102.4 GOPS)",
        &[
            "layer",
            "ops/byte",
            "GOPS base",
            "GOPS lat-hiding",
            "util base",
            "util lat-hiding",
        ],
        rows.iter().map(|r| {
            vec![
                r.name.clone(),
                format!("{:.1}", r.intensity),
                format!("{:.1}", r.gops_base),
                format!("{:.1}", r.gops_hidden),
                format!("{:.0}%", r.util_base * 100.0),
                format!("{:.0}%", r.util_hidden * 100.0),
            ]
        }),
    );
    let avg_b: f64 = rows.iter().map(|r| r.util_base).sum::<f64>() / rows.len() as f64;
    let avg_h: f64 = rows.iter().map(|r| r.util_hidden).sum::<f64>() / rows.len() as f64;
    println!(
        "mean compute utilization: {:.0}% -> {:.0}%",
        avg_b * 100.0,
        avg_h * 100.0
    );
    let gains = rows
        .iter()
        .map(|r| (r.name.clone(), (r.util_hidden - r.util_base) * 100.0))
        .collect();
    vec![
        every("fig10.hiding_raises_every_layer", "pt", gains, |g| g > 0.0),
        claim(
            "fig10.mean_gain_ge_20pt",
            (avg_h - avg_b) * 100.0 >= 20.0,
            format!("{:.0}% -> {:.0}%", avg_b * 100.0, avg_h * 100.0),
        ),
    ]
}

fn fig12() -> Vec<Claim> {
    let trials = 128;
    let (curves, cudnn) = fig12_tuning(trials);
    println!("== Figure 12: conv2d C7 tuning on titanx-sim (cuDNN model = {cudnn:.3} ms) ==");
    println!(
        "trial\t{}",
        curves
            .iter()
            .map(|c| c.method.clone())
            .collect::<Vec<_>>()
            .join("\t")
    );
    for t in (7..trials).step_by(8) {
        let cols: Vec<String> = curves
            .iter()
            .map(|c| format!("{:.2}", cudnn / c.best_curve[t.min(c.best_curve.len() - 1)]))
            .collect();
        println!("{}\t{}", t + 1, cols.join("\t"));
    }
    println!("(values = speedup over the cuDNN model, higher is better)");
    // Curves are ML, genetic, random, in that order.
    let last: Vec<f64> = curves
        .iter()
        .map(|c| cudnn / c.best_curve.last().copied().unwrap_or(f64::INFINITY))
        .collect();
    vec![claim(
        "fig12.ml_ge_genetic_ge_random",
        last[0] >= last[1] && last[1] >= last[2],
        format!("{:.2}/{:.2}/{:.2}x", last[0], last[1], last[2]),
    )]
}

fn table01() -> Vec<Claim> {
    println!("== Table 1: comparison of automation methods ==");
    println!("method\tdata cost\tmodel bias\tneed hw info\tlearn from history\ttrials to 1.1x-of-best (measured)");
    let measured = table01_data_efficiency(96, 1.1);
    // (the Predefined row measures only model-ranked candidates: fast to
    // "converge" but capped by model bias)
    let ml = "ML based cost model";
    let need = |name: &str| measured.iter().find(|(n, _)| n == name).map(|(_, t)| *t);
    for (name, cost, bias, hw, hist) in [
        ("Blackbox auto-tuning (random)", "high", "none", "no", "no"),
        ("Blackbox auto-tuning (GA)", "high", "none", "no", "no"),
        ("Predefined cost model", "none", "high", "yes", "no"),
        (ml, "low", "low", "no", "yes"),
    ] {
        let m = need(name).map_or_else(|| "-".into(), |t| t.to_string());
        println!("{name}\t{cost}\t{bias}\t{hw}\t{hist}\t{m}");
    }
    let ml_trials = need(ml).unwrap_or(usize::MAX);
    let others = measured.iter().filter(|(n, _)| n != ml).map(|(_, t)| *t);
    let fewest_other = others.min().unwrap_or(0);
    vec![claim(
        "table01.ml_needs_fewest_trials",
        ml_trials <= fewest_other,
        format!("ML {ml_trials} trials vs fewest other {fewest_other}"),
    )]
}

/// Prints an end-to-end table (one column per system) with `prec` digits.
fn print_e2e(title: &str, rows: &[Row], prec: usize) {
    let mut header = vec!["model"];
    header.extend(rows[0].systems.iter().map(|(l, _)| l.as_str()));
    print_table(
        title,
        &header,
        rows.iter().map(|r| {
            let mut v = vec![r.name.clone()];
            v.extend(r.systems.iter().map(|(_, t)| format!("{t:.prec$}")));
            v
        }),
    );
}

/// `(model, best framework / TVM)`: the systems before "TVM w/o graph
/// opt" are the frameworks.
fn vs_best_framework(rows: &[Row]) -> Vec<(String, f64)> {
    rows.iter()
        .map(|r| {
            let best = r
                .systems
                .iter()
                .take_while(|(l, _)| !l.starts_with("TVM"))
                .map(|(_, v)| *v)
                .fold(f64::INFINITY, f64::min);
            (r.name.clone(), best / r.get("TVM").unwrap_or(f64::NAN))
        })
        .collect()
}

fn fig14() -> Vec<Claim> {
    let rows = fig14_gpu_e2e(224, 32);
    print_e2e("Figure 14: GPU end-to-end (ms, titanx-sim)", &rows, 3);
    vec![
        every(
            "fig14.tvm_beats_best_framework",
            "x",
            vs_best_framework(&rows),
            |s| s >= 1.0,
        ),
        every(
            "fig14.graph_opt_never_slows",
            "x",
            ratios(&rows, "TVM w/o graph opt", "TVM"),
            |s| s >= 1.0,
        ),
    ]
}

fn fig16() -> Vec<Claim> {
    let rows = fig16_arm_e2e(224, 32);
    print_e2e("Figure 16: ARM A53 end-to-end (ms, a53-sim)", &rows, 2);
    vec![
        every(
            "fig16.tvm_beats_tflite",
            "x",
            vs_best_framework(&rows),
            |s| s > 1.0,
        ),
        every(
            "fig16.graph_opt_never_slows",
            "x",
            ratios(&rows, "TVM w/o graph opt", "TVM"),
            |s| s >= 1.0,
        ),
    ]
}

/// The two claims Figs. 15 and 17 share: TVM at least matches the baseline
/// on every row, and the depthwise rows are a search result rather than
/// one constant factor (their speedups spread by more than 5%).
fn per_op_claims(fig: &str, rows: &[Row]) -> Vec<Claim> {
    let base = rows.iter().map(|r| {
        (
            r.name.clone(),
            r.systems[0].1 / r.get("TVM").unwrap_or(f64::NAN),
        )
    });
    let depthwise = base.clone().filter(|(n, _)| n.starts_with('D'));
    let (lo, hi) = span(depthwise.map(|(_, s)| s));
    vec![
        every(&format!("{fig}.speedup_ge_1x"), "x", base.collect(), |s| {
            s >= 1.0
        }),
        claim(
            &format!("{fig}.depthwise_is_searched"),
            hi / lo > 1.05,
            format!("D1-D9 at {lo:.2}-{hi:.2}x"),
        ),
    ]
}

fn fig15() -> Vec<Claim> {
    let rows = per_op_rows(true, 32);
    print_table(
        "Figure 15: per-operator speedup on titanx-sim (baseline = cuDNN for C*, MX kernel for D*)",
        &["op", "baseline(ms)", "TC(ms)", "TVM(ms)", "TVM speedup"],
        rows.iter().map(|r| {
            let base = r.systems[0].1;
            let tvm = r.get("TVM").unwrap_or(f64::NAN);
            vec![
                r.name.clone(),
                format!("{base:.3}"),
                opt_ms(r.get("TC")),
                format!("{tvm:.3}"),
                format!("{:.2}x", base / tvm),
            ]
        }),
    );
    per_op_claims("fig15", &rows)
}

fn fig17() -> Vec<Claim> {
    let rows = per_op_rows(false, 32);
    print_table(
        "Figure 17: per-operator speedup on a53-sim (baseline = TFLite; PT = winograd pre-transformed)",
        &["op", "TFLite(ms)", "TVM(ms)", "TVM PT(ms)", "speedup", "PT speedup"],
        rows.iter()
            .map(|r| {
                let base = r.systems[0].1;
                let tvm = r.get("TVM").unwrap_or(f64::NAN);
                let pt = r.get("TVM PT");
                vec![
                    r.name.clone(),
                    format!("{base:.3}"),
                    format!("{tvm:.3}"),
                    opt_ms(pt),
                    format!("{:.2}x", base / tvm),
                    pt.map_or_else(|| "-".into(), |v| format!("{:.2}x", base / v)),
                ]
            })
    );
    let mut claims = per_op_claims("fig17", &rows);
    let deep = ratios(&rows, "TVM", "TVM PT")
        .into_iter()
        .filter(|(n, _)| n == "C6" || n == "C9")
        .collect();
    claims.push(every(
        "fig17.winograd_beats_direct_on_c6_c9",
        "x",
        deep,
        |s| s > 1.0,
    ));
    claims
}

fn fig18() -> Vec<Claim> {
    let rows = fig18_lowprec(24);
    let (hand, one, four) = (
        "Hand optimized",
        "TVM single-threaded",
        "TVM multi-threaded",
    );
    print_table(
        "Figure 18: 2-bit/1-bit conv on a53-sim (baseline = Caffe2-style hand-optimized, single-threaded)",
        &["op", "hand-opt(ms)", "TVM 1T(ms)", "TVM 4T(ms)", "1T speedup", "4T speedup"],
        rows.iter()
            .map(|r| {
                let (base, st, mt) = (r.systems[0].1, r.systems[1].1, r.systems[2].1);
                vec![
                    r.name.clone(),
                    format!("{base:.3}"),
                    format!("{st:.3}"),
                    format!("{mt:.3}"),
                    format!("{:.2}x", base / st),
                    format!("{:.2}x", base / mt),
                ]
            })
    );
    vec![
        every(
            "fig18.single_thread_ge_1x",
            "x",
            ratios(&rows, hand, one),
            |s| s >= 1.0,
        ),
        every(
            "fig18.four_threads_beat_one",
            "x",
            ratios(&rows, one, four),
            |s| s > 1.0,
        ),
    ]
}

fn fig19() -> Vec<Claim> {
    let rows = fig19_mali(32);
    print_table(
        "Figure 19: Mali-T860 conv portions (ms, mali-sim)",
        &["model+dtype", "ARMComputeLib", "TVM", "speedup"],
        rows.iter().map(|r| {
            let (acl, tvm) = (r.systems[0].1, r.systems[1].1);
            vec![
                r.name.clone(),
                format!("{acl:.2}"),
                format!("{tvm:.2}"),
                format!("{:.2}x", acl / tvm),
            ]
        }),
    );
    // Rows come in (float32, float16) pairs per model.
    let fp16_gain = rows
        .chunks(2)
        .map(|p| (p[1].name.clone(), p[0].systems[1].1 / p[1].systems[1].1))
        .collect();
    vec![
        every(
            "fig19.tvm_beats_acl",
            "x",
            ratios(&rows, "ARMComputeLib", "TVM"),
            |s| s > 1.0,
        ),
        every("fig19.fp16_beats_fp32", "x", fp16_gain, |s| s > 1.0),
    ]
}

fn fig21() -> Vec<Claim> {
    let rows = fig21_offload(224, 24);
    print_table(
        "Figure 21: ResNet-18 inference time breakdown (ms)",
        &["mode", "conv", "layer_0", "other", "total"],
        rows.iter().map(|r| {
            vec![
                r.mode.clone(),
                format!("{:.2}", r.conv_ms),
                format!("{:.2}", r.layer0_ms),
                format!("{:.2}", r.other_ms),
                format!("{:.2}", r.total_ms()),
            ]
        }),
    );
    let (cpu, fpga) = (&rows[0], &rows[1]);
    let speedup = cpu.conv_ms / fpga.conv_ms;
    println!("offloaded conv speedup: {speedup:.1}x");
    let share = fpga.layer0_ms / fpga.total_ms();
    vec![
        claim(
            "fig21.offloaded_conv_ge_40x",
            speedup >= 40.0,
            format!("{speedup:.1}x"),
        ),
        claim(
            "fig21.accelerated_total_bounded_by_layer_0",
            share > 0.5,
            format!("layer_0 is {:.0}% of the ARM+FPGA total", share * 100.0),
        ),
    ]
}

fn table02() -> Vec<Claim> {
    let (convs, dws) = (topi::resnet18_convs(), topi::mobilenet_dwconvs());
    println!("== Table 2 (top): ResNet-18 conv2d operators ==");
    println!("name\tH,W\tIC,OC\tK,S");
    for (i, w) in convs.iter().enumerate() {
        println!(
            "C{}\t{},{}\t{},{}\t{},{}",
            i + 1,
            w.size,
            w.size,
            w.in_c,
            w.out_c,
            w.kernel,
            w.stride
        );
    }
    println!("\n== Table 2 (bottom): MobileNet depthwise conv2d operators ==");
    println!("name\tH,W\tIC\tK,S");
    for (i, w) in dws.iter().enumerate() {
        println!(
            "D{}\t{},{}\t{}\t{},{}",
            i + 1,
            w.size,
            w.size,
            w.channels,
            w.kernel,
            w.stride
        );
    }
    vec![claim(
        "table02.c1_c12_and_d1_d9",
        convs.len() == 12 && dws.len() == 9,
        format!("{} conv2d and {} depthwise rows", convs.len(), dws.len()),
    )]
}

/// Ablations over the design choices DESIGN.md calls out, on conv2d C7:
/// the cost-model objective (rank vs regression vs predefined heuristic vs
/// none) and the explorer's annealing depth under the rank model.
fn ablation() -> Vec<Claim> {
    let trials = 64;
    let task = topi::conv2d_task(topi::resnet18_convs()[6], DType::float32(), titanx());
    println!("== Ablation: automated optimizer design choices (conv2d C7, titanx-sim) ==");

    println!("\n-- cost-model objective (best ms after {trials} trials) --");
    let mut by_objective = Vec::new();
    for (name, kind) in [
        ("GBT + rank objective (paper default)", TunerKind::GbtRank),
        ("GBT + regression objective", TunerKind::GbtReg),
        ("predefined heuristic model", TunerKind::Predefined),
        ("no model (random)", TunerKind::Random),
    ] {
        let r = tune(&task, &quick_tune_opts(trials), kind);
        println!(
            "{name:<42} {:.4} ms (after 16: {:.4})",
            r.best_ms,
            r.best_after(16)
        );
        by_objective.push(r.best_ms);
    }

    println!("\n-- simulated-annealing depth (GBT rank) --");
    let mut by_depth = Vec::new();
    for sa_steps in [0usize, 4, 16] {
        let opts = TuneOptions {
            sa_steps,
            ..quick_tune_opts(trials)
        };
        let r = tune(&task, &opts, TunerKind::GbtRank);
        println!("sa_steps = {sa_steps:<3} best {:.4} ms", r.best_ms);
        by_depth.push(r.best_ms);
    }
    let random = by_objective[3];
    vec![
        claim(
            "ablation.model_guided_beats_random",
            by_objective[..3].iter().all(|&ms| ms < random),
            format!("{by_objective:.4?} ms (last = random)"),
        ),
        claim(
            "ablation.deeper_sa_never_worse",
            by_depth.windows(2).all(|w| w[1] <= w[0]),
            format!("{by_depth:.4?} ms at sa_steps 0/4/16"),
        ),
    ]
}

/// The dense workload `sketch` and `pool` share with the ledger's
/// `tune_ops`.
fn bench_dense() -> DenseWorkload {
    DenseWorkload {
        m: 64,
        n: 512,
        k: 512,
        dtype: DType::float32(),
    }
}

/// Trials a run needs to match `target_ms` (1-based), per its best-curve.
fn trials_to_reach(r: &TuneResult, target_ms: f64) -> Option<usize> {
    r.best_curve
        .iter()
        .position(|&c| c <= target_ms)
        .map(|i| i + 1)
}

/// Sketch vs template at an equal 32-trial budget: the generated sketch
/// space searched by the evolutionary tuner must match or beat the hand
/// template searched by SA + GBT, and a transfer-warmed run (seeded from a
/// smaller donor workload's journal) must reach the cold run's best in no
/// more trials.
fn sketch() -> Vec<Claim> {
    let opts = quick_tune_opts(32);
    let target = titanx();
    let f32 = DType::float32();
    let conv_w = topi::resnet18_convs()[6];
    let dense_donor = DenseWorkload {
        m: 32,
        n: 256,
        k: 256,
        dtype: f32,
    };
    let conv_donor = topi::Conv2dWorkload {
        batch: 1,
        size: 14,
        in_c: 128,
        out_c: 128,
        kernel: 3,
        stride: 1,
        pad: 1,
    };
    let cases = [
        (
            "dense_64x512x512",
            topi::dense_task(bench_dense(), target.clone()),
            topi::dense_sketch_task(bench_dense(), target.clone()),
            topi::dense_sketch_task(dense_donor, target.clone()),
        ),
        (
            "resnet18_C7_conv2d",
            topi::conv2d_task(conv_w, f32, target.clone()),
            topi::conv2d_sketch_task(conv_w, f32, target.clone()),
            topi::conv2d_sketch_task(conv_donor, f32, target.clone()),
        ),
    ];
    let (mut parity, mut transfer) = (Vec::new(), Vec::new());
    for (name, template, sketch, donor) in cases {
        let sketch = sketch.expect("sketch space generates");
        let donor = donor.expect("donor sketch space generates");
        println!(
            "== sketch {name}: {} trials, template space {} vs sketch space {} ==",
            opts.n_trials,
            template.space.size(),
            sketch.space.size()
        );
        let template = tune(&template, &opts, TunerKind::GbtRank);
        let cold = tune(&sketch, &opts, TunerKind::Evolutionary);
        // Warm run: the donor's journal (trials + signature) seeds the
        // target's initial population.
        let path = std::env::temp_dir().join(format!("tvm_rs_figures_sketch_{name}.jsonl"));
        let _ = std::fs::remove_file(&path);
        let mut j = Journal::create(&path).expect("journal");
        tune_with(&donor, &opts, TunerKind::Evolutionary, None, Some(&mut j)).expect("donor tunes");
        let warm = tune_with(&sketch, &opts, TunerKind::Evolutionary, None, Some(&mut j))
            .expect("warmed tunes");
        drop(j);
        let _ = std::fs::remove_file(&path);
        let cold_reach = trials_to_reach(&cold, cold.best_ms).unwrap_or(opts.n_trials);
        let warm_reach = trials_to_reach(&warm, cold.best_ms);
        println!(
            "  template best {:.4} ms | sketch best {:.4} ms (warm {:.4} ms); \
             cold reached its best at trial {cold_reach}, warm matched it at {}",
            template.best_ms,
            cold.best_ms,
            warm.best_ms,
            warm_reach.map_or("never".into(), |t| t.to_string()),
        );
        parity.push((name.to_string(), template.best_ms / cold.best_ms));
        // "Never" counts as one trial past the budget.
        let warm_reach = warm_reach.unwrap_or(opts.n_trials + 1);
        transfer.push((name.to_string(), cold_reach as f64 / warm_reach as f64));
    }
    vec![
        every("sketch.sketch_matches_template", "x", parity, |s| s >= 1.0),
        every("sketch.transfer_is_no_slower", "x", transfer, |s| s >= 1.0),
    ]
}

/// §5.4 device pool on the simulated fleet clock: the configs a 32-trial
/// run measured, replayed on 1/2/4 devices, and the same run repeated on a
/// 4-device pool under two fault plans.
fn pool() -> Vec<Claim> {
    let opts = quick_tune_opts(32);
    let target = titanx();
    let dense = topi::dense_task(bench_dense(), target.clone());
    let conv = topi::conv2d_task(topi::resnet18_convs()[6], DType::float32(), target);
    let mut scaling = Vec::new();
    for (name, task) in [("dense_64x512x512", &dense), ("resnet18_C7_conv2d", &conv)] {
        let r = tune(task, &opts, TunerKind::GbtRank);
        // The run already costed every config it measured, with the task's
        // own simulator options.
        let mut seen = std::collections::HashSet::new();
        let costs_ms: Vec<f64> = r
            .history
            .iter()
            .filter(|h| h.cost_ms.is_finite() && seen.insert(h.config_index))
            .map(|h| h.cost_ms)
            .collect();
        let makespans: Vec<f64> = [1usize, 2, 4]
            .iter()
            .map(|&n| {
                let mut tracker = Tracker::new(vec![task.target.clone(); n]);
                tracker.run_costs(task.target.name(), &costs_ms, &[]);
                tracker.makespan_ms()
            })
            .collect();
        println!(
            "== pool {name}: makespan {:.3}/{:.3}/{:.3} ms on 1/2/4 devices ({:.2}x at 4) ==",
            makespans[0],
            makespans[1],
            makespans[2],
            makespans[0] / makespans[2]
        );
        scaling.push((name.to_string(), makespans[0] / makespans[2]));
    }

    println!(
        "== pool under faults: dense_64x512x512, {} trials, 4 devices ==",
        opts.n_trials
    );
    let mut three_dead = FaultPlan::none();
    three_dead.kill_from(1, 0).kill_from(2, 0).kill_from(3, 0);
    let flaky = FaultPlan::seeded(
        1234,
        FaultRates {
            crash: 0.0,
            hang: 0.05,
            transient: 0.10,
            noise: 0.05,
            noise_factor: 8.0,
        },
    );
    let mut overheads = Vec::new();
    let mut fault_free_ms = None;
    for (name, plan) in [
        ("fault_free", FaultPlan::none()),
        ("flaky_fleet", flaky),
        ("three_devices_dead", three_dead),
    ] {
        let mut tracker = Tracker::new(vec![dense.target.clone(); 4]);
        tracker.set_fault_plan(plan);
        // Timeout budget sized to the workload (sub-ms kernels): hangs
        // charge ~50ms of device time instead of the 10s default, so the
        // overhead reflects scheduling cost rather than one enormous
        // timeout constant.
        tracker.set_retry_policy(RetryPolicy {
            timeout_ms: 50.0,
            ..RetryPolicy::fault_tolerant()
        });
        let r =
            tune_with(&dense, &opts, TunerKind::GbtRank, Some(&mut tracker), None).expect("tunes");
        let makespan = tracker.makespan_ms();
        // The first scenario is the reference.
        let overhead = makespan / *fault_free_ms.get_or_insert(makespan);
        let p = &r.stats.pool;
        let dead = r.stats.device_health.iter().filter(|h| h.dead).count();
        println!(
            "  {name:<20} best {:.4} ms, makespan {makespan:.1} ms ({overhead:.2}x), \
             {} retries / {} timeouts / {} quarantines, {dead} dead",
            r.best_ms, p.retries, p.timeouts, p.quarantines
        );
        overheads.push(overhead);
    }
    let (flaky_x, dead_x) = (overheads[1], overheads[2]);
    vec![
        every("pool.fleet_of_4_ge_2x", "x", scaling, |s| s >= 2.0),
        // One surviving device does the fleet's work: at most 4x, and a
        // flaky fleet that keeps all four must cost less than that.
        claim(
            "pool.fault_overhead_bounded_by_lost_devices",
            1.0 <= flaky_x && flaky_x < dead_x && dead_x <= 4.0,
            format!("flaky {flaky_x:.2}x < three dead {dead_x:.2}x <= 4x"),
        ),
    ]
}

const SERVING_SEED: u64 = 20240808;
/// Requests per load level.
const SERVING_BUDGET: f64 = 800.0;

fn serving_config(faults: FaultPlan) -> ServiceConfig {
    ServiceConfig {
        tenants: vec![
            TenantConfig::new("mobile").weight(2).queue_cap(128),
            TenantConfig::new("batchjob").weight(1).queue_cap(128),
        ],
        admission: AdmissionConfig {
            max_outstanding: 384,
            ..AdmissionConfig::default()
        },
        batch: BatchPolicy {
            max_batch: 8,
            max_delay_ms: 2.0,
            ..BatchPolicy::default()
        },
        devices: 3,
        faults,
        ..ServiceConfig::default()
    }
}

/// Offered traffic at `rps` total, split across both tenants and models,
/// with a mid-trace burst on the mobile tenant.
fn serving_traffic(seed: u64, rps: f64, horizon_ms: f64) -> TrafficSpec {
    TrafficSpec {
        seed,
        horizon_ms,
        tenants: vec![
            TenantTraffic {
                tenant: "mobile".into(),
                rate_rps: rps * 0.6,
                models: vec![Model::Mlp, Model::TinyCnn],
                bursts: vec![BurstSpec {
                    start_ms: horizon_ms * 0.4,
                    end_ms: horizon_ms * 0.5,
                    factor: 3.0,
                }],
                deadline_budget_ms: None,
            },
            TenantTraffic {
                tenant: "batchjob".into(),
                rate_rps: rps * 0.4,
                models: vec![Model::Mlp],
                bursts: vec![],
                deadline_budget_ms: None,
            },
        ],
    }
}

/// Serving on the virtual clock: calibrate capacity fault-free (raise the
/// offered rate geometrically until admission sheds), then offer 0.5x /
/// 1x / 2x of it with chaos faults enabled.
fn serving() -> Vec<Claim> {
    println!("measuring serving capacity (seed {SERVING_SEED})...");
    let mut rate = 2000.0f64;
    let capacity = loop {
        let horizon = (SERVING_BUDGET / rate * 1000.0).clamp(5.0, 500.0);
        let mut svc = Service::new(serving_config(FaultPlan::none())).expect("service");
        let (_, stats) = svc.run(generate(&serving_traffic(SERVING_SEED, rate, horizon)));
        if stats.shed > 0 && stats.completed > 0 {
            break stats.completed as f64 * 1000.0 / stats.horizon_ms.max(1e-9);
        }
        rate *= 4.0;
        assert!(rate < 1e12, "serving capacity search never saturated");
    };
    println!("  capacity ≈ {capacity:.0} req/s (virtual)");

    let chaos = FaultRates {
        crash: 0.001,
        hang: 0.04,
        transient: 0.06,
        noise: 0.10,
        noise_factor: 2.5,
    };
    // Per level: [goodput rps, shed share, p50 ms, p99 ms].
    let mut levels: Vec<[f64; 4]> = Vec::new();
    for (label, factor) in [
        ("underload", 0.5f64),
        ("saturation", 1.0),
        ("overload", 2.0),
    ] {
        let offered = capacity * factor;
        let horizon = (SERVING_BUDGET / offered * 1000.0).clamp(5.0, 2000.0);
        let trace = generate(&serving_traffic(SERVING_SEED + 1, offered, horizon));
        let total = trace.len();
        let faults = FaultPlan::seeded(SERVING_SEED ^ 0xC4A0, chaos);
        let mut svc = Service::new(serving_config(faults)).expect("service");
        let (responses, stats) = svc.run(trace);
        let mut lat: Vec<f64> = responses
            .iter()
            .filter(|r| r.outcome.is_ok())
            .map(|r| r.latency_ms())
            .collect();
        lat.sort_by(f64::total_cmp);
        let pct = |p: f64| match lat.len() {
            0 => f64::NAN,
            n => lat[((n - 1) as f64 * p).round() as usize],
        };
        let level = [
            stats.completed as f64 * 1000.0 / stats.horizon_ms.max(1e-9),
            stats.shed as f64 / (total as f64).max(1.0),
            pct(0.50),
            pct(0.99),
        ];
        println!(
            "  {label:<10} offered {offered:>9.0} rps | goodput {:>9.0} rps | shed {:>5.1}% | p50 {:.3} ms | p99 {:.3} ms",
            level[0],
            100.0 * level[1],
            level[2],
            level[3],
        );
        levels.push(level);
    }
    let [under_goodput, under_shed, ..] = levels[0];
    let [sat_goodput, ..] = levels[1];
    let [_, over_shed, ..] = levels[2];
    vec![
        claim(
            "serving.finite_at_every_level",
            capacity.is_finite() && levels.iter().flatten().all(|v| v.is_finite()),
            format!("capacity {capacity:.0} rps, 3 levels x goodput/shed/p50/p99"),
        ),
        claim(
            "serving.shed_grows_with_load",
            over_shed > under_shed,
            format!(
                "shed {:.1}% at 0.5x, {:.1}% at 2x",
                100.0 * under_shed,
                100.0 * over_shed
            ),
        ),
        claim(
            "serving.goodput_holds_at_saturation",
            sat_goodput >= under_goodput,
            format!("goodput {under_goodput:.0} rps at 0.5x, {sat_goodput:.0} at 1.0x"),
        ),
    ]
}
