//! Sketch-generated schedules face the same gauntlet as the hand
//! templates: the static analysis suite must come back clean on sampled
//! configurations, and the interpreter must agree element-for-element
//! with a naive (unscheduled) lowering of the same workload.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use tvm_ir::{DType, Interp, LoweredFunc};
use tvm_sim::arm_a53;
use tvm_te::{create_schedule, lower, Tensor};
use tvm_topi::{
    conv2d, conv2d_sketch_task, dense, dense_sketch_task, Conv2dWorkload, DenseWorkload,
};
use tvm_verify::lint::lint_task;

fn small_dense() -> DenseWorkload {
    DenseWorkload {
        m: 12,
        n: 10,
        k: 14,
        dtype: DType::float32(),
    }
}

fn small_conv() -> Conv2dWorkload {
    Conv2dWorkload {
        batch: 1,
        size: 8,
        in_c: 4,
        out_c: 8,
        kernel: 3,
        stride: 1,
        pad: 1,
    }
}

/// Seeded inputs for `args` (inputs random, final output zeroed).
fn buffers(args: &[Tensor], seed: u64) -> Vec<Vec<f32>> {
    let mut rng = StdRng::seed_from_u64(seed);
    args.iter()
        .enumerate()
        .map(|(i, t)| {
            let n: i64 = t.shape().iter().product();
            if i + 1 == args.len() {
                vec![0.0; n as usize]
            } else {
                (0..n).map(|_| rng.random_range(-2.0f32..2.0)).collect()
            }
        })
        .collect()
}

fn run(f: &LoweredFunc, args: &[Tensor], seed: u64) -> Vec<f32> {
    let mut bufs = buffers(args, seed);
    Interp::new()
        .run_f32(f, &mut bufs)
        .unwrap_or_else(|e| panic!("{} must execute: {e}", f.name));
    bufs.pop().expect("output buffer")
}

/// Naive reference: lower the same workload's DAG with no schedule.
fn naive(args: &[Tensor], name: &str, seed: u64) -> Vec<f32> {
    let out = args.last().expect("output arg");
    let s = create_schedule(std::slice::from_ref(out));
    let f = lower(&s, args, name).expect("naive lowering");
    run(&f, args, seed)
}

fn check_against_oracle(task: &tvm_autotune::TuningTask, args: &[Tensor], want: &[f32], seed: u64) {
    let n = task.space.size();
    let mut checked = 0;
    for i in 0..12u64 {
        let cfg = task.space.get((i * n.max(12) / 12) % n);
        // Some sampled configs are structurally invalid (e.g. a tile the
        // validator rejects); that is normal. Every config that lowers
        // must compute exactly what the naive program computes.
        let Ok(f) = (task.builder)(&cfg) else {
            continue;
        };
        let got = run(&f, args, seed);
        assert_eq!(got.len(), want.len());
        for (j, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(
                (g - w).abs() <= 1e-3 * w.abs().max(1.0),
                "{} [{}] wrong at {j}: got {g}, want {w}",
                task.name,
                cfg.summary()
            );
        }
        checked += 1;
    }
    assert!(
        checked >= 4,
        "{}: only {checked} configs lowered",
        task.name
    );
}

#[test]
fn sketch_schedules_pass_the_static_suite() {
    let tasks = [
        dense_sketch_task(small_dense(), arm_a53()).expect("dense sketches"),
        conv2d_sketch_task(small_conv(), DType::float32(), arm_a53()).expect("conv sketches"),
    ];
    for task in &tasks {
        let results = lint_task(task, 8);
        assert!(!results.is_empty(), "{}: nothing linted", task.name);
        for r in results {
            let errors: Vec<String> = r.report.errors().map(|d| d.to_string()).collect();
            assert!(
                errors.is_empty(),
                "{} [{}] flagged:\n{}",
                r.task,
                r.config,
                errors.join("\n")
            );
            assert_eq!(
                r.report.bounds_refuted, 0,
                "{} [{}] has refuted bounds",
                r.task, r.config
            );
        }
    }
}

#[test]
fn sketch_dense_matches_the_interpreter_oracle() {
    let w = small_dense();
    let task = dense_sketch_task(w, arm_a53()).expect("sketchable");
    let (d, wt, out) = dense(&w);
    let args = [d, wt, out];
    let want = naive(&args, "dense_naive", 71);
    check_against_oracle(&task, &args, &want, 71);
}

#[test]
fn sketch_conv2d_matches_the_interpreter_oracle() {
    let w = small_conv();
    let task = conv2d_sketch_task(w, DType::float32(), arm_a53()).expect("sketchable");
    let op = conv2d(&w, DType::float32());
    let args = [op.data.clone(), op.weight.clone(), op.out.clone()];
    let want = naive(&args, "conv_naive", 72);
    check_against_oracle(&task, &args, &want, 72);
}
