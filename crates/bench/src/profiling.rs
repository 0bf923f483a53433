//! Shared workload and helpers for the `tvm-prof` tool and its tests
//! (`tests/golden_prof.rs`): a small deterministic CNN compiled
//! end-to-end, its static per-kernel report, and one run of it with or
//! without `tvm-obs` tracing.

use std::sync::{Mutex, PoisonError};

use tvm::BuildOptions;
use tvm_graph::Graph;
use tvm_runtime::{GraphExecutor, Module, NDArray};
use tvm_sim::{estimate, Target};
use tvm_topi::Conv2dWorkload;

const SIZE: i64 = 16;
const CHANNELS: i64 = 8;

/// The profiled workload: conv → bn → relu → conv → residual add → relu.
pub fn demo_graph() -> Graph {
    let mut g = Graph::new();
    let x = g.input(&[1, 3, SIZE, SIZE], "data");
    let w1 = Conv2dWorkload {
        batch: 1,
        size: SIZE,
        in_c: 3,
        out_c: CHANNELS,
        kernel: 3,
        stride: 1,
        pad: 1,
    };
    let c1 = g.conv2d(x, w1, "c1");
    let b1 = g.batch_norm(c1, "b1");
    let r1 = g.relu(b1, "r1");
    let w2 = Conv2dWorkload {
        in_c: CHANNELS,
        ..w1
    };
    let c2 = g.conv2d(r1, w2, "c2");
    let res = g.add_op(c2, r1, "res");
    let out = g.relu(res, "out");
    g.outputs.push(out);
    g
}

/// Compiles the demo graph for `target`.
pub fn build_demo(target: &Target) -> Module {
    tvm::build(&demo_graph(), target, &BuildOptions::default()).expect("demo graph builds")
}

/// Binds the deterministic demo input and runs once; returns the flat
/// output values.
pub fn run_once(ex: &mut GraphExecutor) -> Vec<f32> {
    ex.set_input("data", NDArray::seeded(&[1, 3, SIZE, SIZE], 42))
        .expect("binds");
    ex.run().expect("runs");
    ex.get_output(0).expect("output").data.clone()
}

/// Sum of simulated cycles over a module's kernels, recomputed from the
/// lowered functions — the independent end-to-end figure the module
/// report's cycle sum must agree with.
pub fn sim_cycles(module: &Module, target: &Target) -> f64 {
    module
        .kernels
        .iter()
        .map(|k| estimate(&k.func, target).cycles)
        .sum()
}

/// Builds the demo graph and runs it once with `tvm-obs` tracing on from
/// compilation through execution; returns the outputs and the Chrome
/// `trace_event` JSON of the run. Resets the global registry; concurrent
/// callers take turns, so one's reset or switch-off never lands inside
/// another's run.
pub fn traced_run(target: &Target) -> (Vec<f32>, String) {
    static TURN: Mutex<()> = Mutex::new(());
    let _turn = TURN.lock().unwrap_or_else(PoisonError::into_inner);
    tvm_obs::Registry::global().reset();
    tvm_obs::set_enabled(true);
    let out = run_once(&mut GraphExecutor::new(build_demo(target)));
    tvm_obs::set_enabled(false);
    (out, tvm_obs::Registry::global().chrome_trace())
}
