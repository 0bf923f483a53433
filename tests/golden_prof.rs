//! Tests of what `tvm-prof` prints and writes. The demo CNN's module
//! report (`Module::describe`) must be exactly the checked-in per-kernel
//! table: every column is deterministic — kernel names from fusion, costs
//! from the simulator, sizes and slots from the memory plan — so any drift
//! is a real change to fusion, costing, or planning. Three more contracts
//! ride along: tracing has no observer effect, the report's accounting
//! closes, and the trace it exports is well-formed.
//!
//! Regenerate intentionally with
//!
//! ```text
//! TVM_REGEN_GOLDEN=1 cargo test --test golden_prof
//! ```

use std::path::Path;

use tvm_bench::profiling::{build_demo, run_once, sim_cycles, traced_run};
use tvm_runtime::GraphExecutor;
use tvm_sim::titanx;

#[test]
fn per_op_breakdown_is_stable() {
    let actual = build_demo(&titanx()).describe();
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/prof_table.expected");
    if std::env::var_os("TVM_REGEN_GOLDEN").is_some() {
        std::fs::write(&path, &actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {}: {e}\nrun with TVM_REGEN_GOLDEN=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        actual.trim_end(),
        expected.trim_end(),
        "\nper-kernel report for the demo graph changed; if intentional, \
         regenerate with TVM_REGEN_GOLDEN=1 and review the diff"
    );
}

#[test]
fn traced_outputs_are_bit_identical_to_untraced() {
    let (traced, _) = traced_run(&titanx());
    let plain = run_once(&mut GraphExecutor::new(build_demo(&titanx())));
    assert_eq!(traced, plain);
}

#[test]
fn per_op_cycles_sum_to_the_end_to_end_figure() {
    let target = titanx();
    let module = build_demo(&target);
    let per_op = module.total_cycles();
    let e2e = sim_cycles(&module, &target);
    assert!(
        (per_op - e2e).abs() <= 0.01 * e2e,
        "per-op cycle sum {per_op:.0} drifts more than 1% from end-to-end {e2e:.0}"
    );
}

#[test]
fn chrome_trace_parses_and_spans_compile_and_execute() {
    use tvm_json::Value;
    let (_, trace) = traced_run(&titanx());
    let root = tvm_json::from_str(&trace).expect("trace is JSON");
    let events = root
        .get("traceEvents")
        .and_then(Value::as_array)
        .expect("traceEvents array");
    let complete = |name: &str| {
        events.iter().any(|e| {
            e.get("ph").and_then(Value::as_str) == Some("X")
                && e.get("name").and_then(Value::as_str) == Some(name)
        })
    };
    assert!(complete("lower"), "no compile-side `lower` span");
    assert!(complete("run_op"), "no execute-side `run_op` span");
}
