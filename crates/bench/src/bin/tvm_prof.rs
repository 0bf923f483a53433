//! `tvm-prof` — the end-to-end observability tool: compiles a small CNN
//! with compile-pass tracing enabled, runs it under the graph executor's
//! per-op profiler, prints the per-op breakdown and the span tree, and
//! writes a Chrome `trace_event` file to `results/trace.json`. What it
//! prints is checked by `tests/golden_prof.rs`, not here.

use tvm_bench::profiling::traced_run;
use tvm_sim::titanx;

fn main() {
    let target = titanx();
    let (ex, trace) = traced_run(&target);
    println!(
        "compiled demo graph: {} kernels for {}\n",
        ex.module().kernels.len(),
        target.name()
    );
    println!("{}", ex.profiler().expect("profiling enabled").table());
    std::fs::create_dir_all("results").expect("results dir");
    std::fs::write("results/trace.json", &trace).expect("write results/trace.json");
    println!("wrote results/trace.json\n");
    println!("{}", tvm_obs::Registry::global().summary_tree());
}
