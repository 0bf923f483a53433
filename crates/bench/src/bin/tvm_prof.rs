//! `tvm-prof` — the end-to-end observability tool: prints the demo CNN's
//! per-kernel report (`Module::describe`), then compiles and runs it with
//! `tvm-obs` tracing enabled, prints the span tree, and writes a Chrome
//! `trace_event` file to `results/trace.json`. What it prints is checked by
//! `tests/golden_prof.rs`, not here.

use tvm_bench::profiling::{build_demo, traced_run};
use tvm_sim::titanx;

fn main() {
    let target = titanx();
    let module = build_demo(&target);
    println!(
        "compiled demo graph: {} kernels for {}\n",
        module.kernels.len(),
        target.name()
    );
    println!("{}", module.describe());
    let (_, trace) = traced_run(&target);
    std::fs::create_dir_all("results").expect("results dir");
    std::fs::write("results/trace.json", &trace).expect("write results/trace.json");
    println!("wrote results/trace.json\n");
    println!("{}", tvm_obs::Registry::global().summary_tree());
}
