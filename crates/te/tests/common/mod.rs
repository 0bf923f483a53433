//! Shared by the lowering suites: `lower`, with the verdict the static
//! verifier gives on what comes out.

use tvm_analysis::{analyze_func_with, AnalysisOptions};
use tvm_ir::LoweredFunc;
use tvm_te::{lower, Schedule, Tensor};

/// Lowers `s` and asserts the `ssa`, `bounds` and `sync` passes are clean.
pub fn lower_verified(s: &Schedule, args: &[Tensor], name: &str) -> LoweredFunc {
    let f = lower(s, args, name).expect("lowers");
    let report = analyze_func_with(&f, &AnalysisOptions::lowering_hook());
    assert!(
        !report.has_errors(),
        "{name}:\n{}{}",
        report.render(),
        f.body
    );
    f
}
