//! `tvm-verify` — differential schedule fuzzing against the interpreter
//! oracle.
//!
//! The compiler's core soundness claim is that schedule primitives are
//! semantics-preserving: any (valid) composition of `split` / `reorder` /
//! `vectorize` / `unroll` / `parallel` / `bind` / `compute_at` /
//! `compute_inline` / `cache_read` / `cache_write` lowers to a program
//! that computes exactly what the naive schedule computes. This crate
//! tests that claim mechanically:
//!
//! 1. [`generate`] draws a random-but-valid primitive trace over a small
//!    workload ([`WorkloadKind`]: matmul, conv2d, injective chain);
//! 2. [`run_case`] lowers both the scheduled and the naive program through
//!    `tvm_te::lower` and executes them in the `tvm_ir` interpreter on
//!    seeded inputs, comparing outputs element-wise;
//! 3. on a failure, [`shrink`] minimizes the trace and a [`Repro`] file
//!    (seed + primitive trace) is written to `results/repro/` for
//!    deterministic replay via `verify-fuzz --replay`.
//!
//! Everything is seeded: the same `(seed, budget, workloads)` triple
//! explores the same schedules on every machine, which is what makes the
//! `cargo test` fuzz tier and the CI smoke run reproducible.
//!
//! ```
//! use tvm_verify::{fuzz, FuzzOptions};
//!
//! let report = fuzz(&FuzzOptions { seed: 7, budget: 3, ..Default::default() });
//! assert_eq!(report.cases, 3);
//! assert!(report.failures.is_empty());
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod apply;
pub mod diff;
pub mod generate;
pub mod graph_lint;
pub mod graph_oracle;
pub mod lint;
pub mod props;
pub mod reference;
pub mod repro;
pub mod shrink;
pub mod static_oracle;
pub mod trace;
pub mod workload;

use std::collections::HashSet;
use std::path::{Path, PathBuf};

pub use apply::{apply_one, apply_trace};
pub use diff::{f32_buffers, run_both, run_case, run_naive, Agreed, Outcome, TOLERANCE};
pub use generate::generate;
pub use graph_lint::{graph_lint, graph_lint_filtered, GraphLintResult};
pub use graph_oracle::{check_graph_static, GraphOracleStats};
pub use lint::{lint_topi, LintResult};
pub use props::check_simplify;
pub use repro::Repro;
pub use shrink::shrink;
pub use static_oracle::check_static;
pub use trace::Primitive;
pub use workload::{build, input_buffers, WorkloadKind, ALL_WORKLOADS};

/// Fuzzing-run parameters.
#[derive(Clone, Debug)]
pub struct FuzzOptions {
    /// Base seed; case `i` derives its own seed from it.
    pub seed: u64,
    /// Number of random schedules to draw and check.
    pub budget: usize,
    /// Workload classes to rotate through.
    pub workloads: Vec<WorkloadKind>,
    /// Where to write reproducer files for failures (`None` disables).
    pub repro_dir: Option<PathBuf>,
    /// Also run the static analyzer on every interpreter-passing case and
    /// report analyzer/interpreter disagreements as failures.
    pub static_oracle: bool,
}

impl Default for FuzzOptions {
    fn default() -> Self {
        FuzzOptions {
            seed: 0,
            budget: 64,
            workloads: ALL_WORKLOADS.to_vec(),
            repro_dir: None,
            static_oracle: false,
        }
    }
}

/// One failing case, with its minimized trace.
#[derive(Clone, Debug)]
pub struct CaseFailure {
    /// Workload class.
    pub workload: WorkloadKind,
    /// Derived case seed (inputs + generation).
    pub seed: u64,
    /// Failure description from the oracle.
    pub failure: String,
    /// The generated trace.
    pub trace: Vec<Primitive>,
    /// Minimal failing subsequence.
    pub shrunk: Vec<Primitive>,
    /// Reproducer file, when a `repro_dir` was configured.
    pub repro_path: Option<PathBuf>,
}

impl CaseFailure {
    /// The failure `repro` describes, its reproducer saved under `dir`
    /// when one is given.
    fn recorded(repro: Repro, dir: Option<&Path>) -> CaseFailure {
        let repro_path = dir.and_then(|dir| repro.save(dir).ok());
        CaseFailure {
            workload: repro.workload,
            seed: repro.seed,
            failure: repro.failure,
            trace: repro.primitives,
            shrunk: repro.shrunk,
            repro_path,
        }
    }
}

/// Aggregate result of a fuzzing run.
#[derive(Clone, Debug, Default)]
pub struct FuzzReport {
    /// Cases executed.
    pub cases: usize,
    /// Cases where scheduled == naive.
    pub passed: usize,
    /// Cases whose generated trace failed to apply or lower (generator
    /// bug if ever non-zero).
    pub invalid: usize,
    /// Number of distinct primitive traces drawn.
    pub distinct_traces: usize,
    /// Interpreter-passing cases also checked by the static oracle.
    pub static_checked: usize,
    /// All failures, shrunk and (optionally) persisted.
    pub failures: Vec<CaseFailure>,
}

/// Derives the per-case seed from the base seed (SplitMix64 increment).
pub fn case_seed(base: u64, case: usize) -> u64 {
    base.wrapping_add((case as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Runs the differential fuzzer.
pub fn fuzz(opts: &FuzzOptions) -> FuzzReport {
    assert!(!opts.workloads.is_empty(), "need at least one workload");
    let mut report = FuzzReport::default();
    let mut seen = HashSet::new();
    for case in 0..opts.budget {
        let kind = opts.workloads[case % opts.workloads.len()];
        let seed = case_seed(opts.seed, case);
        let trace = generate(kind, &build(kind), seed);
        seen.insert(format!("{kind}:{trace:?}"));
        report.cases += 1;
        let outcome = run_case(kind, seed, &trace);
        match outcome {
            Outcome::Pass => {
                report.passed += 1;
                if opts.static_oracle {
                    report.static_checked += 1;
                    if let Some(findings) = check_static(kind, &trace) {
                        // The interpreter says the program is correct but
                        // the analyzer flags it: shrink the disagreement.
                        let shrunk = shrink(&trace, |cand| {
                            run_case(kind, seed, cand) == Outcome::Pass
                                && check_static(kind, cand).is_some()
                        });
                        report.failures.push(CaseFailure::recorded(
                            Repro {
                                workload: kind,
                                seed,
                                failure: format!("static/interpreter disagreement: {findings}"),
                                primitives: trace,
                                shrunk,
                            },
                            opts.repro_dir.as_deref(),
                        ));
                    }
                }
            }
            Outcome::Invalid(_) => report.invalid += 1,
            ref failing => {
                let class = failing.failure_kind();
                // Minimize: a candidate must fail with the same class.
                let shrunk = shrink(&trace, |cand| {
                    run_case(kind, seed, cand).failure_kind() == class
                });
                report.failures.push(CaseFailure::recorded(
                    Repro {
                        workload: kind,
                        seed,
                        failure: failing.to_string(),
                        primitives: trace,
                        shrunk,
                    },
                    opts.repro_dir.as_deref(),
                ));
            }
        }
    }
    report.distinct_traces = seen.len();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_seeds_are_distinct() {
        let seeds: HashSet<u64> = (0..100).map(|i| case_seed(42, i)).collect();
        assert_eq!(seeds.len(), 100);
    }

    #[test]
    fn small_fuzz_run_is_clean_and_deterministic() {
        let opts = FuzzOptions {
            seed: 11,
            budget: 9,
            ..Default::default()
        };
        let r1 = fuzz(&opts);
        let r2 = fuzz(&opts);
        assert_eq!(r1.cases, 9);
        assert_eq!(r1.passed, r2.passed);
        assert_eq!(r1.invalid, 0, "generator drew an invalid trace");
        assert!(r1.failures.is_empty(), "{:?}", r1.failures);
    }
}
