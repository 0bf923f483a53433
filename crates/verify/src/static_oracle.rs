//! The static oracle: cross-checks `tvm-analysis` against the
//! interpreter.
//!
//! The differential fuzzer already establishes that a scheduled program
//! *computes the right values*. The static analyzer independently claims
//! that lowered programs are *well-formed* — in scope, in bounds,
//! race-free, properly synchronized. Running both on the same random
//! schedules checks the two against each other:
//!
//! * a case the interpreter passes but the analyzer flags is an analysis
//!   **false positive** (or an interpreter blind spot — e.g. a data race
//!   the sequential interpreter cannot observe);
//! * a crash or mismatch the analyzer *missed* shows up as an ordinary
//!   differential failure and needs no extra plumbing here.
//!
//! Disagreements are shrunk with the same trace minimizer as
//! miscompilations, so an analysis bug arrives as a few-primitive
//! reproducer.

use tvm_te::{create_schedule, lower};

use crate::apply::apply_trace;
use crate::diff::quietly;
use crate::trace::Primitive;
use crate::workload::{build, WorkloadKind};

/// Lowers `trace` on a fresh DAG and runs all four analysis passes.
/// Returns `Some(rendered errors)` when the analyzer flags the program,
/// `None` when it is clean or the trace does not lower (no claim).
pub fn check_static(kind: WorkloadKind, trace: &[Primitive]) -> Option<String> {
    let result = quietly(|| -> Option<String> {
        let w = build(kind);
        let mut s = create_schedule(std::slice::from_ref(&w.output));
        apply_trace(&mut s, trace).ok()?;
        let f = lower(&s, &w.args, &format!("{kind}_static")).ok()?;
        let report = tvm_analysis::analyze_func(&f);
        if report.has_errors() {
            let msgs: Vec<String> = report.errors().map(|d| d.to_string()).collect();
            Some(msgs.join("; "))
        } else {
            None
        }
    });
    // A panic during apply/lower means the trace was invalid: no claim.
    result.ok().flatten()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The verdict is the analyzer's own findings, whatever the build
    /// profile: `lower` has no opinion on what it emits.
    #[test]
    fn a_flagged_trace_comes_back_as_the_analyzers_findings() {
        assert_eq!(check_static(WorkloadKind::Conv2d, &[]), None);
        // Binding a producer's leaf to a thread axis: every thread writes
        // the whole output.
        let unsound = [
            Primitive::CacheWrite {
                tensor: "conv".into(),
                scope: "local".into(),
            },
            Primitive::Bind {
                stage: "conv.local".into(),
                leaf: 1,
                tag: "threadIdx.x".into(),
            },
        ];
        let findings = check_static(WorkloadKind::Conv2d, &unsound).expect("flagged");
        assert!(findings.starts_with("error[race]: "), "{findings}");
    }
}
