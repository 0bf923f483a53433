//! The differential oracle: a scheduled program must compute what the
//! naive (unscheduled) lowering of the same expression DAG computes.
//!
//! Both sides run through the `tvm-ir` interpreter on identical seeded
//! inputs; outputs are compared element-wise with a small relative
//! tolerance (schedules legitimately reassociate floating-point
//! reductions).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

use tvm_ir::interp::Data;
use tvm_ir::{Buffer, DType, Interp, InterpError, LoweredFunc};
use tvm_te::{create_schedule, lower};

use crate::apply::apply_trace;
use crate::reference::{Engine, Walker};
use crate::trace::Primitive;
use crate::workload::{build, input_buffers, WorkloadKind};

/// Relative tolerance for output comparison.
pub const TOLERANCE: f32 = 1e-3;

/// The oracle's verdict on one (workload, seed, trace) case.
#[derive(Clone, Debug, PartialEq)]
pub enum Outcome {
    /// Scheduled and naive programs agree on every element.
    Pass,
    /// The trace could not be applied or lowered — not a correctness
    /// finding (expected only for shrunk / hand-written traces, never for
    /// generated ones).
    Invalid(String),
    /// The scheduled program computed a different value.
    Mismatch {
        /// Flat output index of the first differing element.
        index: usize,
        /// Scheduled result.
        got: f32,
        /// Naive-oracle result.
        want: f32,
    },
    /// The scheduled program lowered but failed to execute.
    ExecError(String),
}

impl Outcome {
    /// Short machine-readable failure class, `None` when not a failure.
    pub fn failure_kind(&self) -> Option<&'static str> {
        match self {
            Outcome::Mismatch { .. } => Some("mismatch"),
            Outcome::ExecError(_) => Some("exec_error"),
            Outcome::Pass | Outcome::Invalid(_) => None,
        }
    }

    /// True for `Mismatch` / `ExecError`.
    pub fn is_failure(&self) -> bool {
        self.failure_kind().is_some()
    }
}

impl std::fmt::Display for Outcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Outcome::Pass => write!(f, "pass"),
            Outcome::Invalid(e) => write!(f, "invalid schedule: {e}"),
            Outcome::Mismatch { index, got, want } => {
                write!(f, "mismatch at {index}: got {got}, want {want}")
            }
            Outcome::ExecError(e) => write!(f, "execution error: {e}"),
        }
    }
}

/// Serializes the panic-hook swap: shrinking replays intentionally invalid
/// traces whose failures surface as panics deep in lowering, and the
/// default hook would spam stderr.
static HOOK_GUARD: Mutex<()> = Mutex::new(());

pub(crate) fn quietly<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    let _guard = HOOK_GUARD.lock().unwrap_or_else(|e| e.into_inner());
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let r = catch_unwind(AssertUnwindSafe(f));
    std::panic::set_hook(prev);
    r.map_err(|e| {
        e.downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panic".into())
    })
}

/// What both engines agree a run did.
#[derive(Debug)]
pub struct Agreed {
    /// `Ok`, or the fault both raised.
    pub result: Result<(), InterpError>,
    /// The parameter buffers after the run, also after a fault.
    pub buffers: Vec<Buffer>,
    /// Stores executed.
    pub stores: u64,
}

/// Float32 arrays as buffers held as `f32`, the way the graph executor and
/// `Interp::run_f32` bind them.
pub fn f32_buffers(arrays: Vec<Vec<f32>>) -> Vec<Buffer> {
    arrays
        .into_iter()
        .map(|a| Buffer {
            dtype: DType::float32(),
            data: Data::F32(a),
        })
        .collect()
}

/// Every element of `b`, as bits.
fn bits(b: &Buffer) -> Vec<u64> {
    match &b.data {
        Data::F64(v) => v.iter().map(|x| x.to_bits()).collect(),
        Data::F32(v) => v.iter().map(|x| x.to_bits() as u64).collect(),
        Data::I64(v) => v.iter().map(|&x| x as u64).collect(),
    }
}

/// Executes `func` on `buffers` in the flat engine (`Interp`, what
/// everything else runs) and in the reference tree walker, `setup`
/// preparing each engine first, and compares: the same fault with the same
/// fields or none, bit-identical buffers after the run (after the fault,
/// too) and equal store counts. `Ok` carries what both agree on, `Err` says
/// how they differ. Every flat-vs-walker comparison goes through here.
pub fn run_both(
    func: &LoweredFunc,
    buffers: Vec<Buffer>,
    setup: impl Fn(&mut dyn Engine),
) -> Result<Agreed, String> {
    let (mut flat, mut walker) = (Interp::new(), Walker::default());
    setup(&mut flat);
    setup(&mut walker);
    let mut want = buffers.clone();
    let walked = walker.run(func, &mut want);
    let mut got = buffers;
    let ran = flat.run_in_place(func, &mut got);
    // The same fault, field for field, or none.
    if format!("{ran:?}") != format!("{walked:?}") {
        return Err(format!("flat {ran:?}, walker {walked:?}"));
    }
    for (p, (g, w)) in got.iter().zip(&want).enumerate() {
        let (gb, wb) = (bits(g), bits(w));
        if gb.len() != wb.len() {
            return Err(format!("param {p}: {} vs {} elements", gb.len(), wb.len()));
        }
        if let Some(i) = (0..gb.len()).find(|&i| gb[i] != wb[i]) {
            let at = |b: &Buffer| {
                let value = b.get(i as i64, "");
                value.map_or_else(|e| e.to_string(), |v| format!("{v:?}"))
            };
            return Err(format!("param {p}[{i}]: flat {}, walker {}", at(g), at(w)));
        }
    }
    if flat.store_count() != walker.stores {
        return Err(format!(
            "stores: flat {}, walker {}",
            flat.store_count(),
            walker.stores
        ));
    }
    Ok(Agreed {
        result: ran,
        buffers: got,
        stores: flat.store_count(),
    })
}

/// Runs the naive (primitive-free) lowering of a workload on seeded inputs
/// and returns the output buffer (empty for a workload without one, which
/// [`run_case`]'s length check reports).
pub fn run_naive(kind: WorkloadKind, seed: u64) -> Vec<f32> {
    let w = build(kind);
    let s = create_schedule(std::slice::from_ref(&w.output));
    let f = lower(&s, &w.args, &format!("{kind}_naive"))
        .unwrap_or_else(|e| panic!("naive {kind} must lower: {e}"));
    let mut bufs = input_buffers(&w, seed);
    Interp::new()
        .run_f32(&f, &mut bufs)
        .unwrap_or_else(|e| panic!("naive {kind} must execute: {e}"));
    bufs.pop().unwrap_or_default()
}

/// Runs one differential case: replay `trace` on a fresh DAG, execute, and
/// compare against the naive oracle on the same seeded inputs.
pub fn run_case(kind: WorkloadKind, seed: u64, trace: &[Primitive]) -> Outcome {
    let want = run_naive(kind, seed);

    let scheduled = quietly(|| -> Result<Vec<f32>, Outcome> {
        let w = build(kind);
        let mut s = create_schedule(std::slice::from_ref(&w.output));
        apply_trace(&mut s, trace).map_err(Outcome::Invalid)?;
        let f = lower(&s, &w.args, &format!("{kind}_fuzz"))
            .map_err(|e| Outcome::Invalid(e.to_string()))?;
        // Every scheduled program also checks the flat engine against the
        // walker, so a fuzzing run is a parity run on the same seeds.
        let mut agreed = run_both(&f, f32_buffers(input_buffers(&w, seed)), |_| {})
            .map_err(|diff| Outcome::ExecError(format!("engines disagree: {diff}")))?;
        agreed
            .result
            .map_err(|e| Outcome::ExecError(e.to_string()))?;
        let out = agreed.buffers.pop();
        let out = out.ok_or_else(|| Outcome::ExecError("no output buffer".into()))?;
        Ok(out.to_f32())
    });
    let got = match scheduled {
        Ok(Ok(got)) => got,
        Ok(Err(outcome)) => return outcome,
        // A panic inside apply/lower means the trace was invalid in a way
        // the validators could not see (e.g. an attach leaf split away).
        Err(msg) => return Outcome::Invalid(format!("panic: {msg}")),
    };

    if got.len() != want.len() {
        return Outcome::ExecError(format!(
            "output length {} differs from oracle length {}",
            got.len(),
            want.len()
        ));
    }
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        if !g.is_finite() || (g - w).abs() > TOLERANCE * w.abs().max(1.0) {
            return Outcome::Mismatch {
                index: i,
                got: *g,
                want: *w,
            };
        }
    }
    Outcome::Pass
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::ALL_WORKLOADS;

    #[test]
    fn empty_trace_passes_trivially() {
        for kind in ALL_WORKLOADS {
            assert_eq!(run_case(kind, 1, &[]), Outcome::Pass, "{kind}");
        }
    }

    #[test]
    fn known_good_tiling_passes() {
        let trace = vec![
            Primitive::Split {
                stage: "C".into(),
                leaf: 0,
                factor: 4,
            },
            Primitive::Split {
                stage: "C".into(),
                leaf: 2,
                factor: 3,
            },
            Primitive::Reorder {
                stage: "C".into(),
                perm: vec![0, 2, 1, 3, 4],
            },
            Primitive::Vectorize {
                stage: "C".into(),
                leaf: 3,
            },
        ];
        assert_eq!(run_case(WorkloadKind::Matmul, 5, &trace), Outcome::Pass);
    }

    #[test]
    fn invalid_trace_reports_invalid_not_failure() {
        let trace = vec![Primitive::Split {
            stage: "nope".into(),
            leaf: 0,
            factor: 2,
        }];
        let out = run_case(WorkloadKind::Matmul, 5, &trace);
        assert!(matches!(out, Outcome::Invalid(_)), "{out}");
        assert!(!out.is_failure());
    }

    #[test]
    fn naive_oracle_is_input_sensitive() {
        let a = run_naive(WorkloadKind::Conv2d, 1);
        let b = run_naive(WorkloadKind::Conv2d, 2);
        assert_ne!(a, b);
    }
}
