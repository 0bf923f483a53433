//! Trace application: replays a [`Primitive`] list onto a fresh schedule.
//!
//! `tvm-te`'s schedule primitives reject what they cannot apply (a split
//! factor below 1, a mixed-kind fuse, inlining an output or a reduction,
//! misplaced caching) with a `ScheduleError`. Trace replay adds only the
//! checks `te` has no rule for, so that arbitrary (e.g. shrunk) traces fail
//! with an `Err` instead of a panic or a silent no-op wherever possible;
//! the residual panic paths (bound inference on exotic attach shapes) are
//! caught by the differential runner.

use tvm_te::{IterKind, Schedule, Tensor};

use crate::trace::{parse_scope, parse_thread_tag, Primitive};

/// Looks up a schedulable stage's tensor by name.
fn stage_tensor(s: &Schedule, name: &str) -> Result<Tensor, String> {
    s.stages
        .iter()
        .find(|st| st.tensor.name() == name)
        .map(|st| st.tensor.clone())
        .ok_or_else(|| format!("no stage named `{name}`"))
}

/// Looks up any tensor by name: stage outputs first, then placeholders
/// reachable as stage inputs (for `cache_read` of a raw input).
fn any_tensor(s: &Schedule, name: &str) -> Result<Tensor, String> {
    if let Ok(t) = stage_tensor(s, name) {
        return Ok(t);
    }
    for st in &s.stages {
        for inp in st.tensor.op.input_tensors() {
            if inp.name() == name {
                return Ok(inp);
            }
        }
    }
    Err(format!("no tensor named `{name}`"))
}

fn leaf(s: &Schedule, t: &Tensor, index: usize) -> Result<tvm_te::IterVar, String> {
    let leaves = &s.stage(t).map_err(|e| e.to_string())?.leaf_iters;
    leaves.get(index).cloned().ok_or_else(|| {
        format!(
            "leaf {index} out of range for `{}` ({} leaves)",
            t.name(),
            leaves.len()
        )
    })
}

/// Applies one primitive; `Err` means the trace is invalid at this point.
pub fn apply_one(s: &mut Schedule, p: &Primitive) -> Result<(), String> {
    match p {
        Primitive::Split {
            stage,
            leaf: li,
            factor,
        } => {
            if *factor > 4096 {
                return Err(format!("split factor {factor} is above 4096"));
            }
            let t = stage_tensor(s, stage)?;
            let iv = leaf(s, &t, *li)?;
            s.split(&t, &iv, *factor).map_err(|e| e.to_string())?;
        }
        Primitive::Fuse { stage, pos } => {
            let t = stage_tensor(s, stage)?;
            let outer = leaf(s, &t, *pos)?;
            let inner = leaf(s, &t, *pos + 1)?;
            s.fuse(&t, &outer, &inner).map_err(|e| e.to_string())?;
        }
        Primitive::Reorder { stage, perm } => {
            let t = stage_tensor(s, stage)?;
            let leaves = s.stage(&t).map_err(|e| e.to_string())?.leaf_iters.clone();
            let mut seen = vec![false; leaves.len()];
            if perm.len() != leaves.len() {
                return Err(format!(
                    "reorder perm has {} entries for {} leaves",
                    perm.len(),
                    leaves.len()
                ));
            }
            for &ix in perm {
                if ix >= leaves.len() || seen[ix] {
                    return Err(format!("reorder perm {perm:?} is not a permutation"));
                }
                seen[ix] = true;
            }
            let order: Vec<&tvm_te::IterVar> = perm.iter().map(|&ix| &leaves[ix]).collect();
            s.reorder(&t, &order).map_err(|e| e.to_string())?;
        }
        Primitive::Vectorize { stage, leaf: li } => {
            let t = stage_tensor(s, stage)?;
            let iv = leaf(s, &t, *li)?;
            if iv.kind == IterKind::Reduce {
                return Err("vectorizing a reduction leaf".into());
            }
            s.vectorize(&t, &iv).map_err(|e| e.to_string())?;
        }
        Primitive::Unroll { stage, leaf: li } => {
            let t = stage_tensor(s, stage)?;
            let iv = leaf(s, &t, *li)?;
            s.unroll(&t, &iv).map_err(|e| e.to_string())?;
        }
        Primitive::Parallel { stage, leaf: li } => {
            let t = stage_tensor(s, stage)?;
            let iv = leaf(s, &t, *li)?;
            if iv.kind == IterKind::Reduce {
                return Err("parallelizing a reduction leaf".into());
            }
            s.parallel(&t, &iv).map_err(|e| e.to_string())?;
        }
        Primitive::Bind {
            stage,
            leaf: li,
            tag,
        } => {
            let t = stage_tensor(s, stage)?;
            let iv = leaf(s, &t, *li)?;
            let tag = parse_thread_tag(tag).ok_or_else(|| format!("unknown thread tag `{tag}`"))?;
            s.bind(&t, &iv, tag).map_err(|e| e.to_string())?;
        }
        Primitive::ComputeAt {
            producer,
            consumer,
            leaf: li,
        } => {
            let prod = stage_tensor(s, producer)?;
            let cons = stage_tensor(s, consumer)?;
            if prod.op_id() == cons.op_id() {
                return Err("compute_at of a stage into itself".into());
            }
            let iv = leaf(s, &cons, *li)?;
            s.compute_at(&prod, &cons, &iv).map_err(|e| e.to_string())?;
        }
        Primitive::ComputeInline { stage } => {
            let t = stage_tensor(s, stage)?;
            s.compute_inline(&t).map_err(|e| e.to_string())?;
        }
        Primitive::CacheRead {
            tensor,
            scope,
            readers,
        } => {
            let t = any_tensor(s, tensor)?;
            let scope = parse_scope(scope).ok_or_else(|| format!("unknown scope `{scope}`"))?;
            let readers: Vec<Tensor> = readers
                .iter()
                .map(|r| stage_tensor(s, r))
                .collect::<Result<_, _>>()?;
            // Readers must currently consume the tensor, otherwise the
            // rewrite is a silent no-op and the cache stage computes dead
            // values of a possibly-stale body.
            for r in &readers {
                if !r.op.input_tensors().iter().any(|i| i.op_id() == t.op_id()) {
                    return Err(format!("`{}` does not read `{tensor}`", r.name()));
                }
            }
            let refs: Vec<&Tensor> = readers.iter().collect();
            s.cache_read(&t, scope, &refs).map_err(|e| e.to_string())?;
        }
        Primitive::CacheWrite { tensor, scope } => {
            let t = stage_tensor(s, tensor)?;
            let scope = parse_scope(scope).ok_or_else(|| format!("unknown scope `{scope}`"))?;
            s.cache_write(&t, scope).map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

/// Replays a whole trace; stops at the first invalid primitive.
pub fn apply_trace(s: &mut Schedule, trace: &[Primitive]) -> Result<(), String> {
    for (i, p) in trace.iter().enumerate() {
        apply_one(s, p).map_err(|e| format!("primitive {i} ({p}): {e}"))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{build, WorkloadKind};
    use tvm_te::create_schedule;

    fn sched() -> (Schedule, crate::workload::Built) {
        let w = build(WorkloadKind::Matmul);
        (create_schedule(std::slice::from_ref(&w.output)), w)
    }

    #[test]
    fn split_then_reorder_applies() {
        let (mut s, w) = sched();
        apply_trace(
            &mut s,
            &[
                Primitive::Split {
                    stage: "C".into(),
                    leaf: 0,
                    factor: 4,
                },
                Primitive::Reorder {
                    stage: "C".into(),
                    perm: vec![0, 2, 1, 3],
                },
            ],
        )
        .expect("applies");
        assert_eq!(s.stage(&w.output).unwrap().leaf_iters.len(), 4);
    }

    #[test]
    fn out_of_range_leaf_is_an_error_not_a_panic() {
        let (mut s, _) = sched();
        let err = apply_one(
            &mut s,
            &Primitive::Split {
                stage: "C".into(),
                leaf: 9,
                factor: 2,
            },
        )
        .expect_err("rejects");
        assert!(err.contains("out of range"), "{err}");
    }

    #[test]
    fn bad_permutation_is_rejected() {
        let (mut s, _) = sched();
        assert!(apply_one(
            &mut s,
            &Primitive::Reorder {
                stage: "C".into(),
                perm: vec![0, 0, 1]
            }
        )
        .is_err());
    }

    #[test]
    fn cache_write_after_split_is_rejected() {
        let (mut s, _) = sched();
        apply_one(
            &mut s,
            &Primitive::Split {
                stage: "C".into(),
                leaf: 0,
                factor: 2,
            },
        )
        .expect("applies");
        assert!(apply_one(
            &mut s,
            &Primitive::CacheWrite {
                tensor: "C".into(),
                scope: "local".into()
            }
        )
        .is_err());
    }

    #[test]
    fn cache_read_of_unread_tensor_is_rejected() {
        let w = build(WorkloadKind::Fused);
        let mut s = create_schedule(std::slice::from_ref(&w.output));
        // `residual` reads `clip` and `A`, not `scale`.
        assert!(apply_one(
            &mut s,
            &Primitive::CacheRead {
                tensor: "scale".into(),
                scope: "local".into(),
                readers: vec!["residual".into()],
            }
        )
        .is_err());
    }

    #[test]
    fn unknown_stage_is_an_error() {
        let (mut s, _) = sched();
        assert!(apply_one(
            &mut s,
            &Primitive::ComputeInline {
                stage: "ghost".into()
            }
        )
        .is_err());
    }
}
