//! Loop-program feature extraction for the ML cost model (Fig. 13).
//!
//! Features are extracted from the *lowered* loop program, exactly as in
//! the paper: per-buffer memory access counts and reuse ratios at each
//! loop level, plus one-hot encodings of loop annotations such as
//! vectorize, unroll and parallel.

use tvm_ir::{LoweredFunc, MemScope};
use tvm_sim::analysis::{analyze, ProgramAnalysis};

/// Number of access sites encoded (sorted by touch volume).
pub const MAX_ACCESSES: usize = 8;
/// Features per access site.
pub const ACCESS_FEATURES: usize = 9;
/// Global program features.
pub const GLOBAL_FEATURES: usize = 12;
/// Task-invariant features (normalized ratios comparable across
/// workloads — see [`invariant_features`]).
pub const INVARIANT_FEATURES: usize = 8;
/// Total feature-vector length.
pub const FEATURE_LEN: usize =
    GLOBAL_FEATURES + MAX_ACCESSES * ACCESS_FEATURES + INVARIANT_FEATURES;

fn log2p(x: f64) -> f64 {
    (x.max(0.0) + 1.0).log2()
}

/// The task-invariant feature block ("Learning to Optimize Tensor
/// Programs"-style): normalized ratios rather than absolute magnitudes,
/// so one cost model can rank configurations *across* workloads of very
/// different sizes, and so a task can be located relative to its tuned
/// neighbors for transfer. The entries:
///
/// - 0: arithmetic intensity `flops / bytes-touched` (log-compressed)
/// - 1-4: one-hot arithmetic-intensity bucket (`<0.5`, `<4`, `<32`, `>=32`)
/// - 5: touch ratio `bytes-touched / unique-footprint-bytes` (reuse factor)
/// - 6: normalized loop extent: geometric-mean per-level trip count,
///   `iterations^(1/depth)`
/// - 7: store fraction of the access sites
pub fn invariant_features(an: &ProgramAnalysis) -> [f64; INVARIANT_FEATURES] {
    let total_touch: f64 = an
        .accesses
        .iter()
        .map(|a| a.trips * a.dtype.bytes() as f64)
        .sum();
    let total_footprint: f64 = an.accesses.iter().map(|a| a.bytes_at_depth(0)).sum();
    let ai = an.flops / total_touch.max(1.0);
    let touch_ratio = total_touch / total_footprint.max(1.0);
    let depth = an
        .accesses
        .iter()
        .map(|a| a.loops.len())
        .max()
        .unwrap_or(1)
        .max(1);
    let norm_extent = an.loop_iterations.max(1.0).powf(1.0 / depth as f64);
    let stores = an.accesses.iter().filter(|a| a.is_store).count();
    let store_frac = stores as f64 / an.accesses.len().max(1) as f64;
    [
        log2p(ai),
        f64::from(ai < 0.5),
        f64::from((0.5..4.0).contains(&ai)),
        f64::from((4.0..32.0).contains(&ai)),
        f64::from(ai >= 32.0),
        log2p(touch_ratio),
        log2p(norm_extent),
        store_frac,
    ]
}

/// Length of a [`task_signature`].
pub const TASK_SIG_LEN: usize = INVARIANT_FEATURES;

/// A task's location in the invariant feature space: the signature the
/// journal stores so a new workload can warm-start from its nearest
/// tuned neighbor. Extracted from any representative lowering of the
/// task (the untuned default config works — the invariant block varies
/// far less across configs of one task than across tasks).
pub fn task_signature(func: &LoweredFunc) -> Vec<f64> {
    invariant_features(&analyze(func)).to_vec()
}

/// Squared L2 distance between two signatures (shorter one zero-padded).
pub fn signature_distance(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len().max(b.len());
    (0..n)
        .map(|i| {
            let d = a.get(i).copied().unwrap_or(0.0) - b.get(i).copied().unwrap_or(0.0);
            d * d
        })
        .sum()
}

/// Extracts the fixed-length feature vector of a lowered function.
pub fn extract(func: &LoweredFunc) -> Vec<f64> {
    extract_analysis(&analyze(func))
}

/// Extracts features from a precomputed analysis.
pub fn extract_analysis(an: &ProgramAnalysis) -> Vec<f64> {
    let mut f = Vec::with_capacity(FEATURE_LEN);
    // Global features.
    f.push(log2p(an.flops));
    f.push(if an.flops > 0.0 {
        an.vector_flops / an.flops
    } else {
        0.0
    });
    f.push(if an.flops > 0.0 {
        an.parallel_flops / an.flops
    } else {
        0.0
    });
    f.push(log2p(an.parallel_extent as f64));
    f.push(log2p(an.loop_iterations));
    f.push(log2p(an.branches));
    f.push(log2p(an.barriers));
    f.push(log2p(an.block_threads() as f64));
    f.push(log2p(an.grid_blocks() as f64));
    f.push(log2p(
        an.alloc_bytes
            .get(&MemScope::Shared)
            .copied()
            .unwrap_or(0.0),
    ));
    f.push(log2p(
        an.alloc_bytes.get(&MemScope::Local).copied().unwrap_or(0.0),
    ));
    f.push(log2p(an.intrinsics.iter().map(|i| i.trips).sum::<f64>()));

    // Per-access features, heaviest first.
    let mut accesses: Vec<_> = an.accesses.iter().collect();
    accesses.sort_by(|a, b| {
        (b.trips * b.dtype.bytes() as f64).total_cmp(&(a.trips * a.dtype.bytes() as f64))
    });
    for i in 0..MAX_ACCESSES {
        match accesses.get(i) {
            Some(a) => {
                let depth = a.loops.len();
                f.push(log2p(a.trips));
                f.push(log2p(a.bytes_at_depth(0)));
                // Footprint/reuse at a shallow, a middle and the innermost
                // loop level.
                let mid = depth / 2;
                f.push(log2p(a.footprint_at_depth.get(mid).copied().unwrap_or(1.0)));
                f.push(log2p(
                    a.footprint_at_depth
                        .get(depth.saturating_sub(1))
                        .copied()
                        .unwrap_or(1.0),
                ));
                f.push(log2p(a.reuse_at_depth(mid)));
                // Stride class: invariant / unit / strided / unknown.
                f.push(match a.innermost_stride {
                    0 => 0.0,
                    1 | -1 => 1.0,
                    s if s > 1 => 2.0 + (s as f64).log2().min(8.0) / 8.0,
                    _ => 4.0,
                });
                f.push(match a.thread_stride {
                    Some(0) => 0.0,
                    Some(1) => 1.0,
                    Some(_) => 2.0,
                    None => 3.0,
                });
                f.push(if a.is_store { 1.0 } else { 0.0 });
                f.push(match a.scope {
                    MemScope::Global => 0.0,
                    MemScope::Shared => 1.0,
                    MemScope::Local => 2.0,
                    _ => 3.0,
                });
            }
            None => f.extend(std::iter::repeat_n(0.0, ACCESS_FEATURES)),
        }
    }
    f.extend(invariant_features(an));
    debug_assert_eq!(f.len(), FEATURE_LEN);
    f
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvm_ir::DType;
    use tvm_te::{compute, create_schedule, lower, placeholder, reduce_axis, sum};

    fn mm(tile: i64) -> LoweredFunc {
        let n = 64;
        let a = placeholder(&[n, n], DType::float32(), "A");
        let b = placeholder(&[n, n], DType::float32(), "B");
        let k = reduce_axis(n, "k");
        let c = compute(&[n, n], "C", |i| {
            sum(
                a.at(&[i[0].clone(), k.expr()]) * b.at(&[k.expr(), i[1].clone()]),
                std::slice::from_ref(&k),
            )
        });
        let mut s = create_schedule(std::slice::from_ref(&c));
        if tile > 1 {
            let ax = c.op.axes();
            let (yo, xo, yi, xi) = s.tile(&c, &ax[0], &ax[1], tile, tile).unwrap();
            s.reorder(&c, &[&yo, &xo, &yi, &xi]).unwrap();
            s.vectorize(&c, &xi).unwrap();
        }
        lower(&s, &[a, b, c], "mm").expect("lowers")
    }

    #[test]
    fn fixed_length_and_finite() {
        for t in [1, 8] {
            let f = extract(&mm(t));
            assert_eq!(f.len(), FEATURE_LEN);
            assert!(f.iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn different_schedules_have_different_features() {
        let f1 = extract(&mm(1));
        let f2 = extract(&mm(8));
        assert_ne!(f1, f2);
    }

    #[test]
    fn vectorization_flag_visible() {
        let f1 = extract(&mm(1)); // no vectorize
        let f2 = extract(&mm(8)); // vectorized xi
                                  // Feature 1 is the vectorized-flop fraction.
        assert_eq!(f1[1], 0.0);
        assert!(f2[1] > 0.0);
    }

    #[test]
    fn invariant_block_is_finite_and_bucketed() {
        let f = extract(&mm(8));
        let inv = &f[FEATURE_LEN - INVARIANT_FEATURES..];
        assert_eq!(inv.len(), INVARIANT_FEATURES);
        assert!(inv.iter().all(|v| v.is_finite()));
        // Exactly one arithmetic-intensity bucket is hot.
        let hot: f64 = inv[1..5].iter().sum();
        assert_eq!(hot, 1.0);
        // Matmul touches more bytes than its unique footprint (reuse > 1),
        // so the log-compressed touch ratio is strictly positive.
        assert!(inv[5] > 0.0, "touch ratio {}", inv[5]);
        // Store fraction is a proper fraction.
        assert!((0.0..=1.0).contains(&inv[7]));
    }

    #[test]
    fn signatures_separate_tasks_not_configs() {
        // Two configs of the same task sit closer together than two
        // different tasks — the property transfer warm-starting relies on.
        let small_a = task_signature(&mm(1));
        let small_b = task_signature(&mm(8));
        let elem = {
            let n = 64;
            let a = placeholder(&[n, n], DType::float32(), "A");
            let c = compute(&[n, n], "C", |i| {
                a.at(&[i[0].clone(), i[1].clone()]) + a.at(&[i[0].clone(), i[1].clone()])
            });
            let s = create_schedule(std::slice::from_ref(&c));
            task_signature(&lower(&s, &[a, c], "add").expect("lowers"))
        };
        let intra = signature_distance(&small_a, &small_b);
        let inter = signature_distance(&small_a, &elem);
        assert!(
            intra < inter,
            "intra-task {intra} should be < inter-task {inter}"
        );
    }
}
