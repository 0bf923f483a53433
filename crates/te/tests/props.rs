//! The crown-jewel property: *every* schedule of a tensor expression
//! computes the same result as the naive schedule. Random tilings,
//! orderings and annotations are drawn and checked against the reference
//! interpreter.

mod common;

use common::lower_verified;
use proptest::prelude::*;
use tvm_ir::{DType, Interp, MemScope};
use tvm_te::{compute, create_schedule, placeholder, reduce_axis, sum};

fn matmul_ref(m: usize, n: usize, k: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
    let mut c = vec![0.0f32; m * n];
    for y in 0..m {
        for x in 0..n {
            let mut acc = 0.0f64;
            for z in 0..k {
                acc += (a[y * k + z] as f64) * (b[z * n + x] as f64);
            }
            c[y * n + x] = acc as f32;
        }
    }
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random matmul schedules (tile factors, reduction split, reorder
    /// flavor, annotations, optional cache_write) are semantics-preserving.
    #[test]
    fn random_matmul_schedules_preserve_semantics(
        ty in 1i64..9,
        tx in 1i64..9,
        tk in 1i64..9,
        order in 0u8..3,
        vectorize in any::<bool>(),
        unroll in any::<bool>(),
        parallel in any::<bool>(),
        cache in any::<bool>(),
    ) {
        let (m, n, k) = (12i64, 10, 14);
        let a = placeholder(&[m, k], DType::float32(), "A");
        let b = placeholder(&[k, n], DType::float32(), "B");
        let kk = reduce_axis(k, "k");
        let c = compute(&[m, n], "C", |i| {
            sum(a.at(&[i[0].clone(), kk.expr()]) * b.at(&[kk.expr(), i[1].clone()]), std::slice::from_ref(&kk))
        });
        let mut s = create_schedule(std::slice::from_ref(&c));
        let target = if cache {
            let cl = s.cache_write(&c, MemScope::Local).unwrap();
            let ax = c.op.axes();
            let (_yo, xo, _yi, _xi) = s.tile(&c, &ax[0], &ax[1], ty, tx).unwrap();
            s.compute_at(&cl, &c, &xo).unwrap();
            cl
        } else {
            c.clone()
        };
        let ax = target.op.axes();
        let r = target.op.reduce_axes();
        let (yo, yi) = s.split(&target, &ax[0], ty).unwrap();
        let (xo, xi) = s.split(&target, &ax[1], tx).unwrap();
        let (ko, ki) = s.split(&target, &r[0], tk).unwrap();
        match order {
            0 => s.reorder(&target, &[&yo, &xo, &ko, &yi, &xi, &ki]).unwrap(),
            1 => s.reorder(&target, &[&yo, &xo, &ko, &ki, &yi, &xi]).unwrap(),
            _ => s.reorder(&target, &[&xo, &yo, &ko, &yi, &ki, &xi]).unwrap(),
        }
        if vectorize {
            s.vectorize(&target, &xi).unwrap();
        }
        if unroll {
            s.unroll(&target, &ki).unwrap();
        }
        if parallel && !cache {
            s.parallel(&target, &yo).unwrap();
        }
        let f = lower_verified(&s, &[a, b, c], "mm_prop");
        let av: Vec<f32> = (0..m * k).map(|i| ((i * 31 % 19) as f32) * 0.3 - 2.0).collect();
        let bv: Vec<f32> = (0..k * n).map(|i| ((i * 17 % 23) as f32) * 0.2 - 1.5).collect();
        let want = matmul_ref(m as usize, n as usize, k as usize, &av, &bv);
        let mut bufs = vec![av, bv, vec![0.0; (m * n) as usize]];
        Interp::new().run_f32(&f, &mut bufs).expect("executes");
        for (g, w) in bufs[2].iter().zip(&want) {
            prop_assert!((g - w).abs() <= 1e-3 * w.abs().max(1.0), "{g} vs {w}");
        }
    }

    /// Random elementwise schedules with fusion and splitting agree with
    /// direct evaluation, including non-divisible factors (guards).
    #[test]
    fn random_elementwise_schedules_preserve_semantics(
        n in 3i64..40,
        factor in 1i64..17,
        fuse_axes in any::<bool>(),
        vectorize in any::<bool>(),
    ) {
        let rows = 5i64;
        let a = placeholder(&[rows, n], DType::float32(), "A");
        let b = compute(&[rows, n], "B", |i| {
            a.at(&[i[0].clone(), i[1].clone()]) * 3 + 1
        });
        let mut s = create_schedule(std::slice::from_ref(&b));
        let ax = b.op.axes();
        if fuse_axes {
            let f = s.fuse(&b, &ax[0], &ax[1]).unwrap();
            let (_o, i) = s.split(&b, &f, factor).unwrap();
            if vectorize {
                s.vectorize(&b, &i).unwrap();
            }
        } else {
            let (_o, i) = s.split(&b, &ax[1], factor).unwrap();
            if vectorize {
                s.vectorize(&b, &i).unwrap();
            }
        }
        let f = lower_verified(&s, &[a, b], "ew_prop");
        let av: Vec<f32> = (0..rows * n).map(|i| i as f32 * 0.5).collect();
        let want: Vec<f32> = av.iter().map(|v| v * 3.0 + 1.0).collect();
        let mut bufs = vec![av, vec![0.0; (rows * n) as usize]];
        Interp::new().run_f32(&f, &mut bufs).expect("executes");
        prop_assert_eq!(&bufs[1], &want);
    }
}
