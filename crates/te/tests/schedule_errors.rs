//! Error-path and edge-case tests for the schedule layer: the compiler
//! must reject malformed schedules with diagnosable errors rather than
//! miscompiling.

use tvm_ir::{DType, Interp, MemScope, ThreadTag};
use tvm_te::{
    compute, create_schedule, lower, placeholder, reduce_axis, sum, ScheduleError, TensorIntrin,
    TensorIntrinImpl,
};

fn mm(n: i64) -> (tvm_te::Tensor, tvm_te::Tensor, tvm_te::Tensor) {
    let a = placeholder(&[n, n], DType::float32(), "A");
    let b = placeholder(&[n, n], DType::float32(), "B");
    let k = reduce_axis(n, "k");
    let c = compute(&[n, n], "C", |i| {
        sum(
            a.at(&[i[0].clone(), k.expr()]) * b.at(&[k.expr(), i[1].clone()]),
            std::slice::from_ref(&k),
        )
    });
    (a, b, c)
}

#[test]
fn tensorize_shape_mismatch_is_an_error() {
    let (a, b, c) = mm(16);
    let mut s = create_schedule(std::slice::from_ref(&c));
    let ax = c.op.axes();
    let r = c.op.reduce_axes();
    let (yo, xo, yi, xi) = s.tile(&c, &ax[0], &ax[1], 4, 4).unwrap();
    let (ko, ki) = s.split(&c, &r[0], 4).unwrap();
    s.reorder(&c, &[&yo, &xo, &ko, &yi, &xi, &ki]).unwrap();
    // Declare an 8x8x8 intrinsic but tensorize a 4x4x4 region.
    let wd = placeholder(&[8, 8], DType::float32(), "w");
    let xd = placeholder(&[8, 8], DType::float32(), "x");
    let kd = reduce_axis(8, "k");
    let yd = compute(&[8, 8], "y", |i| {
        sum(
            wd.at(&[i[0].clone(), kd.expr()]) * xd.at(&[kd.expr(), i[1].clone()]),
            std::slice::from_ref(&kd),
        )
    });
    let intrin = TensorIntrin::new("gemm8", yd, |_, _| TensorIntrinImpl {
        reset: None,
        body: tvm_ir::Stmt::nop(),
    });
    s.tensorize(&c, &yi, intrin).unwrap();
    let err = lower(&s, &[a, b, c], "bad").expect_err("must fail");
    assert!(err.to_string().contains("tensorize mismatch"), "{err}");
}

#[test]
fn tensorize_rejects_imperfect_tiles() {
    let (a, b, c) = mm(10); // 10 % 4 != 0 -> guards in the region
    let mut s = create_schedule(std::slice::from_ref(&c));
    let ax = c.op.axes();
    let r = c.op.reduce_axes();
    let (yo, xo, yi, xi) = s.tile(&c, &ax[0], &ax[1], 4, 4).unwrap();
    let (ko, ki) = s.split(&c, &r[0], 5).unwrap();
    s.reorder(&c, &[&yo, &xo, &ko, &yi, &xi, &ki]).unwrap();
    let wd = placeholder(&[4, 4], DType::float32(), "w");
    let xd = placeholder(&[4, 4], DType::float32(), "x");
    let kd = reduce_axis(5, "k");
    let yd = compute(&[4, 4], "y", |i| {
        sum(
            wd.at(&[i[0].clone(), kd.expr()]) * xd.at(&[kd.expr(), i[1].clone()]),
            std::slice::from_ref(&kd),
        )
    });
    let intrin = TensorIntrin::new("gemm4", yd, |_, _| TensorIntrinImpl {
        reset: None,
        body: tvm_ir::Stmt::nop(),
    });
    s.tensorize(&c, &yi, intrin).unwrap();
    let err = lower(&s, &[a, b, c], "bad").expect_err("must fail");
    assert!(err.to_string().contains("non-perfect split"), "{err}");
}

#[test]
fn inlining_a_reduction_errors() {
    let (_a, _b, c) = mm(8);
    let c2 = c.clone();
    let d = compute(&[8, 8], "D", move |i| {
        c2.at(&[i[0].clone(), i[1].clone()]) + 1
    });
    let mut s = create_schedule(&[d]);
    let err = s.compute_inline(&c).unwrap_err();
    assert!(
        matches!(err, ScheduleError::InlineReduction { .. }),
        "{err}"
    );
    assert!(err.to_string().contains("cannot inline reduction"), "{err}");
}

#[test]
fn inlining_the_output_errors() {
    let (_a, _b, c) = mm(8);
    let c2 = c.clone();
    let d = compute(&[8, 8], "D", move |i| {
        c2.at(&[i[0].clone(), i[1].clone()]) + 1
    });
    let mut s = create_schedule(std::slice::from_ref(&d));
    let err = s.compute_inline(&d).unwrap_err();
    assert!(matches!(err, ScheduleError::InlineOutput { .. }), "{err}");
    assert!(err.to_string().contains("cannot inline output"), "{err}");
}

#[test]
fn cache_write_after_split_errors() {
    let (_a, _b, c) = mm(8);
    let mut s = create_schedule(std::slice::from_ref(&c));
    let ax = c.op.axes();
    let _ = s.split(&c, &ax[0], 2).unwrap();
    let err = s.cache_write(&c, MemScope::Local).unwrap_err();
    assert!(
        matches!(err, ScheduleError::CacheWriteNotFirst { .. }),
        "{err}"
    );
    assert!(
        err.to_string()
            .contains("cache_write must be applied before"),
        "{err}"
    );
}

#[test]
fn fusing_a_reduce_leaf_with_a_data_leaf_errors() {
    let (_a, _b, c) = mm(8);
    let mut s = create_schedule(std::slice::from_ref(&c));
    let ax = c.op.axes();
    let r = c.op.reduce_axes();
    s.reorder(&c, &[&ax[0], &r[0], &ax[1]]).unwrap();
    let err = s.fuse(&c, &ax[0], &r[0]).unwrap_err();
    assert!(matches!(err, ScheduleError::FuseMixedKinds { .. }), "{err}");
    assert!(err.to_string().contains("mixes a reduce leaf"), "{err}");
    // The stage is untouched and two leaves of one kind still fuse.
    assert_eq!(s.stage(&c).unwrap().leaf_iters.len(), 3);
    s.reorder(&c, &[&ax[0], &ax[1], &r[0]]).unwrap();
    s.fuse(&c, &ax[0], &ax[1]).unwrap();
}

#[test]
fn compute_at_inlined_consumer_is_diagnosed() {
    // B is inlined into C, then A's cache stage attaches to B: the lowering
    // error must name both stages and point at the inlining.
    let a = placeholder(&[8], DType::float32(), "A");
    let a2 = a.clone();
    let b = compute(&[8], "B", move |i| a2.at(&[i[0].clone()]) * 2);
    let b2 = b.clone();
    let c = compute(&[8], "C", move |i| b2.at(&[i[0].clone()]) + 1);
    let mut s = create_schedule(std::slice::from_ref(&c));
    let al = s.cache_read(&a, MemScope::Local, &[&b]).unwrap();
    let b_axis = b.op.axes()[0].clone();
    s.compute_at(&al, &b, &b_axis).unwrap();
    s.compute_inline(&b).unwrap();
    let err = lower(&s, &[a, c], "bad").expect_err("must fail");
    match &err {
        tvm_te::TeError::ComputeAtUnbounded {
            producer,
            consumer,
            consumer_inlined,
        } => {
            assert_eq!(consumer, "B");
            assert!(producer.contains("A"), "{producer}");
            assert!(*consumer_inlined);
        }
        other => panic!("expected ComputeAtUnbounded, got {other:?}"),
    }
    let msg = err.to_string();
    assert!(msg.contains("inlined"), "{msg}");
    assert!(msg.contains("`B`"), "{msg}");
}

#[test]
fn smaller_thread_binding_is_guarded_not_rejected() {
    // One stage binds 8 threads, a cooperatively-loaded cache stage only
    // needs 4: the 4-wide stage must run under a guard on the canonical
    // thread variable, preserving semantics.
    let n = 16i64;
    let a = placeholder(&[n], DType::float32(), "A");
    let a2 = a.clone();
    let b = compute(&[n], "B", move |i| a2.at(&[i[0].clone()]) * 2);
    let b2 = b.clone();
    let c = compute(&[n], "C", move |i| b2.at(&[i[0].clone()]) + 1);
    let mut s = create_schedule(std::slice::from_ref(&c));
    let cx = c.op.axes();
    let (bx, tx) = s.split(&c, &cx[0], 8).unwrap();
    s.bind(&c, &bx, ThreadTag::BlockIdxX).unwrap();
    s.bind(&c, &tx, ThreadTag::ThreadIdxX).unwrap();
    s.compute_at(&b, &c, &bx).unwrap();
    s.set_scope(&b, MemScope::Shared).unwrap();
    let bx2 = b.op.axes();
    let (_o, i4) = s.split(&b, &bx2[0], 4).unwrap();
    s.bind(&b, &i4, ThreadTag::ThreadIdxX).unwrap();
    let f = lower(&s, &[a, c], "guarded").expect("lowers");
    assert!(
        f.body.to_string().contains("if (threadIdx.x < 4)"),
        "{}",
        f.body
    );
    let mut bufs = vec![(0..16).map(|v| v as f32).collect::<Vec<_>>(), vec![0.0; 16]];
    Interp::new().run_f32(&f, &mut bufs).expect("runs");
    let want: Vec<f32> = (0..16).map(|v| v as f32 * 2.0 + 1.0).collect();
    assert_eq!(bufs[1], want);
}

#[test]
fn dma_pragma_wraps_the_copy_nest() {
    let n = 32i64;
    let a = placeholder(&[n], DType::float32(), "A");
    let a2 = a.clone();
    let b = compute(&[n], "B", move |i| a2.at(&[i[0].clone()]) + 5);
    let mut s = create_schedule(std::slice::from_ref(&b));
    let al = s.cache_read(&a, MemScope::InpBuffer, &[&b]).unwrap();
    let bx = b.op.axes();
    let (xo, _xi) = s.split(&b, &bx[0], 8).unwrap();
    s.compute_at(&al, &b, &xo).unwrap();
    let leaf = s.stage(&al).unwrap().leaf_iters[0].clone();
    s.pragma(&al, &leaf, "dma_copy").unwrap();
    let f = lower(&s, &[a, b], "dma").expect("lowers");
    assert!(f.body.to_string().contains("pragma.dma_copy"), "{}", f.body);
    // And it still computes correctly.
    let mut bufs = vec![(0..32).map(|v| v as f32).collect::<Vec<_>>(), vec![0.0; 32]];
    Interp::new().run_f32(&f, &mut bufs).expect("runs");
    assert_eq!(bufs[1][31], 36.0);
}

#[test]
fn multi_output_style_graphs_share_producers() {
    // Two outputs reading one producer: the producer materializes once at
    // root and both consumers read it.
    let a = placeholder(&[8], DType::float32(), "A");
    let a2 = a.clone();
    let mid = compute(&[8], "mid", move |i| a2.at(&[i[0].clone()]) * 2);
    let m1 = mid.clone();
    let out1 = compute(&[8], "out1", move |i| m1.at(&[i[0].clone()]) + 1);
    let m2 = mid.clone();
    let out2 = compute(&[8], "out2", move |i| m2.at(&[i[0].clone()]) - 1);
    let s = create_schedule(&[out1.clone(), out2.clone()]);
    let f = lower(&s, &[a, out1, out2], "dual").expect("lowers");
    let mut bufs = vec![
        (0..8).map(|v| v as f32).collect::<Vec<_>>(),
        vec![0.0; 8],
        vec![0.0; 8],
    ];
    Interp::new().run_f32(&f, &mut bufs).expect("runs");
    assert_eq!(bufs[1][3], 7.0);
    assert_eq!(bufs[2][3], 5.0);
}
