//! End-to-end lowering tests: every schedule of the same tensor expression
//! must compute the same result as the naive schedule (the interpreter is
//! the correctness oracle).

mod common;

use common::lower_verified;
use tvm_ir::{DType, Expr, Interp, MemScope, Stmt, ThreadTag};
use tvm_te::{
    compute, create_schedule, max_reduce, placeholder, reduce_axis, sum, Tensor, TensorIntrin,
    TensorIntrinImpl,
};

fn run(f: &tvm_ir::LoweredFunc, bufs: &mut [Vec<f32>]) {
    Interp::new()
        .run_f32(f, bufs)
        .unwrap_or_else(|e| panic!("{}: {e}\n{}", f.name, f.body));
}

fn seq_data(n: usize, scale: f32, offset: f32) -> Vec<f32> {
    (0..n)
        .map(|i| ((i * 37 % 101) as f32) * scale + offset)
        .collect()
}

fn matmul_decl(m: i64, n: i64, k: i64) -> (Tensor, Tensor, Tensor) {
    let a = placeholder(&[m, k], DType::float32(), "A");
    let b = placeholder(&[k, n], DType::float32(), "B");
    let kk = reduce_axis(k, "k");
    let c = compute(&[m, n], "C", |i| {
        sum(
            a.at(&[i[0].clone(), kk.expr()]) * b.at(&[kk.expr(), i[1].clone()]),
            std::slice::from_ref(&kk),
        )
    });
    (a, b, c)
}

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

fn check_matmul(f: &tvm_ir::LoweredFunc, m: usize, n: usize, k: usize) {
    let a = seq_data(m * k, 0.25, -3.0);
    let b = seq_data(k * n, 0.5, 1.0);
    let reference = matmul_ref(m, n, k, &a, &b);
    let mut bufs = vec![a, b, vec![0.0; m * n]];
    run(f, &mut bufs);
    for (i, (got, want)) in bufs[2].iter().zip(&reference).enumerate() {
        assert!(
            (got - want).abs() <= 1e-3 * want.abs().max(1.0),
            "mismatch at {i}: got {got}, want {want}\n{}",
            f.body
        );
    }
}

#[test]
fn naive_matmul() {
    let (a, b, c) = matmul_decl(16, 12, 20);
    let s = create_schedule(std::slice::from_ref(&c));
    let f = lower_verified(&s, &[a, b, c], "mm");
    check_matmul(&f, 16, 12, 20);
}

#[test]
fn tiled_matmul_perfect() {
    let (a, b, c) = matmul_decl(16, 16, 16);
    let mut s = create_schedule(std::slice::from_ref(&c));
    let ax = c.op.axes();
    let r = c.op.reduce_axes();
    let (yo, xo, yi, xi) = s.tile(&c, &ax[0], &ax[1], 4, 4).unwrap();
    let (ko, ki) = s.split(&c, &r[0], 4).unwrap();
    s.reorder(&c, &[&yo, &xo, &ko, &yi, &xi, &ki]).unwrap();
    let f = lower_verified(&s, &[a, b, c], "mm_tiled");
    check_matmul(&f, 16, 16, 16);
}

#[test]
fn tiled_matmul_imperfect_split_guards() {
    // 10 is not divisible by 4: guards must protect out-of-range tails.
    let (a, b, c) = matmul_decl(10, 6, 7);
    let mut s = create_schedule(std::slice::from_ref(&c));
    let ax = c.op.axes();
    let r = c.op.reduce_axes();
    let (yo, xo, yi, xi) = s.tile(&c, &ax[0], &ax[1], 4, 4).unwrap();
    let (ko, ki) = s.split(&c, &r[0], 3).unwrap();
    s.reorder(&c, &[&yo, &xo, &ko, &yi, &xi, &ki]).unwrap();
    let f = lower_verified(&s, &[a, b, c], "mm_guard");
    check_matmul(&f, 10, 6, 7);
}

#[test]
fn fused_and_annotated_matmul() {
    let (a, b, c) = matmul_decl(8, 8, 8);
    let mut s = create_schedule(std::slice::from_ref(&c));
    let ax = c.op.axes();
    let fused = s.fuse(&c, &ax[0], &ax[1]).unwrap();
    let (fo, fi) = s.split(&c, &fused, 16).unwrap();
    s.parallel(&c, &fo).unwrap();
    s.vectorize(&c, &fi).unwrap();
    let r = c.op.reduce_axes();
    s.unroll(&c, &r[0]).unwrap();
    let f = lower_verified(&s, &[a, b, c], "mm_fused");
    check_matmul(&f, 8, 8, 8);
}

#[test]
fn compute_at_producer_region() {
    // B = A * 2 computed per 4-element tile of C's loop.
    let a = placeholder(&[32], DType::float32(), "A");
    let b = compute(&[32], "B", |i| a.at(&[i[0].clone()]) * 2);
    let c = compute(&[32], "C", |i| b.at(&[i[0].clone()]) + 1);
    let mut s = create_schedule(std::slice::from_ref(&c));
    let cx = c.op.axes();
    let (xo, _xi) = s.split(&c, &cx[0], 4).unwrap();
    s.compute_at(&b, &c, &xo).unwrap();
    let f = lower_verified(&s, &[a.clone(), c.clone()], "fused_tile");
    // The intermediate B buffer must be 4 elements, not 32.
    let text = f.body.to_string();
    assert!(text.contains("alloc B: float32[4]"), "{text}");
    let input = seq_data(32, 1.0, 0.0);
    let want: Vec<f32> = input.iter().map(|v| v * 2.0 + 1.0).collect();
    let mut bufs = vec![input, vec![0.0; 32]];
    run(&f, &mut bufs);
    assert_eq!(bufs[1], want);
}

#[test]
fn compute_at_under_fused_split_loop_crossing_rows() {
    // Found by the differential schedule fuzzer (tvm-verify): attaching a
    // producer under a fused-then-split loop whose 3-element chunks straddle
    // the 16-wide inner dimension (e.g. fused indices 15,16,17) used to
    // compute a 1x3 producer region anchored at the chunk start, so the
    // consumer indexed the undersized buffer with negative offsets. The
    // region inference must relax such axes to their full extent.
    let a = placeholder(&[6, 16], DType::float32(), "A");
    let b = compute(&[6, 16], "B", |i| a.at(&[i[0].clone(), i[1].clone()]) * 2);
    let c = compute(&[6, 16], "C", |i| b.at(&[i[0].clone(), i[1].clone()]) + 1);
    let mut s = create_schedule(std::slice::from_ref(&c));
    let cx = c.op.axes();
    let f0 = s.fuse(&c, &cx[0], &cx[1]).unwrap();
    let (fo, _fi) = s.split(&c, &f0, 3).unwrap();
    s.compute_at(&b, &c, &fo).unwrap();
    let f = lower_verified(&s, &[a.clone(), c.clone()], "fused_split_attach");
    let input = seq_data(96, 0.5, -1.0);
    let want: Vec<f32> = input.iter().map(|v| v * 2.0 + 1.0).collect();
    let mut bufs = vec![input, vec![0.0; 96]];
    run(&f, &mut bufs);
    assert_eq!(bufs[1], want, "{}", f.body);
}

#[test]
fn compute_inline_removes_buffer() {
    let a = placeholder(&[16], DType::float32(), "A");
    let b = compute(&[16], "B", |i| a.at(&[i[0].clone()]) * 2);
    let c = compute(&[16], "C", |i| b.at(&[i[0].clone()]) + 1);
    let mut s = create_schedule(std::slice::from_ref(&c));
    s.compute_inline(&b).unwrap();
    let f = lower_verified(&s, &[a.clone(), c.clone()], "inlined");
    let text = f.body.to_string();
    assert!(
        !text.contains("alloc"),
        "inlined stage still allocates: {text}"
    );
    let input = seq_data(16, 1.0, 0.0);
    let want: Vec<f32> = input.iter().map(|v| v * 2.0 + 1.0).collect();
    let mut bufs = vec![input, vec![0.0; 16]];
    run(&f, &mut bufs);
    assert_eq!(bufs[1], want);
}

#[test]
fn cache_write_local_accumulator() {
    let (a, b, c) = matmul_decl(8, 8, 8);
    let mut s = create_schedule(std::slice::from_ref(&c));
    let cl = s.cache_write(&c, MemScope::Local).unwrap();
    let ax = c.op.axes();
    let (yo, xo, _yi, xi) = s.tile(&c, &ax[0], &ax[1], 4, 4).unwrap();
    let _ = (yo, xi);
    s.compute_at(&cl, &c, &xo).unwrap();
    let f = lower_verified(&s, &[a, b, c], "mm_cache_write");
    check_matmul(&f, 8, 8, 8);
}

#[test]
fn gpu_matmul_with_thread_binding() {
    let (a, b, c) = matmul_decl(16, 16, 16);
    let mut s = create_schedule(std::slice::from_ref(&c));
    let ax = c.op.axes();
    let (by, bx, ty, tx) = s.tile(&c, &ax[0], &ax[1], 4, 4).unwrap();
    s.bind(&c, &by, ThreadTag::BlockIdxY).unwrap();
    s.bind(&c, &bx, ThreadTag::BlockIdxX).unwrap();
    s.bind(&c, &ty, ThreadTag::ThreadIdxY).unwrap();
    s.bind(&c, &tx, ThreadTag::ThreadIdxX).unwrap();
    let f = lower_verified(&s, &[a, b, c], "mm_gpu");
    let an = tvm_sim::analyze(&f);
    assert_eq!(an.grid_blocks(), 16);
    assert_eq!(an.block_threads(), 16);
    check_matmul(&f, 16, 16, 16);
}

#[test]
fn thread_bound_leaf_under_the_reduction_keeps_its_serial_reset() {
    // Lowering unifies thread-bound leaves with the canonical thread
    // variables in one substitution per root stage. A bound leaf *under* the
    // reduce loop is also a loop of the reset nest, which must keep looping
    // over the leaf itself: the text below is what the per-leaf
    // substitution printed.
    let (a, b, c) = matmul_decl(8, 16, 4);
    let mut s = create_schedule(std::slice::from_ref(&c));
    let ax = c.op.axes();
    let r = c.op.reduce_axes();
    let (jo, ji) = s.split(&c, &ax[1], 4).unwrap();
    s.reorder(&c, &[&ax[0], &r[0], &jo, &ji]).unwrap();
    s.bind(&c, &ax[0], ThreadTag::BlockIdxX).unwrap();
    s.bind(&c, &jo, ThreadTag::ThreadIdxX).unwrap();
    let f = lower_verified(&s, &[a, b, c], "under");
    let expected = "\
for blockIdx.x bound to blockIdx.x in range(0, 0 + 8):
  for threadIdx.x bound to threadIdx.x in range(0, 0 + 4):
    for C_i1.o in range(4):
      for C_i1.i in range(4):
        C[((blockIdx.x * 16) + ((C_i1.o * 4) + C_i1.i))] = 0.0
    for k in range(4):
      for C_i1.i in range(4):
        C[((blockIdx.x * 16) + ((threadIdx.x * 4) + C_i1.i))] = \
(C[((blockIdx.x * 16) + ((threadIdx.x * 4) + C_i1.i))] + \
(A[((blockIdx.x * 4) + k)] * B[((k * 16) + ((threadIdx.x * 4) + C_i1.i))]))
";
    assert_eq!(f.body.to_string(), expected);
}

#[test]
fn gpu_cooperative_shared_memory_matmul() {
    // The full §4.2 pattern: block/thread tiling, local accumulator,
    // cooperative shared-memory fetch of both inputs with barriers.
    let (m, n, k) = (16, 16, 16);
    let (a, b, c) = matmul_decl(m, n, k);
    let mut s = create_schedule(std::slice::from_ref(&c));
    let cl = s.cache_write(&c, MemScope::Local).unwrap();
    let ax = c.op.axes();
    let (by, bx, yb, xb) = s.tile(&c, &ax[0], &ax[1], 8, 8).unwrap();
    let (ty, yi) = s.split(&c, &yb, 2).unwrap();
    let (tx, xi) = s.split(&c, &xb, 2).unwrap();
    s.reorder(&c, &[&by, &bx, &ty, &tx, &yi, &xi]).unwrap();
    s.bind(&c, &by, ThreadTag::BlockIdxY).unwrap();
    s.bind(&c, &bx, ThreadTag::BlockIdxX).unwrap();
    s.bind(&c, &ty, ThreadTag::ThreadIdxY).unwrap();
    s.bind(&c, &tx, ThreadTag::ThreadIdxX).unwrap();
    s.compute_at(&cl, &c, &tx).unwrap();
    // Schedule the cache stage: split its reduction for staged loads.
    let clr = cl.op.reduce_axes();
    let (ko, _ki) = s.split(&cl, &clr[0], 4).unwrap();
    let asb = s.cache_read(&a, MemScope::Shared, &[&cl]).unwrap();
    let bsb = s.cache_read(&b, MemScope::Shared, &[&cl]).unwrap();
    s.compute_at(&asb, &cl, &ko).unwrap();
    s.compute_at(&bsb, &cl, &ko).unwrap();
    // Cooperative load: fuse the tile loops and distribute across the
    // 4x4 thread block.
    for stage_t in [&asb, &bsb] {
        let sax = stage_t.op.axes();
        let fused = s.fuse(stage_t, &sax[0], &sax[1]).unwrap();
        let (o, r) = s.split(stage_t, &fused, 16).unwrap();
        let (ty2, tx2) = s.split(stage_t, &r, 4).unwrap();
        let _ = o;
        s.bind(stage_t, &ty2, ThreadTag::ThreadIdxY).unwrap();
        s.bind(stage_t, &tx2, ThreadTag::ThreadIdxX).unwrap();
    }
    let f = lower_verified(&s, &[a, b, c], "mm_coop");
    let text = f.body.to_string();
    assert!(text.contains("memory_barrier_among_threads"), "{text}");
    assert!(text.contains("@shared"), "{text}");
    check_matmul(&f, m as usize, n as usize, k as usize);
}

#[test]
fn max_pool_style_reduction() {
    let a = placeholder(&[4, 16], DType::float32(), "A");
    let r = reduce_axis(16, "r");
    let m = compute(&[4], "M", |i| {
        max_reduce(a.at(&[i[0].clone(), r.expr()]), std::slice::from_ref(&r))
    });
    let mut s = create_schedule(std::slice::from_ref(&m));
    let rx = m.op.reduce_axes();
    let (_ro, _ri) = s.split(&m, &rx[0], 4).unwrap();
    let f = lower_verified(&s, &[a.clone(), m.clone()], "rowmax");
    let data = seq_data(64, 1.0, -20.0);
    let mut want = vec![f32::NEG_INFINITY; 4];
    for y in 0..4 {
        for x in 0..16 {
            want[y] = want[y].max(data[y * 16 + x]);
        }
    }
    let mut bufs = vec![data, vec![0.0; 4]];
    run(&f, &mut bufs);
    assert_eq!(bufs[1], want);
}

#[test]
fn tensorize_gemm_tile() {
    // Tensorize the inner 4x4x4 tile of a 8x8x8 matmul with a mock
    // "hardware" gemm whose functional model is registered with the
    // interpreter.
    let (a, b, c) = matmul_decl(8, 8, 8);
    let mut s = create_schedule(std::slice::from_ref(&c));
    let ax = c.op.axes();
    let r = c.op.reduce_axes();
    let (yo, xo, yi, xi) = s.tile(&c, &ax[0], &ax[1], 4, 4).unwrap();
    let (ko, ki) = s.split(&c, &r[0], 4).unwrap();
    s.reorder(&c, &[&yo, &xo, &ko, &yi, &xi, &ki]).unwrap();

    // Declare the intrinsic behavior (4x4x4 gemm tile).
    let wd = placeholder(&[4, 4], DType::float32(), "w");
    let xd = placeholder(&[4, 4], DType::float32(), "x");
    let kd = reduce_axis(4, "k");
    let yd = compute(&[4, 4], "y", |i| {
        sum(
            wd.at(&[i[0].clone(), kd.expr()]) * xd.at(&[kd.expr(), i[1].clone()]),
            std::slice::from_ref(&kd),
        )
    });
    let intrin = TensorIntrin::new("gemm4x4", yd, |inputs, output| TensorIntrinImpl {
        reset: Some(Stmt::evaluate(Expr::hw_call(
            "mock.fill_zero",
            vec![
                output.access_ptr(),
                output.offset.clone(),
                output.strides[0].clone(),
            ],
            DType::int32(),
        ))),
        body: Stmt::evaluate(Expr::hw_call(
            "mock.gemm4x4_acc",
            vec![
                output.access_ptr(),
                output.offset.clone(),
                output.strides[0].clone(),
                inputs[0].access_ptr(),
                inputs[0].offset.clone(),
                inputs[0].strides[0].clone(),
                inputs[1].access_ptr(),
                inputs[1].offset.clone(),
                inputs[1].strides[0].clone(),
            ],
            DType::int32(),
        )),
    });
    s.tensorize(&c, &yi, intrin).unwrap();
    let f = lower_verified(&s, &[a, b, c], "mm_tensorized");
    let text = f.body.to_string();
    assert!(text.contains("mock.gemm4x4_acc"), "{text}");

    let mut it = Interp::new();
    it.register_hw(
        "mock.fill_zero",
        Box::new(|args, mem| {
            let (h, off, stride) = (args[0], args[1].as_int()?, args[2].as_int()?);
            if let tvm_ir::Value::Handle(id) = h {
                for i in 0..4 {
                    for j in 0..4 {
                        mem.store(id, off + i * stride + j, tvm_ir::Value::Float(0.0))?;
                    }
                }
            }
            Ok(tvm_ir::Value::Int(0))
        }),
    );
    it.register_hw(
        "mock.gemm4x4_acc",
        Box::new(|args, mem| {
            let out = args[0];
            let (oo, os) = (args[1].as_int()?, args[2].as_int()?);
            let aa = args[3];
            let (ao, as_) = (args[4].as_int()?, args[5].as_int()?);
            let bb = args[6];
            let (bo, bs) = (args[7].as_int()?, args[8].as_int()?);
            if let (tvm_ir::Value::Handle(o), tvm_ir::Value::Handle(a), tvm_ir::Value::Handle(b)) =
                (out, aa, bb)
            {
                for i in 0..4 {
                    for j in 0..4 {
                        let mut acc = mem.load(o, oo + i * os + j)?.as_float()?;
                        for k in 0..4 {
                            acc += mem.load(a, ao + i * as_ + k)?.as_float()?
                                * mem.load(b, bo + k * bs + j)?.as_float()?;
                        }
                        mem.store(o, oo + i * os + j, tvm_ir::Value::Float(acc))?;
                    }
                }
            }
            Ok(tvm_ir::Value::Int(0))
        }),
    );
    let av = seq_data(64, 0.25, -3.0);
    let bv = seq_data(64, 0.5, 1.0);
    let want = matmul_ref(8, 8, 8, &av, &bv);
    let mut bufs = vec![av, bv, vec![0.0; 64]];
    it.run_f32(&f, &mut bufs)
        .unwrap_or_else(|e| panic!("{e}\n{}", f.body));
    for (g, w) in bufs[2].iter().zip(&want) {
        assert!((g - w).abs() < 1e-3, "got {g} want {w}");
    }
}

#[test]
fn padded_conv1d_via_inlined_pad() {
    // Padding as an inlined injective stage with a select predicate: the
    // standard way conv handles borders without out-of-bounds reads.
    let n = 16i64;
    let a = placeholder(&[n], DType::float32(), "A");
    let pad = compute(&[n + 2], "Apad", |i| {
        let idx = i[0].clone();
        Expr::select(
            idx.clone()
                .ge(Expr::int(1))
                .and(idx.clone().lt(Expr::int(n + 1))),
            a.at(&[idx.clone() - 1]),
            Expr::f32(0.0),
        )
    });
    let w = placeholder(&[3], DType::float32(), "W");
    let r = reduce_axis(3, "dw");
    let c = compute(&[n], "Conv", |i| {
        sum(
            pad.at(&[i[0].clone() + r.expr()]) * w.at(&[r.expr()]),
            std::slice::from_ref(&r),
        )
    });
    let mut s = create_schedule(std::slice::from_ref(&c));
    s.compute_inline(&pad).unwrap();
    let f = lower_verified(&s, &[a.clone(), w.clone(), c.clone()], "conv1d");
    let av = seq_data(n as usize, 1.0, 0.0);
    let wv = vec![0.5f32, 1.0, -0.25];
    let mut want = vec![0.0f32; n as usize];
    for (i, wi) in want.iter_mut().enumerate() {
        for (d, &wd) in wv.iter().enumerate() {
            let src = i as i64 + d as i64 - 1;
            let v = if (0..n).contains(&src) {
                av[src as usize]
            } else {
                0.0
            };
            *wi += v * wd;
        }
    }
    let mut bufs = vec![av, wv, vec![0.0; n as usize]];
    run(&f, &mut bufs);
    for (g, wv) in bufs[2].iter().zip(&want) {
        assert!((g - wv).abs() < 1e-4, "got {g} want {wv}");
    }
}
