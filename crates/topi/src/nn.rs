//! Tensor operator inventory (the TOPI layer): declarative compute
//! definitions for the neural-network operators used by the evaluation
//! workloads. Every function builds a *fresh* expression DAG, so schedule
//! templates can mutate dataflow (cache stages) per tuning trial.

use tvm_ir::{DType, Expr};
use tvm_te::{compute, max_reduce, placeholder, reduce_axis, sum, Tensor};

use crate::workloads::{Conv2dWorkload, DenseWorkload, DepthwiseConv2dWorkload};

/// A declared convolution: inputs, optional padding stage (to be inlined by
/// schedules) and output.
pub struct Conv2dOp {
    /// Input data placeholder `[n, ic, h, w]`.
    pub data: Tensor,
    /// Weights placeholder `[oc, ic, kh, kw]`.
    pub weight: Tensor,
    /// Zero-padding stage (`None` when pad = 0).
    pub pad: Option<Tensor>,
    /// Output `[n, oc, oh, ow]`.
    pub out: Tensor,
    /// An element-wise consumer of `out` that is the kernel's output in its
    /// place (a fused group's bias / batch-norm / activation chain, inlined
    /// into one stage). The schedule templates then tile and bind the tail
    /// and accumulate `out` in registers under it, so a fused group is
    /// scheduled exactly as its operator is. `None` for the operator alone.
    pub tail: Option<Tensor>,
}

/// Zero-pads the two spatial dimensions of a 4-D tensor.
pub fn pad_spatial(data: &Tensor, pad: i64, name: &str) -> Tensor {
    let s = data.shape().to_vec();
    let (h, w) = (s[2], s[3]);
    compute(&[s[0], s[1], h + 2 * pad, w + 2 * pad], name, |i| {
        let ih = i[2].clone() - pad;
        let iw = i[3].clone() - pad;
        let inside = ih
            .clone()
            .ge(Expr::int(0))
            .and(ih.clone().lt(Expr::int(h)))
            .and(iw.clone().ge(Expr::int(0)))
            .and(iw.clone().lt(Expr::int(w)));
        Expr::select(
            inside,
            data.at(&[i[0].clone(), i[1].clone(), ih, iw]),
            Expr::zero(data.dtype()),
        )
    })
}

/// Declares a direct NCHW convolution for a workload.
pub fn conv2d(w: &Conv2dWorkload, dtype: DType) -> Conv2dOp {
    let data = placeholder(&[w.batch, w.in_c, w.size, w.size], dtype, "data");
    let weight = placeholder(&[w.out_c, w.in_c, w.kernel, w.kernel], dtype, "weight");
    conv2d_compute(&data, &weight, w)
}

/// Convolution over existing tensors (graph compiler entry point).
pub fn conv2d_compute(data: &Tensor, weight: &Tensor, w: &Conv2dWorkload) -> Conv2dOp {
    let (data, weight) = (data.clone(), weight.clone());
    let (src, pad) = if w.pad > 0 {
        let p = pad_spatial(&data, w.pad, "data_pad");
        (p.clone(), Some(p))
    } else {
        (data.clone(), None)
    };
    let rc = reduce_axis(w.in_c, "rc");
    let rh = reduce_axis(w.kernel, "rh");
    let rw = reduce_axis(w.kernel, "rw");
    let o = w.out_size();
    let stride = w.stride;
    let out = compute(&[w.batch, w.out_c, o, o], "conv", |i| {
        sum(
            src.at(&[
                i[0].clone(),
                rc.expr(),
                i[2].clone() * stride + rh.expr(),
                i[3].clone() * stride + rw.expr(),
            ]) * weight.at(&[i[1].clone(), rc.expr(), rh.expr(), rw.expr()]),
            &[rc.clone(), rh.clone(), rw.clone()],
        )
    });
    Conv2dOp {
        data,
        weight,
        pad,
        out,
        tail: None,
    }
}

/// Declares a depthwise NCHW convolution (channel multiplier 1).
pub fn depthwise_conv2d(w: &DepthwiseConv2dWorkload, dtype: DType) -> Conv2dOp {
    let data = placeholder(&[w.batch, w.channels, w.size, w.size], dtype, "data");
    let weight = placeholder(&[w.channels, w.kernel, w.kernel], dtype, "weight");
    depthwise_conv2d_compute(&data, &weight, w)
}

/// Depthwise convolution over existing tensors.
pub fn depthwise_conv2d_compute(
    data: &Tensor,
    weight: &Tensor,
    w: &DepthwiseConv2dWorkload,
) -> Conv2dOp {
    let (data, weight) = (data.clone(), weight.clone());
    let (src, pad) = if w.pad > 0 {
        let p = pad_spatial(&data, w.pad, "data_pad");
        (p.clone(), Some(p))
    } else {
        (data.clone(), None)
    };
    let rh = reduce_axis(w.kernel, "rh");
    let rw = reduce_axis(w.kernel, "rw");
    let o = w.out_size();
    let stride = w.stride;
    let out = compute(&[w.batch, w.channels, o, o], "dwconv", |i| {
        sum(
            src.at(&[
                i[0].clone(),
                i[1].clone(),
                i[2].clone() * stride + rh.expr(),
                i[3].clone() * stride + rw.expr(),
            ]) * weight.at(&[i[1].clone(), rh.expr(), rw.expr()]),
            &[rh.clone(), rw.clone()],
        )
    });
    Conv2dOp {
        data,
        weight,
        pad,
        out,
        tail: None,
    }
}

/// Declares a transposed convolution (DCGAN's generator op) by zero-
/// inserting the input ("fractional stride") then running a unit-stride
/// convolution with the spatially flipped kernel access pattern.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_transpose(
    batch: i64,
    in_c: i64,
    in_size: i64,
    out_c: i64,
    kernel: i64,
    stride: i64,
    out_pad: i64,
    dtype: DType,
) -> Conv2dOp {
    let data = placeholder(&[batch, in_c, in_size, in_size], dtype, "data");
    let weight = placeholder(&[out_c, in_c, kernel, kernel], dtype, "weight");
    conv2d_transpose_compute(
        &data, &weight, batch, in_c, in_size, out_c, kernel, stride, out_pad,
    )
}

/// The unit-stride convolution a transposed convolution runs over its
/// dilated, padded input: the workload whose conv2d schedule space fits it.
pub fn conv2d_transpose_as_conv(
    batch: i64,
    in_c: i64,
    in_size: i64,
    out_c: i64,
    kernel: i64,
    stride: i64,
    out_pad: i64,
) -> Conv2dWorkload {
    let pad = kernel - 1 - out_pad;
    Conv2dWorkload {
        batch,
        size: (in_size - 1) * stride + 1 + 2 * pad,
        in_c,
        out_c,
        kernel,
        stride: 1,
        pad: 0,
    }
}

/// Transposed convolution over existing tensors.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_transpose_compute(
    data: &Tensor,
    weight: &Tensor,
    batch: i64,
    in_c: i64,
    in_size: i64,
    out_c: i64,
    kernel: i64,
    stride: i64,
    out_pad: i64,
) -> Conv2dOp {
    let dtype = data.dtype();
    let (data, weight) = (data.clone(), weight.clone());
    // Dilate-and-pad stage; output size = (in-1)*stride - 2*out_pad + kernel.
    let pad = kernel - 1 - out_pad;
    let as_conv = conv2d_transpose_as_conv(batch, in_c, in_size, out_c, kernel, stride, out_pad);
    let (dil_size, out_size) = (as_conv.size, as_conv.out_size());
    let dil = compute(&[batch, in_c, dil_size, dil_size], "data_dilate", |i| {
        let ih = i[2].clone() - pad;
        let iw = i[3].clone() - pad;
        let on_grid = (ih.clone() % stride)
            .eq(Expr::int(0))
            .and((iw.clone() % stride).eq(Expr::int(0)))
            .and(ih.clone().ge(Expr::int(0)))
            .and(ih.clone().lt(Expr::int((in_size - 1) * stride + 1)))
            .and(iw.clone().ge(Expr::int(0)))
            .and(iw.clone().lt(Expr::int((in_size - 1) * stride + 1)));
        Expr::select(
            on_grid,
            data.at(&[i[0].clone(), i[1].clone(), ih / stride, iw / stride]),
            Expr::zero(dtype),
        )
    });
    let rc = reduce_axis(in_c, "rc");
    let rh = reduce_axis(kernel, "rh");
    let rw = reduce_axis(kernel, "rw");
    let dil2 = dil.clone();
    let out = compute(&[batch, out_c, out_size, out_size], "convt", |i| {
        sum(
            dil2.at(&[
                i[0].clone(),
                rc.expr(),
                i[2].clone() + rh.expr(),
                i[3].clone() + rw.expr(),
            ]) * weight.at(&[
                i[1].clone(),
                rc.expr(),
                Expr::int(kernel - 1) - rh.expr(),
                Expr::int(kernel - 1) - rw.expr(),
            ]),
            &[rc.clone(), rh.clone(), rw.clone()],
        )
    });
    Conv2dOp {
        data,
        weight,
        pad: Some(dil),
        out,
        tail: None,
    }
}

/// Declares a dense layer `out[m, n] = sum_k data[m, k] * w[n, k]`.
pub fn dense(w: &DenseWorkload) -> (Tensor, Tensor, Tensor) {
    let data = placeholder(&[w.m, w.k], w.dtype, "data");
    let weight = placeholder(&[w.n, w.k], w.dtype, "weight");
    let out = dense_compute(&data, &weight, w);
    (data, weight, out)
}

/// Dense layer over existing tensors.
pub fn dense_compute(data: &Tensor, weight: &Tensor, w: &DenseWorkload) -> Tensor {
    let (data, weight) = (data.clone(), weight.clone());
    let r = reduce_axis(w.k, "k");
    compute(&[w.m, w.n], "dense", |i| {
        sum(
            data.at(&[i[0].clone(), r.expr()]) * weight.at(&[i[1].clone(), r.expr()]),
            std::slice::from_ref(&r),
        )
    })
}

/// Row-major reshape (same element count).
pub fn reshape(x: &Tensor, shape: &[i64]) -> Tensor {
    assert_eq!(
        x.numel(),
        shape.iter().product::<i64>(),
        "reshape must preserve size"
    );
    let xs = x.clone();
    let in_shape = x.shape().to_vec();
    compute(shape, "reshape", |i| {
        // Flatten the output index, then unflatten into the input shape.
        let mut flat = i[0].clone();
        for (d, idx) in i.iter().enumerate().skip(1) {
            flat = flat * shape[d] + idx.clone();
        }
        let mut in_idx: Vec<Expr> = vec![Expr::int(0); in_shape.len()];
        let mut rem = flat;
        for d in (0..in_shape.len()).rev() {
            if d == 0 {
                in_idx[d] = rem.clone();
            } else {
                in_idx[d] = rem.clone() % in_shape[d];
                rem = rem / in_shape[d];
            }
        }
        xs.at(&in_idx)
    })
}

/// Element-wise ReLU.
pub fn relu(x: &Tensor) -> Tensor {
    let xs = x.clone();
    let idx_shape = x.shape().to_vec();
    compute(&idx_shape, "relu", |i| xs.at(i).max(Expr::zero(xs.dtype())))
}

/// Adds a per-channel bias to a `[n, c, h, w]` tensor.
pub fn bias_add(x: &Tensor, bias: &Tensor) -> Tensor {
    let (xs, bs) = (x.clone(), bias.clone());
    compute(x.shape(), "bias_add", |i| xs.at(i) + bs.at(&[i[1].clone()]))
}

/// Inference-mode batch norm folded into per-channel scale and shift.
pub fn batch_norm(x: &Tensor, scale: &Tensor, shift: &Tensor) -> Tensor {
    let (xs, sc, sh) = (x.clone(), scale.clone(), shift.clone());
    compute(x.shape(), "bn", |i| {
        xs.at(i) * sc.at(&[i[1].clone()]) + sh.at(&[i[1].clone()])
    })
}

/// Element-wise addition of same-shape tensors (residual connections).
pub fn add(a: &Tensor, b: &Tensor) -> Tensor {
    let (x, y) = (a.clone(), b.clone());
    compute(a.shape(), "add", |i| x.at(i) + y.at(i))
}

/// Element-wise multiply.
pub fn multiply(a: &Tensor, b: &Tensor) -> Tensor {
    let (x, y) = (a.clone(), b.clone());
    compute(a.shape(), "mul", |i| x.at(i) * y.at(i))
}

/// Element-wise hyperbolic tangent.
pub fn tanh_t(x: &Tensor) -> Tensor {
    let xs = x.clone();
    compute(x.shape(), "tanh", |i| {
        Expr::call("tanh", vec![xs.at(i)], xs.dtype())
    })
}

/// Element-wise logistic sigmoid.
pub fn sigmoid_t(x: &Tensor) -> Tensor {
    let xs = x.clone();
    compute(x.shape(), "sigmoid", |i| {
        Expr::call("sigmoid", vec![xs.at(i)], xs.dtype())
    })
}

/// Row-wise softmax of a 2-D tensor, numerically stabilized.
pub fn softmax(x: &Tensor) -> Tensor {
    let (m, n) = (x.shape()[0], x.shape()[1]);
    let xs = x.clone();
    let r = reduce_axis(n, "sm_max_k");
    let mx = compute(&[m], "sm_max", |i| {
        max_reduce(xs.at(&[i[0].clone(), r.expr()]), std::slice::from_ref(&r))
    });
    let xs2 = x.clone();
    let mx2 = mx.clone();
    let ex = compute(&[m, n], "sm_exp", |i| {
        Expr::call(
            "exp",
            vec![xs2.at(i) - mx2.at(&[i[0].clone()])],
            xs2.dtype(),
        )
    });
    let r2 = reduce_axis(n, "sm_sum_k");
    let ex2 = ex.clone();
    let s = compute(&[m], "sm_sum", |i| {
        sum(
            ex2.at(&[i[0].clone(), r2.expr()]),
            std::slice::from_ref(&r2),
        )
    });
    let (ex3, s2) = (ex, s);
    compute(&[m, n], "softmax", |i| ex3.at(i) / s2.at(&[i[0].clone()]))
}

/// 2-D max pooling with square window and stride. Border handling is a
/// predicated read inside the reduction (no separate padding stage, so the
/// operator is a single self-contained kernel).
pub fn max_pool2d(x: &Tensor, window: i64, stride: i64, pad: i64) -> Tensor {
    let s = x.shape().to_vec();
    let (h, w) = (s[2], s[3]);
    let dtype = x.dtype();
    let o = (h + 2 * pad - window) / stride + 1;
    let rh = reduce_axis(window, "ph");
    let rw = reduce_axis(window, "pw");
    let xs = x.clone();
    compute(&[s[0], s[1], o, o], "max_pool", |i| {
        let ih = i[2].clone() * stride + rh.expr() - pad;
        let iw = i[3].clone() * stride + rw.expr() - pad;
        let inside = ih
            .clone()
            .ge(Expr::int(0))
            .and(ih.clone().lt(Expr::int(h)))
            .and(iw.clone().ge(Expr::int(0)))
            .and(iw.clone().lt(Expr::int(w)));
        // Clamp the index so even masked lanes stay in bounds.
        let ihc = ih.max(Expr::int(0)).min(Expr::int(h - 1));
        let iwc = iw.max(Expr::int(0)).min(Expr::int(w - 1));
        let v = Expr::select(
            inside,
            xs.at(&[i[0].clone(), i[1].clone(), ihc, iwc]),
            Expr::min_value(dtype),
        );
        max_reduce(v, &[rh.clone(), rw.clone()])
    })
}

/// Global average pooling `[n, c, h, w] -> [n, c]`.
pub fn global_avg_pool(x: &Tensor) -> Tensor {
    let s = x.shape().to_vec();
    let (h, w) = (s[2], s[3]);
    let rh = reduce_axis(h, "gh");
    let rw = reduce_axis(w, "gw");
    let xs = x.clone();
    let total = compute(&[s[0], s[1]], "gap_sum", |i| {
        sum(
            xs.at(&[i[0].clone(), i[1].clone(), rh.expr(), rw.expr()]),
            &[rh.clone(), rw.clone()],
        )
    });
    let denom = (h * w) as f32;
    let t2 = total.clone();
    compute(&[s[0], s[1]], "gap", |i| t2.at(i) / Expr::f32(denom))
}

/// Flattens `[n, c, h, w]` into `[n, c*h*w]`.
pub fn flatten(x: &Tensor) -> Tensor {
    let s = x.shape().to_vec();
    let (c, h, w) = (s[1], s[2], s[3]);
    let xs = x.clone();
    compute(&[s[0], c * h * w], "flatten", |i| {
        let f = i[1].clone();
        xs.at(&[
            i[0].clone(),
            f.clone() / (h * w),
            (f.clone() / w) % h,
            f % w,
        ])
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvm_ir::Interp;
    use tvm_te::{create_schedule, lower};

    fn run(args: &[Tensor], bufs: &mut [Vec<f32>], inline_pads: &[&Tensor]) {
        let out = args.last().expect("output arg").clone();
        let mut s = create_schedule(&[out]);
        for p in inline_pads {
            s.compute_inline(p).unwrap();
        }
        let f = lower(&s, args, "op").expect("lowers");
        Interp::new()
            .run_f32(&f, bufs)
            .unwrap_or_else(|e| panic!("{e}\n{}", f.body));
    }

    #[test]
    fn conv2d_matches_reference() {
        let w = Conv2dWorkload {
            batch: 1,
            size: 8,
            in_c: 3,
            out_c: 4,
            kernel: 3,
            stride: 1,
            pad: 1,
        };
        let op = conv2d(&w, DType::float32());
        let data: Vec<f32> = (0..w.batch * w.in_c * w.size * w.size)
            .map(|i| ((i % 13) as f32) - 6.0)
            .collect();
        let wts: Vec<f32> = (0..w.out_c * w.in_c * 9)
            .map(|i| ((i % 7) as f32) * 0.5 - 1.0)
            .collect();
        let o = w.out_size() as usize;
        let mut bufs = vec![
            data.clone(),
            wts.clone(),
            vec![0.0; (w.out_c as usize) * o * o],
        ];
        let pads: Vec<&Tensor> = op.pad.iter().collect();
        run(
            &[op.data.clone(), op.weight.clone(), op.out.clone()],
            &mut bufs,
            &pads,
        );
        // Reference.
        let (ic, size, k) = (w.in_c as usize, w.size as usize, w.kernel as usize);
        for oc in 0..w.out_c as usize {
            for oy in 0..o {
                for ox in 0..o {
                    let mut acc = 0.0f32;
                    for c in 0..ic {
                        for dy in 0..k {
                            for dx in 0..k {
                                let iy = oy as i64 + dy as i64 - 1;
                                let ix = ox as i64 + dx as i64 - 1;
                                if (0..size as i64).contains(&iy) && (0..size as i64).contains(&ix)
                                {
                                    acc += data[c * size * size + iy as usize * size + ix as usize]
                                        * wts[oc * ic * 9 + c * 9 + dy * 3 + dx];
                                }
                            }
                        }
                    }
                    let got = bufs[2][oc * o * o + oy * o + ox];
                    assert!(
                        (got - acc).abs() < 1e-3,
                        "oc={oc} y={oy} x={ox}: {got} vs {acc}"
                    );
                }
            }
        }
    }

    #[test]
    fn depthwise_conv_shapes_and_values() {
        let w = DepthwiseConv2dWorkload {
            batch: 1,
            size: 6,
            channels: 2,
            kernel: 3,
            stride: 2,
            pad: 1,
        };
        let op = depthwise_conv2d(&w, DType::float32());
        assert_eq!(op.out.shape(), &[1, 2, 3, 3]);
        let data: Vec<f32> = (0..72).map(|i| i as f32 * 0.1).collect();
        let wts = vec![1.0f32; 18];
        let mut bufs = vec![data, wts, vec![0.0; 18]];
        let pads: Vec<&Tensor> = op.pad.iter().collect();
        run(
            &[op.data.clone(), op.weight.clone(), op.out.clone()],
            &mut bufs,
            &pads,
        );
        assert!(bufs[2].iter().all(|v| v.is_finite()));
        assert!(bufs[2][4] > 0.0);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let x = placeholder(&[2, 5], DType::float32(), "x");
        let sm = softmax(&x);
        let mut s = create_schedule(std::slice::from_ref(&sm));
        let stages: Vec<Tensor> = s.stages.iter().map(|st| st.tensor.clone()).collect();
        for t in &stages {
            if t.name() == "sm_exp" {
                s.compute_inline(t).unwrap();
            }
        }
        let f = lower(&s, &[x, sm], "softmax").expect("lowers");
        let mut bufs = vec![
            vec![1.0, 2.0, 3.0, 4.0, 100.0, -1.0, 0.0, 1.0, 2.0, 3.0],
            vec![0.0; 10],
        ];
        Interp::new().run_f32(&f, &mut bufs).expect("runs");
        for row in 0..2 {
            let s: f32 = bufs[1][row * 5..(row + 1) * 5].iter().sum();
            assert!((s - 1.0).abs() < 1e-4, "row {row} sums to {s}");
            assert!(bufs[1][row * 5..(row + 1) * 5]
                .iter()
                .all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn max_pool_takes_window_max() {
        let x = placeholder(&[1, 1, 4, 4], DType::float32(), "x");
        let p = max_pool2d(&x, 2, 2, 0);
        assert_eq!(p.shape(), &[1, 1, 2, 2]);
        let mut bufs = vec![(0..16).map(|v| v as f32).collect(), vec![0.0; 4]];
        run(&[x, p], &mut bufs, &[]);
        assert_eq!(bufs[1], vec![5.0, 7.0, 13.0, 15.0]);
    }

    #[test]
    fn conv2d_transpose_upsamples() {
        let op = conv2d_transpose(1, 2, 4, 3, 4, 2, 1, DType::float32());
        // (4-1)*2 + 1 + 2*(4-1-2) = 9; out = 9+2-4+1... computed shape:
        let os = op.out.shape()[2];
        assert_eq!(os, 8, "stride-2 transposed conv doubles spatial size");
        let data: Vec<f32> = (0..32).map(|i| (i as f32) * 0.25).collect();
        let wts: Vec<f32> = (0..96).map(|i| ((i % 5) as f32) - 2.0).collect();
        let mut bufs = vec![data, wts, vec![0.0; 3 * 64]];
        let pads: Vec<&Tensor> = op.pad.iter().collect();
        run(
            &[op.data.clone(), op.weight.clone(), op.out.clone()],
            &mut bufs,
            &pads,
        );
        assert!(bufs[2].iter().any(|&v| v != 0.0));
    }

    #[test]
    fn flatten_and_gap() {
        let x = placeholder(&[1, 2, 2, 2], DType::float32(), "x");
        let fl = flatten(&x);
        assert_eq!(fl.shape(), &[1, 8]);
        let mut bufs = vec![(0..8).map(|v| v as f32).collect(), vec![0.0; 8]];
        run(&[x.clone(), fl], &mut bufs, &[]);
        assert_eq!(bufs[1], (0..8).map(|v| v as f32).collect::<Vec<_>>());

        let x2 = placeholder(&[1, 2, 2, 2], DType::float32(), "x");
        let g = global_avg_pool(&x2);
        let mut s = create_schedule(std::slice::from_ref(&g));
        let stages: Vec<Tensor> = s.stages.iter().map(|st| st.tensor.clone()).collect();
        let _ = &mut s;
        let f = lower(&s, &[x2, g], "gap").expect("lowers");
        let _ = stages;
        let mut bufs = vec![(0..8).map(|v| v as f32).collect(), vec![0.0; 2]];
        Interp::new().run_f32(&f, &mut bufs).expect("runs");
        assert_eq!(bufs[1], vec![1.5, 5.5]);
    }
}
