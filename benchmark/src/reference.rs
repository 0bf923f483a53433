//! A plain-Rust evaluator of a computational graph, written against the
//! operator definitions and sharing no code with the compiler, the lowering
//! or the interpreter: the expected outputs of the inference workloads.

use tvm_graph::{Graph, NodeId, OpType};
use tvm_runtime::NDArray;

/// Evaluates every node. Parameters take the executor's default seeded
/// values (`NDArray::seeded(shape, id + 1)`); `inputs` binds input nodes by
/// name. Returns one value per node, indexed by node id.
pub fn eval_all(g: &Graph, inputs: &[(&str, &[f32])]) -> Result<Vec<Vec<f32>>, String> {
    let mut vals: Vec<Vec<f32>> = Vec::with_capacity(g.nodes.len());
    for n in &g.nodes {
        let arg = |i: usize| -> &Vec<f32> { &vals[n.inputs[i].0] };
        let in_shape = |i: usize| -> &Vec<i64> { &g.node(n.inputs[i]).shape };
        let v = match &n.op {
            OpType::Input => inputs
                .iter()
                .find(|(name, _)| *name == n.name)
                .map(|(_, d)| d.to_vec())
                .ok_or_else(|| format!("input `{}` not bound", n.name))?,
            OpType::Param => NDArray::seeded(&n.shape, n.id.0 as u64 + 1).data,
            OpType::Conv2d(w) => conv2d(
                arg(0),
                arg(1),
                [w.batch, w.in_c, w.size, w.out_c, w.kernel, w.stride, w.pad],
            ),
            OpType::Dense(w) => dense(arg(0), arg(1), w.m, w.n, w.k),
            OpType::Relu => arg(0).iter().map(|&x| x.max(0.0)).collect(),
            OpType::BatchNorm => {
                let s = in_shape(0);
                let (c, hw) = (s[1] as usize, s[2..].iter().product::<i64>() as usize);
                let (scale, shift) = (arg(1), arg(2));
                arg(0)
                    .iter()
                    .enumerate()
                    .map(|(i, &x)| {
                        let ch = (i / hw) % c;
                        x * scale[ch] + shift[ch]
                    })
                    .collect()
            }
            OpType::Add => arg(0).iter().zip(arg(1)).map(|(a, b)| a + b).collect(),
            OpType::MaxPool2d {
                window,
                stride,
                pad,
            } => max_pool(arg(0), in_shape(0), *window, *stride, *pad),
            OpType::Flatten => arg(0).clone(),
            OpType::Softmax => softmax(arg(0), n.shape[1] as usize),
            other => return Err(format!("reference evaluator has no `{}`", other.name())),
        };
        let want = n.shape.iter().product::<i64>() as usize;
        if v.len() != want {
            return Err(format!(
                "`{}`: {} elements, shape implies {want}",
                n.name,
                v.len()
            ));
        }
        vals.push(v);
    }
    Ok(vals)
}

/// The graph outputs of [`eval_all`].
pub fn eval(g: &Graph, inputs: &[(&str, &[f32])]) -> Result<Vec<Vec<f32>>, String> {
    let vals = eval_all(g, inputs)?;
    Ok(g.outputs.iter().map(|&NodeId(i)| vals[i].clone()).collect())
}

/// First index where `got` is further from `want` than `rel` times
/// `max(|want|, 1)`, or a length mismatch.
pub fn first_mismatch(got: &[f32], want: &[f32], rel: f32) -> Option<String> {
    if got.len() != want.len() {
        return Some(format!("{} elements, expected {}", got.len(), want.len()));
    }
    got.iter().zip(want).enumerate().find_map(|(i, (&g, &w))| {
        let ok = (g - w).abs() <= rel * w.abs().max(1.0);
        (!ok).then(|| format!("element {i}: got {g}, expected {w}"))
    })
}

/// NCHW data, OIHW weights, zero padding; `dims` is
/// `[batch, in_c, size, out_c, kernel, stride, pad]`.
fn conv2d(data: &[f32], weight: &[f32], dims: [i64; 7]) -> Vec<f32> {
    let [n, ic, size, oc, k, stride, pad] = dims;
    let o = (size + 2 * pad - k) / stride + 1;
    let mut out = vec![0.0f32; (n * oc * o * o) as usize];
    for b in 0..n {
        for co in 0..oc {
            for oy in 0..o {
                for ox in 0..o {
                    let mut acc = 0.0f64;
                    for ci in 0..ic {
                        for ky in 0..k {
                            for kx in 0..k {
                                let (iy, ix) = (oy * stride + ky - pad, ox * stride + kx - pad);
                                if iy < 0 || iy >= size || ix < 0 || ix >= size {
                                    continue;
                                }
                                let d = data[(((b * ic + ci) * size + iy) * size + ix) as usize];
                                let w = weight[(((co * ic + ci) * k + ky) * k + kx) as usize];
                                acc += f64::from(d) * f64::from(w);
                            }
                        }
                    }
                    out[(((b * oc + co) * o + oy) * o + ox) as usize] = acc as f32;
                }
            }
        }
    }
    out
}

/// `out[m, n] = sum_k data[m, k] * weight[n, k]`.
fn dense(data: &[f32], weight: &[f32], m: i64, n: i64, k: i64) -> Vec<f32> {
    let (m, n, k) = (m as usize, n as usize, k as usize);
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let acc: f64 = (0..k)
                .map(|r| f64::from(data[i * k + r]) * f64::from(weight[j * k + r]))
                .sum();
            out[i * n + j] = acc as f32;
        }
    }
    out
}

fn max_pool(x: &[f32], shape: &[i64], window: i64, stride: i64, pad: i64) -> Vec<f32> {
    let (nc, h, w) = (shape[0] * shape[1], shape[2], shape[3]);
    let o = (h + 2 * pad - window) / stride + 1;
    let mut out = Vec::with_capacity((nc * o * o) as usize);
    for p in 0..nc {
        for oy in 0..o {
            for ox in 0..o {
                let mut best = f32::MIN;
                for ky in 0..window {
                    for kx in 0..window {
                        let (iy, ix) = (oy * stride + ky - pad, ox * stride + kx - pad);
                        if iy >= 0 && iy < h && ix >= 0 && ix < w {
                            best = best.max(x[((p * h + iy) * w + ix) as usize]);
                        }
                    }
                }
                out.push(best);
            }
        }
    }
    out
}

fn softmax(x: &[f32], cols: usize) -> Vec<f32> {
    x.chunks(cols)
        .flat_map(|row| {
            let mx = row.iter().copied().fold(f32::MIN, f32::max);
            let ex: Vec<f64> = row.iter().map(|&v| f64::from(v - mx).exp()).collect();
            let sum: f64 = ex.iter().sum();
            ex.into_iter().map(move |e| (e / sum) as f32)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvm_topi::{Conv2dWorkload, DenseWorkload};

    #[test]
    fn conv2d_matches_a_hand_computed_case() {
        // 1x1x3x3 input, one 2x2 filter of ones, stride 1, no padding:
        // each output is the sum of a 2x2 window.
        let data: Vec<f32> = (1..=9).map(|v| v as f32).collect();
        let out = conv2d(&data, &[1.0; 4], [1, 1, 3, 1, 2, 1, 0]);
        assert_eq!(out, vec![12.0, 16.0, 24.0, 28.0]);
        // With padding 1 the corner output sees only the corner pixel.
        let padded = conv2d(&data, &[1.0; 4], [1, 1, 3, 1, 2, 1, 1]);
        assert_eq!(padded.len(), 16);
        assert_eq!(padded[0], 1.0);
        assert_eq!(padded[15], 9.0);
    }

    #[test]
    fn dense_pool_softmax_by_hand() {
        // data [1,2], weight rows [3,4] and [5,6] -> [11, 17].
        assert_eq!(
            dense(&[1.0, 2.0], &[3.0, 4.0, 5.0, 6.0], 1, 2, 2),
            vec![11.0, 17.0]
        );
        let x: Vec<f32> = (0..16).map(|v| v as f32).collect();
        assert_eq!(
            max_pool(&x, &[1, 1, 4, 4], 2, 2, 0),
            vec![5.0, 7.0, 13.0, 15.0]
        );
        let p = softmax(&[0.0, 0.0, 1.0, 1.0], 2);
        assert_eq!(p, vec![0.5; 4]);
        let q = softmax(&[0.0, (2.0f32).ln()], 2);
        assert!((q[0] - 1.0 / 3.0).abs() < 1e-6 && (q[1] - 2.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn graph_walk_binds_inputs_and_seeded_params() {
        let mut g = Graph::new();
        let x = g.input(&[1, 2, 4, 4], "data");
        let c = g.conv2d(
            x,
            Conv2dWorkload {
                batch: 1,
                size: 4,
                in_c: 2,
                out_c: 3,
                kernel: 3,
                stride: 1,
                pad: 1,
            },
            "c",
        );
        let b = g.batch_norm(c, "bn");
        let r = g.relu(b, "r");
        let s = g.add_op(r, r, "twice");
        let f = g.add(OpType::Flatten, vec![s], vec![1, 48], "flat");
        let d = g.dense(
            f,
            DenseWorkload {
                m: 1,
                n: 5,
                k: 48,
                dtype: tvm_ir::DType::float32(),
            },
            "fc",
        );
        let sm = g.add(OpType::Softmax, vec![d], vec![1, 5], "prob");
        g.outputs.push(sm);
        let input = NDArray::seeded(&[1, 2, 4, 4], 3).data;
        let vals = eval_all(&g, &[("data", &input)]).expect("evaluates");
        // The conv weight is node 1: the executor seeds it with id + 1.
        assert_eq!(vals[1], NDArray::seeded(&[3, 2, 3, 3], 2).data);
        assert!(vals[r.0].iter().all(|&v| v >= 0.0));
        assert_eq!(vals[s.0][7], 2.0 * vals[r.0][7]);
        let out = eval(&g, &[("data", &input)]).expect("evaluates");
        assert!((out[0].iter().sum::<f32>() - 1.0).abs() < 1e-5);
        assert!(eval(&g, &[]).is_err(), "unbound input must be an error");
        assert!(first_mismatch(&[1.0, 2.0], &[1.0, 2.00001], 1e-4).is_none());
        assert!(first_mismatch(&[1.0, 2.1], &[1.0, 2.0], 1e-4).is_some());
    }
}
