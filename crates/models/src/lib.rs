//! `tvm-models` — the evaluation workload zoo (§6): graph builders for
//! ResNet-18, MobileNet, the Deep Q Network, the DCGAN generator and the
//! LSTM language model, matching the paper's benchmark suite.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use tvm_graph::{Conv2dWorkload, DenseWorkload, DepthwiseConv2dWorkload, Graph, NodeId, OpType};

fn conv_wl(size: i64, in_c: i64, out_c: i64, kernel: i64, stride: i64) -> Conv2dWorkload {
    Conv2dWorkload {
        batch: 1,
        size,
        in_c,
        out_c,
        kernel,
        stride,
        pad: kernel / 2,
    }
}

fn conv_bn_relu(g: &mut Graph, x: NodeId, w: Conv2dWorkload, name: &str) -> NodeId {
    let c = g.conv2d(x, w, name);
    let b = g.batch_norm(c, &format!("{name}_bn"));
    g.relu(b, &format!("{name}_relu"))
}

/// The conv-bn-relu-residual CNN the functional tests run: two padded 3x3
/// convolutions of 8 channels on a `size`x`size` RGB image, the first under
/// batch norm and ReLU, the second added to the first's activation before a
/// last ReLU.
pub fn residual_cnn(size: i64) -> Graph {
    let conv = |in_c| Conv2dWorkload {
        batch: 1,
        size,
        in_c,
        out_c: 8,
        kernel: 3,
        stride: 1,
        pad: 1,
    };
    let mut g = Graph::new();
    let x = g.input(&[1, 3, size, size], "data");
    let c1 = g.conv2d(x, conv(3), "c1");
    let b1 = g.batch_norm(c1, "b1");
    let r1 = g.relu(b1, "r1");
    let c2 = g.conv2d(r1, conv(8), "c2");
    let res = g.add_op(c2, r1, "res");
    let out = g.relu(res, "out");
    g.outputs.push(out);
    g
}

/// ResNet-18 for `input_size`-pixel images (224 matches Table 2's C1–C12
/// conv shapes exactly; smaller sizes produce a proportionally smaller
/// model for fast functional tests).
pub fn resnet18(input_size: i64) -> Graph {
    let mut g = Graph::new();
    let x = g.input(&[1, 3, input_size, input_size], "data");
    // C1: 7x7/2 stem.
    let mut cur = conv_bn_relu(&mut g, x, conv_wl(input_size, 3, 64, 7, 2), "conv1");
    let mut size = input_size / 2;
    // 3x3/2 max pool.
    cur = {
        let o = (size + 2 - 3) / 2 + 1;
        let id = g.add(
            OpType::MaxPool2d {
                window: 3,
                stride: 2,
                pad: 1,
            },
            vec![cur],
            vec![1, 64, o, o],
            "pool1",
        );
        size = o;
        id
    };
    // Four stages of two basic blocks.
    let widths = [64i64, 128, 256, 512];
    let mut in_c = 64i64;
    for (si, &w) in widths.iter().enumerate() {
        for bi in 0..2 {
            let stride = if si > 0 && bi == 0 { 2 } else { 1 };
            let name = format!("s{si}b{bi}");
            let identity = cur;
            let c1 = conv_bn_relu(
                &mut g,
                cur,
                conv_wl(size, in_c, w, 3, stride),
                &format!("{name}_c1"),
            );
            let mid = size / stride;
            let c2 = {
                let c = g.conv2d(c1, conv_wl(mid, w, w, 3, 1), &format!("{name}_c2"));
                g.batch_norm(c, &format!("{name}_c2_bn"))
            };
            // Projection shortcut on each stage's first block (this
            // variant's first stage also projects, giving Table 2's C3).
            let skip = if stride != 1 || in_c != w || bi == 0 {
                let c = g.conv2d(
                    identity,
                    conv_wl(size, in_c, w, 1, stride),
                    &format!("{name}_ds"),
                );
                g.batch_norm(c, &format!("{name}_ds_bn"))
            } else {
                identity
            };
            let sum = g.add_op(c2, skip, &format!("{name}_res"));
            cur = g.relu(sum, &format!("{name}_out"));
            in_c = w;
            size = mid;
        }
    }
    // Head.
    let gap = g.add(OpType::GlobalAvgPool, vec![cur], vec![1, 512], "gap");
    let fc = g.dense(
        gap,
        DenseWorkload {
            m: 1,
            n: 1000,
            k: 512,
            dtype: tvm_ir::DType::float32(),
        },
        "fc",
    );
    let shape = g.node(fc).shape.clone();
    let sm = g.add(OpType::Softmax, vec![fc], shape, "softmax");
    g.outputs.push(sm);
    g
}

/// MobileNet v1 (depthwise-separable blocks; D1–D9 cover the distinct
/// depthwise shapes of Table 2 at `input_size = 224`).
pub fn mobilenet(input_size: i64) -> Graph {
    let mut g = Graph::new();
    let x = g.input(&[1, 3, input_size, input_size], "data");
    let mut cur = conv_bn_relu(&mut g, x, conv_wl(input_size, 3, 32, 3, 2), "conv1");
    let mut size = input_size / 2;
    let mut in_c = 32i64;
    // (out_c, stride) per separable block.
    let blocks: [(i64, i64); 13] = [
        (64, 1),
        (128, 2),
        (128, 1),
        (256, 2),
        (256, 1),
        (512, 2),
        (512, 1),
        (512, 1),
        (512, 1),
        (512, 1),
        (512, 1),
        (1024, 2),
        (1024, 1),
    ];
    for (i, (out_c, stride)) in blocks.iter().enumerate() {
        let dw = DepthwiseConv2dWorkload {
            batch: 1,
            size,
            channels: in_c,
            kernel: 3,
            stride: *stride,
            pad: 1,
        };
        let name = format!("block{i}");
        let d = g.depthwise_conv2d(cur, dw, &format!("{name}_dw"));
        let db = g.batch_norm(d, &format!("{name}_dw_bn"));
        let dr = g.relu(db, &format!("{name}_dw_relu"));
        size = dw.out_size();
        cur = conv_bn_relu(
            &mut g,
            dr,
            conv_wl(size, in_c, *out_c, 1, 1),
            &format!("{name}_pw"),
        );
        in_c = *out_c;
    }
    let gap = g.add(OpType::GlobalAvgPool, vec![cur], vec![1, in_c], "gap");
    let fc = g.dense(
        gap,
        DenseWorkload {
            m: 1,
            n: 1000,
            k: in_c,
            dtype: tvm_ir::DType::float32(),
        },
        "fc",
    );
    let shape = g.node(fc).shape.clone();
    let sm = g.add(OpType::Softmax, vec![fc], shape, "softmax");
    g.outputs.push(sm);
    g
}

/// The Deep Q Network (Mnih et al.): its unconventional 8x8/s4 and 4x4/s2
/// convolutions are the §6.1 case where TVM beats cuDNN 3.8x.
pub fn dqn() -> Graph {
    let mut g = Graph::new();
    let x = g.input(&[1, 4, 84, 84], "data");
    let convs = tvm_graph::dqn_convs();
    let mut cur = x;
    for (i, w) in convs.iter().enumerate() {
        let c = g.conv2d(cur, *w, &format!("conv{}", i + 1));
        cur = g.relu(c, &format!("relu{}", i + 1));
    }
    let o = convs[2].out_size();
    let flat_len = 64 * o * o;
    let f = g.add(OpType::Flatten, vec![cur], vec![1, flat_len], "flatten");
    let d1 = g.dense(
        f,
        DenseWorkload {
            m: 1,
            n: 512,
            k: flat_len,
            dtype: tvm_ir::DType::float32(),
        },
        "fc1",
    );
    let r = g.relu(d1, "fc1_relu");
    let d2 = g.dense(
        r,
        DenseWorkload {
            m: 1,
            n: 18,
            k: 512,
            dtype: tvm_ir::DType::float32(),
        },
        "fc2",
    );
    g.outputs.push(d2);
    g
}

/// The DCGAN generator (Radford et al.): a dense projection followed by a
/// chain of stride-2 transposed convolutions up to 64x64 images.
pub fn dcgan_generator() -> Graph {
    let mut g = Graph::new();
    let z = g.input(&[1, 100], "z");
    let proj = g.dense(
        z,
        DenseWorkload {
            m: 1,
            n: 512 * 4 * 4,
            k: 100,
            dtype: tvm_ir::DType::float32(),
        },
        "proj",
    );
    let mut cur = g.add(OpType::Reshape, vec![proj], vec![1, 512, 4, 4], "reshape");
    let chain: [(i64, i64, i64); 4] = [(512, 256, 4), (256, 128, 8), (128, 64, 16), (64, 3, 32)];
    for (i, (in_c, out_c, in_size)) in chain.iter().enumerate() {
        let wt = g.param(&[*out_c, *in_c, 4, 4], format!("convt{i}_w"));
        let out_size = in_size * 2;
        let ct = g.add(
            OpType::Conv2dTranspose {
                in_c: *in_c,
                in_size: *in_size,
                out_c: *out_c,
                kernel: 4,
                stride: 2,
                out_pad: 1,
            },
            vec![cur, wt],
            vec![1, *out_c, out_size, out_size],
            format!("convt{i}"),
        );
        cur = if i + 1 == chain.len() {
            let shape = g.node(ct).shape.clone();
            g.add(OpType::Tanh, vec![ct], shape, "tanh_out")
        } else {
            g.relu(ct, &format!("convt{i}_relu"))
        };
    }
    g.outputs.push(cur);
    g
}

/// An unrolled LSTM language-model step stack: LSTM cells of `hidden`
/// units applied for `steps` time steps (Zaremba et al.).
pub fn lstm_lm(hidden: i64, steps: i64) -> Graph {
    let mut g = Graph::new();
    let dt = tvm_ir::DType::float32();
    let mut h = g.input(&[1, hidden], "h0");
    let mut c = g.input(&[1, hidden], "c0");
    for t in 0..steps {
        let x = g.input(&[1, hidden], format!("x{t}"));
        // Four gates, each from x and h.
        let mut gates = Vec::new();
        for gate in ["i", "f", "o", "g"] {
            let wx = g.dense(
                x,
                DenseWorkload {
                    m: 1,
                    n: hidden,
                    k: hidden,
                    dtype: dt,
                },
                &format!("t{t}_{gate}_x"),
            );
            let wh = g.dense(
                h,
                DenseWorkload {
                    m: 1,
                    n: hidden,
                    k: hidden,
                    dtype: dt,
                },
                &format!("t{t}_{gate}_h"),
            );
            let s = g.add_op(wx, wh, &format!("t{t}_{gate}_sum"));
            let shape = g.node(s).shape.clone();
            let act = if gate == "g" {
                g.add(OpType::Tanh, vec![s], shape, format!("t{t}_{gate}_act"))
            } else {
                g.add(OpType::Sigmoid, vec![s], shape, format!("t{t}_{gate}_act"))
            };
            gates.push(act);
        }
        let (i_g, f_g, o_g, g_g) = (gates[0], gates[1], gates[2], gates[3]);
        let fc = {
            let shape = g.node(c).shape.clone();
            g.add(OpType::Multiply, vec![f_g, c], shape, format!("t{t}_fc"))
        };
        let ig = {
            let shape = g.node(i_g).shape.clone();
            g.add(OpType::Multiply, vec![i_g, g_g], shape, format!("t{t}_ig"))
        };
        c = g.add_op(fc, ig, &format!("t{t}_c"));
        let ct = {
            let shape = g.node(c).shape.clone();
            g.add(OpType::Tanh, vec![c], shape, format!("t{t}_ct"))
        };
        h = {
            let shape = g.node(ct).shape.clone();
            g.add(OpType::Multiply, vec![o_g, ct], shape, format!("t{t}_h"))
        };
    }
    g.outputs.push(h);
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvm_graph::fuse;

    #[test]
    fn resnet18_has_table2_conv_shapes() {
        let g = resnet18(224);
        let expected = tvm_graph::resnet18_convs();
        for want in &expected {
            let found = g.nodes.iter().any(|n| match &n.op {
                OpType::Conv2d(w) => w == want,
                _ => false,
            });
            assert!(found, "missing conv {want:?}");
        }
        // 8 basic blocks x 2 convs + stem + 4 projection shortcuts = 21.
        let n_convs = g
            .nodes
            .iter()
            .filter(|n| matches!(n.op, OpType::Conv2d(_)))
            .count();
        assert_eq!(n_convs, 21);
    }

    #[test]
    fn mobilenet_has_table2_depthwise_shapes() {
        let g = mobilenet(224);
        for want in tvm_graph::mobilenet_dwconvs() {
            let found = g.nodes.iter().any(|n| match &n.op {
                OpType::DepthwiseConv2d(w) => *w == want,
                _ => false,
            });
            assert!(found, "missing depthwise {want:?}");
        }
    }

    #[test]
    fn dqn_output_is_action_values() {
        let g = dqn();
        assert_eq!(g.node(g.outputs[0]).shape, vec![1, 18]);
    }

    #[test]
    fn dcgan_generates_64px_images() {
        let g = dcgan_generator();
        assert_eq!(g.node(g.outputs[0]).shape, vec![1, 3, 64, 64]);
    }

    #[test]
    fn lstm_cell_counts() {
        let g = lstm_lm(128, 2);
        let denses = g
            .nodes
            .iter()
            .filter(|n| matches!(n.op, OpType::Dense(_)))
            .count();
        assert_eq!(denses, 16); // 8 per step
        assert_eq!(g.node(g.outputs[0]).shape, vec![1, 128]);
    }

    #[test]
    fn fusion_shrinks_kernel_counts() {
        let g = resnet18(32);
        let fused = fuse(&g, true);
        let unfused = fuse(&g, false);
        assert!(
            fused.groups.len() < unfused.groups.len(),
            "{} vs {}",
            fused.groups.len(),
            unfused.groups.len()
        );
        // Residual adds + relus fold into far fewer kernels.
        assert!(fused.groups.len() * 2 <= unfused.groups.len() + 4);
    }
}
