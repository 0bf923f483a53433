//! Where the flat engine's lane form engages on the models the ledger's
//! `infer_*` workloads run. On `arm_a53` every `vectorized` loop of a conv
//! kernel — its multiply-accumulate and its epilogue — compiles to lane
//! form; no `titanx` kernel has a lane loop, since GPU schedules bind
//! threads instead of vectorizing.

use tvm_graph::Graph;
use tvm_ir::{ForKind, Stmt, StmtNode, Visitor};
use tvm_serve::Model;
use tvm_sim::{arm_a53, titanx, Target};
use tvm_topi::Conv2dWorkload;

/// The conv-bn-relu-residual CNN of `tests/end_to_end.rs` on a 16x16 image.
fn residual_cnn16() -> Graph {
    let conv = |in_c| Conv2dWorkload {
        batch: 1,
        size: 16,
        in_c,
        out_c: 8,
        kernel: 3,
        stride: 1,
        pad: 1,
    };
    let mut g = Graph::new();
    let x = g.input(&[1, 3, 16, 16], "data");
    let c1 = g.conv2d(x, conv(3), "c1");
    let b1 = g.batch_norm(c1, "b1");
    let r1 = g.relu(b1, "r1");
    let c2 = g.conv2d(r1, conv(8), "c2");
    let res = g.add_op(c2, r1, "res");
    let out = g.relu(res, "out");
    g.outputs.push(out);
    g
}

fn models() -> Vec<(&'static str, Graph)> {
    vec![
        ("mlp_b1", Model::Mlp.build_graph(1)),
        ("mlp_b8", Model::Mlp.build_graph(8)),
        ("tiny_cnn_b1", Model::TinyCnn.build_graph(1)),
        ("tiny_cnn_b8", Model::TinyCnn.build_graph(8)),
        ("residual_cnn16", residual_cnn16()),
    ]
}

#[derive(Default)]
struct Vectorized(usize);

impl Visitor for Vectorized {
    fn visit_stmt(&mut self, s: &Stmt) {
        if let StmtNode::For {
            kind: ForKind::Vectorized,
            ..
        } = &*s.0
        {
            self.0 += 1;
        }
        self.walk_stmt(s);
    }
}

/// `(kernel, vectorized loops, lane loops)` of every kernel built for
/// `target`.
fn lane_loops(target: &Target) -> Vec<(String, usize, usize)> {
    let mut out = Vec::new();
    for (name, graph) in models() {
        let module = tvm::build(&graph, target, &tvm::BuildOptions::default()).expect("builds");
        for k in &module.kernels {
            let mut v = Vectorized::default();
            v.visit_stmt(&k.func.body);
            out.push((format!("{name} {}", k.name), v.0, k.program().lane_loops()));
        }
    }
    out
}

#[test]
fn every_cpu_conv_loop_that_is_vectorized_runs_in_lanes() {
    let kernels = lane_loops(&arm_a53());
    let convs: Vec<_> = kernels.iter().filter(|k| k.0.contains("conv2d")).collect();
    assert_eq!(convs.len(), 4, "{kernels:?}");
    for (kernel, vectorized, lanes) in convs {
        assert_eq!(*vectorized, 2, "{kernel}: a MAC loop and an epilogue");
        assert_eq!(lanes, vectorized, "{kernel}");
    }
}

#[test]
fn no_gpu_kernel_has_a_lane_loop() {
    for (kernel, vectorized, lanes) in lane_loops(&titanx()) {
        assert_eq!((vectorized, lanes), (0, 0), "{kernel}");
    }
}
