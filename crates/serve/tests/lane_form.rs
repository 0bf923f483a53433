//! Where the flat engine's lane form and reduce loops engage on the models
//! the ledger's `infer_*` workloads run. On `arm_a53` every `vectorized`
//! loop of a conv kernel — its multiply-accumulate and its epilogue —
//! compiles to lane form, and every dense kernel's `k.i` loop to a reduce
//! loop. No `titanx` kernel has a lane loop, because GPU schedules bind
//! threads instead of vectorizing; each thread's dot product over its
//! shared tiles, inside a barriered nest, is a reduce loop.

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

/// A kernel's loops as written and as the flat engine compiled them.
#[derive(Debug, Default)]
struct Loops {
    kernel: String,
    vectorized: usize,
    /// Loops over `k.i`, the inner half of a split dense reduction.
    k_inner: usize,
    lanes: usize,
    reduce: usize,
}

impl Visitor for Loops {
    fn visit_stmt(&mut self, s: &Stmt) {
        if let StmtNode::For { var, kind, .. } = &*s.0 {
            self.vectorized += (*kind == ForKind::Vectorized) as usize;
            self.k_inner += (var.name() == "k.i") as usize;
        }
        self.walk_stmt(s);
    }
}

/// The loops of every kernel built for `target`.
fn loops(target: &Target) -> Vec<Loops> {
    let mut out = Vec::new();
    for (name, graph) in models() {
        let module = tvm::build(&graph, target, &tvm::BuildOptions::default()).expect("builds");
        for k in &module.kernels {
            let mut l = Loops {
                kernel: format!("{name} {}", k.name),
                lanes: k.program().lane_loops(),
                reduce: k.program().reduce_loops(),
                ..Loops::default()
            };
            l.visit_stmt(&k.func.body);
            out.push(l);
        }
    }
    out
}

#[test]
fn every_cpu_conv_loop_that_is_vectorized_runs_in_lanes() {
    let kernels = loops(&arm_a53());
    let convs: Vec<_> = kernels
        .iter()
        .filter(|k| k.kernel.contains("conv2d"))
        .collect();
    assert_eq!(convs.len(), 4, "{kernels:?}");
    for k in convs {
        assert_eq!(k.vectorized, 2, "{}: a MAC loop and an epilogue", k.kernel);
        assert_eq!(k.lanes, k.vectorized, "{}", k.kernel);
    }
}

#[test]
fn every_cpu_dense_reduction_runs_as_a_reduce_loop() {
    // `fused_dense` and `fused_dense_relu` of both Mlps and the TinyCnn head.
    let kernels = loops(&arm_a53());
    let dense: Vec<_> = kernels
        .iter()
        .filter(|k| k.kernel.contains("dense"))
        .collect();
    assert_eq!(dense.len(), 6, "{kernels:?}");
    for k in dense {
        assert_eq!(k.k_inner, 1, "{}: one split reduction", k.kernel);
        assert_eq!(k.reduce, k.k_inner, "{}", k.kernel);
    }
}

#[test]
fn no_gpu_kernel_has_a_lane_loop() {
    for k in loops(&titanx()) {
        assert_eq!((k.vectorized, k.lanes), (0, 0), "{}", k.kernel);
    }
}

#[test]
fn every_gpu_dense_and_conv_reduction_runs_as_a_reduce_loop() {
    let kernels = loops(&titanx());
    let reductions: Vec<_> = kernels
        .iter()
        .filter(|k| k.kernel.contains("dense") || k.kernel.contains("conv2d"))
        .collect();
    assert_eq!(reductions.len(), 10, "{kernels:?}");
    for k in reductions {
        assert!(k.reduce > 0, "{}", k.kernel);
    }
}
