//! Where the flat engine's reduce nests engage on the models the ledger's
//! `infer_*` workloads run. On `arm_a53` every conv kernel's
//! multiply-accumulate — five perfectly nested loops around a padded
//! `conv += data * w` — is one reduce nest with a guarded factor, and its
//! `vectorized` epilogue is no nest: it runs as scalar code. Every dense
//! kernel's split reduction is one reduce nest over `k.o × k.i`. No
//! `titanx` kernel has a `vectorized` loop, because GPU schedules bind
//! threads instead of vectorizing; each thread's reduction over its shared
//! tiles, inside a barriered nest, is one reduce nest: `rh × rw × rc.i` in
//! a conv kernel. Every dense nest on both targets and every `titanx` conv
//! nest keeps its sum in a register; no `arm_a53` conv nest does. Every
//! integer `//` and `%` in these kernels is by a positive constant, and
//! none runs as a hardware divide. The lanes of every `titanx` barriered
//! nest share one register window and each keeps only a handful of
//! registers of its own.

use tvm_graph::Graph;
use tvm_ir::{BinOp, Expr, ExprNode, ForKind, Stmt, StmtNode, Visitor};
use tvm_serve::Model;
use tvm_sim::{arm_a53, titanx, Target};

fn models() -> Vec<(&'static str, Graph)> {
    vec![
        ("mlp_b1", Model::Mlp.build_graph(1)),
        ("mlp_b8", Model::Mlp.build_graph(8)),
        ("tiny_cnn_b1", Model::TinyCnn.build_graph(1)),
        ("tiny_cnn_b8", Model::TinyCnn.build_graph(8)),
        ("residual_cnn16", tvm_models::residual_cnn(16)),
    ]
}

/// A kernel's loops as written and as the flat engine compiled them.
#[derive(Debug, Default)]
struct Loops {
    kernel: String,
    vectorized: usize,
    /// Loops over `k.o` and `k.i`, the halves of a split dense reduction.
    k_outer: usize,
    k_inner: usize,
    /// Loop levels of each reduce nest.
    nests: Vec<usize>,
    guarded: usize,
    /// Reduce nests that keep their sum in a register.
    register_sums: usize,
}

impl Visitor for Loops {
    fn visit_stmt(&mut self, s: &Stmt) {
        if let StmtNode::For { var, kind, .. } = &*s.0 {
            self.vectorized += (*kind == ForKind::Vectorized) as usize;
            self.k_outer += (var.name() == "k.o") as usize;
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
            let program = k.program();
            let mut l = Loops {
                kernel: format!("{name} {}", k.name),
                nests: program.reduce_depths(),
                guarded: program.guarded_factors(),
                register_sums: program.register_sums(),
                ..Loops::default()
            };
            assert_eq!(program.reduce_loops(), l.nests.len());
            l.visit_stmt(&k.func.body);
            out.push(l);
        }
    }
    out
}

#[test]
fn every_cpu_conv_accumulation_runs_as_one_depth_five_nest() {
    let kernels = loops(&arm_a53());
    let convs: Vec<_> = kernels
        .iter()
        .filter(|k| k.kernel.contains("conv2d"))
        .collect();
    assert_eq!(convs.len(), 4, "{kernels:?}");
    for k in convs {
        // `rh, rw, rc.i, conv_i1, conv_i3`, the data read under its
        // padding guard.
        assert_eq!((&k.nests[..], k.guarded), (&[5][..], 1), "{}", k.kernel);
        assert_eq!(k.register_sums, 0, "{}: its sum moves", k.kernel);
        // Two `vectorized` loops, and one nest: the MAC loop is its
        // innermost level, the epilogue is in no nest.
        assert_eq!(k.vectorized, 2, "{}: a MAC loop and an epilogue", k.kernel);
        assert_eq!(k.nests.len(), 1, "{}: the epilogue is no nest", k.kernel);
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
    assert!(dense.iter().any(|k| k.k_outer == 1), "{dense:?}");
    for k in dense {
        assert_eq!(k.k_inner, 1, "{}: one split reduction", k.kernel);
        // `k.o × k.i` where the reduction is split in two, `k.i` alone
        // where it fits one tile.
        assert_eq!(k.nests, [1 + k.k_outer], "{}", k.kernel);
        assert_eq!((k.guarded, k.register_sums), (0, 1), "{}", k.kernel);
    }
}

#[test]
fn no_gpu_kernel_has_a_vectorized_loop() {
    for k in loops(&titanx()) {
        assert_eq!(k.vectorized, 0, "{}", k.kernel);
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
        // A conv thread's `rh × rw × rc.i` over its shared tiles; a dense
        // thread's `k.i`. Each keeps its thread's sum in a register.
        let depth = if k.kernel.contains("conv2d") { 3 } else { 1 };
        assert_eq!(
            (&k.nests[..], k.register_sums),
            (&[depth][..], 1),
            "{}",
            k.kernel
        );
    }
}

/// Integer `//` and `%` in a kernel's body.
#[derive(Default)]
struct Divides(usize);

impl Visitor for Divides {
    fn visit_expr(&mut self, e: &Expr) {
        if let ExprNode::Binary {
            op: BinOp::Div | BinOp::Mod,
            a,
            ..
        } = &*e.0
        {
            self.0 += !a.dtype().is_float() as usize;
        }
        self.walk_expr(e);
    }
}

#[test]
fn no_kernel_divides_by_a_constant_in_hardware() {
    // The `infer_*` models, `infer_gpu_sched`'s 8x8 CNN among them, on both
    // targets: every divisor is a tile constant, a multiply-high and a
    // shift.
    let mut graphs = models();
    graphs.push(("residual_cnn8", tvm_models::residual_cnn(8)));
    let mut divides = 0;
    for target in [arm_a53(), titanx()] {
        for (name, graph) in &graphs {
            let module = tvm::build(graph, &target, &tvm::BuildOptions::default()).expect("builds");
            for k in &module.kernels {
                let mut d = Divides::default();
                d.visit_stmt(&k.func.body);
                divides += d.0;
                let at = format!("{name} {} on {}", k.name, target.name());
                assert_eq!(k.program().hardware_divides(), 0, "{at}");
            }
        }
    }
    assert!(divides > 100, "only {divides} divisions to check");
}

#[test]
fn every_gpu_lane_keeps_only_the_registers_that_live_across_a_barrier() {
    // `(window, kept)` of each barriered nest in each `titanx` kernel of the
    // three `infer_gpu_sched` models: the lanes share the window and each
    // keeps a row of its own of the registers it writes that live across a
    // barrier: its thread axes, and the few values it computes before one
    // barrier and reads after it (a dense lane's `k.o` counter among them).
    // The kernels without a barrier have no such nest.
    let want: [(&str, &[(usize, usize)]); 9] = [
        ("mlp_b1 fused_dense_relu", &[(35, 8)]),
        ("mlp_b1 fused_dense", &[(35, 4)]),
        ("mlp_b1 fused_softmax", &[]),
        ("tiny_cnn_b1 fused_conv2d_relu", &[(101, 4)]),
        ("tiny_cnn_b1 fused_max_pool2d_flatten", &[]),
        ("tiny_cnn_b1 fused_dense", &[(36, 4)]),
        ("tiny_cnn_b1 fused_softmax", &[]),
        ("residual_cnn8 fused_conv2d_batch_norm_relu", &[(105, 4)]),
        ("residual_cnn8 fused_conv2d_add_relu", &[(99, 4)]),
    ];
    let models = [
        ("mlp_b1", Model::Mlp.build_graph(1)),
        ("tiny_cnn_b1", Model::TinyCnn.build_graph(1)),
        ("residual_cnn8", tvm_models::residual_cnn(8)),
    ];
    let mut got = Vec::new();
    for (name, graph) in models {
        let module = tvm::build(&graph, &titanx(), &tvm::BuildOptions::default()).expect("builds");
        for k in &module.kernels {
            got.push((format!("{name} {}", k.name), k.program().lane_registers()));
        }
    }
    let want: Vec<(String, Vec<(usize, usize)>)> = want
        .iter()
        .map(|(k, r)| (k.to_string(), r.to_vec()))
        .collect();
    assert_eq!(got, want);
}
