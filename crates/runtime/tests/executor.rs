//! Executor tests, mostly against hand-assembled modules: argument binding,
//! kernel sequencing through intermediate values, parameter override, and
//! one compiled two-branch graph whose groups must run in dependency order.

use tvm_graph::{fuse, plan_memory, Graph, OpType};
use tvm_ir::{DType, Expr, LoweredFunc, Stmt, Var};
use tvm_runtime::{CompiledGroup, GraphExecutor, Module, NDArray, RuntimeError};

/// Hand-lowers `out[i] = in[i] * k + c` as a kernel.
fn affine_kernel(n: i64, k: f32, c: f32, name: &str) -> LoweredFunc {
    let src = Var::new("src", DType::float32());
    let dst = Var::new("dst", DType::float32());
    let i = Var::int("i");
    let body = Stmt::for_(
        &i,
        0,
        n,
        Stmt::store(
            &dst,
            i.to_expr(),
            Expr::load(&src, i.to_expr()) * Expr::f32(k) + Expr::f32(c),
        ),
    );
    LoweredFunc {
        name: name.into(),
        params: vec![src, dst],
        param_dtypes: vec![DType::float32(); 2],
        param_extents: vec![n as usize; 2],
        body,
    }
}

fn two_stage_module() -> (Module, tvm_graph::NodeId) {
    // Graph: input -> relu(a) -> tanh(b); kernels are affine stand-ins so
    // the test controls the math exactly: y = (x*2+1)*3+0.
    let mut g = Graph::new();
    let x = g.input(&[1, 4], "data");
    let shape = vec![1, 4];
    let a = g.add(OpType::Relu, vec![x], shape.clone(), "a");
    let b = g.add(OpType::Tanh, vec![a], shape, "b");
    g.outputs.push(b);
    let fused = fuse(&g, false);
    let plan = plan_memory(&g, &fused);
    let kernels = vec![
        CompiledGroup {
            func: affine_kernel(4, 2.0, 1.0, "k1"),
            args: vec![x, a],
            est_ms: 0.5,
            cost: tvm_runtime::GroupCost {
                cycles: 500.0,
                flops: 8.0,
                dram_bytes: 32.0,
            },
            name: "k1".into(),
            program: Default::default(),
        },
        CompiledGroup {
            func: affine_kernel(4, 3.0, 0.0, "k2"),
            args: vec![a, b],
            est_ms: 0.25,
            cost: tvm_runtime::GroupCost {
                cycles: 250.0,
                flops: 4.0,
                dram_bytes: 16.0,
            },
            name: "k2".into(),
            program: Default::default(),
        },
    ];
    (
        Module {
            graph: g,
            fused,
            kernels,
            plan,
            target_name: "test".into(),
        },
        b,
    )
}

#[test]
fn kernels_chain_through_intermediates() {
    let (module, _out) = two_stage_module();
    let mut ex = GraphExecutor::new(module);
    ex.set_input(
        "data",
        NDArray::try_new(&[1, 4], vec![0.0, 1.0, 2.0, 3.0]).expect("shape matches data"),
    )
    .expect("bind");
    let ms = ex.run().expect("runs");
    assert!((ms - 0.75).abs() < 1e-12, "kernel times accumulate: {ms}");
    assert_eq!(
        ex.get_output(0).expect("output").data,
        vec![3.0, 9.0, 15.0, 21.0]
    );
}

#[test]
fn rerun_with_new_input_updates_output() {
    let (module, _) = two_stage_module();
    let mut ex = GraphExecutor::new(module);
    ex.set_input(
        "data",
        NDArray::try_new(&[1, 4], vec![1.0; 4]).expect("shape matches data"),
    )
    .expect("bind");
    ex.run().expect("runs");
    assert_eq!(ex.get_output(0).expect("output").data, vec![9.0; 4]);
    ex.set_input(
        "data",
        NDArray::try_new(&[1, 4], vec![0.0; 4]).expect("shape matches data"),
    )
    .expect("bind");
    ex.run().expect("runs");
    assert_eq!(ex.get_output(0).expect("output").data, vec![3.0; 4]);
}

#[test]
fn module_describe_lists_kernels() {
    // The report comes from the module alone: no executor, no run.
    let (module, _) = two_stage_module();
    let text = module.describe();
    let rows: Vec<Vec<&str>> = text
        .lines()
        .map(|l| l.split_whitespace().collect())
        .collect();
    assert_eq!(
        rows[0],
        [
            "op",
            "est_ms",
            "cycles",
            "flops",
            "dram_bytes",
            "out_bytes",
            "slot"
        ],
        "{text}"
    );
    // name, est_ms, cycles, flops, dram_bytes, out_bytes (f32 x 4), slot:
    // `a` is still live while `k2` writes `b`, so they get a slot each.
    assert_eq!(
        rows[1],
        ["k1", "0.5000", "500", "8", "32", "16", "0"],
        "{text}"
    );
    assert_eq!(
        rows[2],
        ["k2", "0.2500", "250", "4", "16", "16", "1"],
        "{text}"
    );
    assert_eq!(
        text.lines().nth(3),
        Some(
            "total: 0.7500 ms, 750 cycles over 2 ops; plan: 2 slots, 32 B planned vs 32 B unshared"
        ),
        "{text}"
    );
    assert_eq!(text.lines().count(), 4, "{text}");
}

#[test]
fn unknown_names_and_bad_output_are_typed_errors() {
    let (module, _) = two_stage_module();
    let mut ex = GraphExecutor::new(module);
    assert!(matches!(
        ex.set_input("bogus", NDArray::zeros(&[1, 4])),
        Err(RuntimeError::UnknownInput(n)) if n == "bogus"
    ));
    assert!(matches!(
        ex.set_param("bogus", NDArray::zeros(&[1, 4])),
        Err(RuntimeError::UnknownParam(n)) if n == "bogus"
    ));
    // Output requested before any run: typed error, not a panic.
    assert!(matches!(ex.get_output(0), Err(RuntimeError::NotRun(_))));
    assert!(matches!(
        ex.get_output(7),
        Err(RuntimeError::BadOutputIndex {
            index: 7,
            outputs: 1
        })
    ));
    // Running with the input still unbound is recoverable too.
    assert!(matches!(ex.run(), Err(RuntimeError::MissingInput(n)) if n == "data"));
    ex.set_input("data", NDArray::zeros(&[1, 4])).expect("bind");
    ex.run().expect("runs after the input is bound");
}

#[test]
fn interpreter_fault_names_the_kernel_and_reads_like_a_sentence() {
    // The second kernel walks twice as far as its tensors are long.
    let (mut module, _) = two_stage_module();
    module.kernels[1].func = affine_kernel(8, 3.0, 0.0, "k2");
    let mut ex = GraphExecutor::new(module);
    ex.set_input(
        "data",
        NDArray::try_new(&[1, 4], vec![1.0; 4]).expect("shape matches data"),
    )
    .expect("bind");
    let err = ex.run().unwrap_err();
    assert_eq!(
        err.to_string(),
        "interpreter fault in kernel `k2`: index 4 out of bounds for `src` (extent 4)"
    );
    let source = std::error::Error::source(&err).expect("the interpreter's error is the source");
    assert_eq!(
        source.to_string(),
        "index 4 out of bounds for `src` (extent 4)"
    );
    assert!(matches!(
        err,
        RuntimeError::Interp { ref kernel, error: tvm_ir::InterpError::OutOfBounds { index: 4, .. } }
            if kernel == "k2"
    ));
    // The fault took nothing with it: the first kernel's input and output
    // are still bound, so the same run fails the same way again.
    assert_eq!(ex.run().unwrap_err().to_string(), err.to_string());
}

#[test]
fn a_faulted_run_leaves_no_output_of_the_run_before() {
    // The second kernel gathers `dst[i] = src[src[i]]`, so whether it stays
    // in bounds depends on the input: k1 maps 0 and 1 to the indices 1 and
    // 3, and 2 to the index 5.
    let (mut module, _) = two_stage_module();
    let (src, dst, i) = (
        Var::new("src", DType::float32()),
        Var::new("dst", DType::float32()),
        Var::int("i"),
    );
    let at = Expr::load(&src, i.to_expr()).cast(DType::int32());
    module.kernels[1].func.body = Stmt::for_(
        &i,
        0,
        4,
        Stmt::store(&dst, i.to_expr(), Expr::load(&src, at)),
    );
    module.kernels[1].func.params = vec![src, dst];
    let mut ex = GraphExecutor::new(module);
    let clean = NDArray::try_new(&[1, 4], vec![0.0, 1.0, 0.0, 1.0]).expect("shape matches data");
    ex.set_input("data", clean.clone()).expect("bind");
    assert_eq!(ex.run().expect("in bounds"), 0.75);
    assert_eq!(ex.get_output(0).expect("output").data, vec![3.0; 4]);

    ex.set_input(
        "data",
        NDArray::try_new(&[1, 4], vec![0.0, 1.0, 2.0, 0.0]).expect("shape matches data"),
    )
    .expect("bind");
    let err = ex.run().unwrap_err();
    assert!(matches!(
        err,
        RuntimeError::Interp {
            error: tvm_ir::InterpError::OutOfBounds { index: 5, .. },
            ..
        }
    ));
    assert!(matches!(ex.get_output(0), Err(RuntimeError::NotRun(_))));

    // The inputs and parameters survive: the clean input runs again.
    ex.set_input("data", clean).expect("bind");
    assert_eq!(ex.run().expect("in bounds"), 0.75);
    assert_eq!(ex.get_output(0).expect("output").data, vec![3.0; 4]);
}

#[test]
fn params_are_seeded_and_overridable() {
    let mut g = Graph::new();
    let x = g.input(&[1, 2], "data");
    let p = g.param(&[1, 2], "w");
    let s = g.add_op(x, p, "sum");
    g.outputs.push(s);
    let fused = fuse(&g, false);
    let plan = plan_memory(&g, &fused);
    // One kernel: out = a + b, hand-lowered.
    let av = Var::new("a", DType::float32());
    let bv = Var::new("b", DType::float32());
    let ov = Var::new("o", DType::float32());
    let i = Var::int("i");
    let body = Stmt::for_(
        &i,
        0,
        2,
        Stmt::store(
            &ov,
            i.to_expr(),
            Expr::load(&av, i.to_expr()) + Expr::load(&bv, i.to_expr()),
        ),
    );
    let func = LoweredFunc {
        name: "add".into(),
        params: vec![av, bv, ov],
        param_dtypes: vec![DType::float32(); 3],
        param_extents: vec![2; 3],
        body,
    };
    let module = Module {
        graph: g,
        fused,
        kernels: vec![CompiledGroup {
            func,
            args: vec![x, p, s],
            est_ms: 0.1,
            cost: Default::default(),
            name: "add".into(),
            program: Default::default(),
        }],
        plan,
        target_name: "test".into(),
    };
    let mut ex = GraphExecutor::new(module);
    ex.set_input(
        "data",
        NDArray::try_new(&[1, 2], vec![10.0, 20.0]).expect("shape matches data"),
    )
    .expect("bind");
    ex.set_param(
        "w",
        NDArray::try_new(&[1, 2], vec![1.0, 2.0]).expect("shape matches data"),
    )
    .expect("bind");
    assert!(
        matches!(
            ex.set_param("w", NDArray::zeros(&[2, 2])),
            Err(RuntimeError::ShapeMismatch { .. })
        ),
        "param shapes are checked too"
    );
    ex.run().expect("runs");
    assert_eq!(ex.get_output(0).expect("output").data, vec![11.0, 22.0]);
}

/// Plain-Rust NCHW conv2d (batch 1, square), the reference for the
/// compiled residual block below.
fn conv2d_ref(x: &[f32], wt: &[f32], w: &tvm_graph::Conv2dWorkload) -> Vec<f32> {
    let (s, o, k) = (w.size, w.out_size(), w.kernel);
    let mut out = vec![0.0f32; (w.out_c * o * o) as usize];
    for oc in 0..w.out_c {
        for oy in 0..o {
            for ox in 0..o {
                let mut acc = 0.0f32;
                for ic in 0..w.in_c {
                    for ky in 0..k {
                        for kx in 0..k {
                            let (iy, ix) = (oy * w.stride + ky - w.pad, ox * w.stride + kx - w.pad);
                            if iy >= 0 && iy < s && ix >= 0 && ix < s {
                                acc += x[((ic * s + iy) * s + ix) as usize]
                                    * wt[(((oc * w.in_c + ic) * k + ky) * k + kx) as usize];
                            }
                        }
                    }
                }
                out[((oc * o + oy) * o + ox) as usize] = acc;
            }
        }
    }
    out
}

#[test]
fn compiled_residual_block_runs_and_matches_reference() {
    // ResNet's projection-shortcut block. The residual add fuses into the
    // main branch's conv group, which must still run *after* the shortcut
    // group it reads; with groups in creation order the executor failed
    // here with `MissingInput("ds_bn")`.
    let main = tvm_graph::Conv2dWorkload {
        batch: 1,
        size: 8,
        in_c: 4,
        out_c: 4,
        kernel: 3,
        stride: 1,
        pad: 1,
    };
    let proj = tvm_graph::Conv2dWorkload {
        kernel: 1,
        pad: 0,
        ..main
    };
    let mut g = Graph::new();
    let x = g.input(&[1, 4, 8, 8], "data");
    let c2 = g.conv2d(x, main, "c2");
    let c2_bn = g.batch_norm(c2, "c2_bn");
    let ds = g.conv2d(x, proj, "ds");
    let ds_bn = g.batch_norm(ds, "ds_bn");
    let sum = g.add_op(c2_bn, ds_bn, "res");
    let out = g.relu(sum, "out");
    g.outputs.push(out);

    let module =
        tvm::build(&g, &tvm::target::arm_a53(), &tvm::BuildOptions::default()).expect("builds");
    assert!(
        !module.verify().has_errors(),
        "{}",
        module.verify().render()
    );
    let mut ex = GraphExecutor::new(module);
    let input = NDArray::seeded(&[1, 4, 8, 8], 7);
    ex.set_input("data", input.clone()).expect("bind");
    ex.run()
        .expect("every group's inputs are produced before it runs");

    // Parameters take the executor's default values, seeded by node id.
    let param = |id: tvm_graph::NodeId| NDArray::seeded(&g.node(id).shape, id.0 as u64 + 1).data;
    let bn = |v: Vec<f32>, node: tvm_graph::NodeId| -> Vec<f32> {
        let (scale, shift) = (param(g.node(node).inputs[1]), param(g.node(node).inputs[2]));
        v.iter()
            .enumerate()
            .map(|(i, &e)| e * scale[i / 64] + shift[i / 64])
            .collect()
    };
    let a = bn(
        conv2d_ref(&input.data, &param(g.node(c2).inputs[1]), &main),
        c2_bn,
    );
    let b = bn(
        conv2d_ref(&input.data, &param(g.node(ds).inputs[1]), &proj),
        ds_bn,
    );
    let got = &ex.get_output(0).expect("output").data;
    assert_eq!(got.len(), a.len());
    for (i, (&got, want)) in got
        .iter()
        .zip(a.iter().zip(&b).map(|(a, b)| (a + b).max(0.0)))
        .enumerate()
    {
        assert!(
            (got - want).abs() <= 1e-4 * want.abs().max(1.0),
            "element {i}: got {got}, expected {want}"
        );
    }
}
