//! Golden-file tests for the graph-layer verifiers, mirroring the
//! loop-IR suite in `tvm-analysis/tests/known_bad.rs`: known-bad
//! `(graph, fusion, plan)` triples whose diagnostics are pinned, plus the
//! invariant that renders are stable across runs (diagnostics name nodes
//! and slots by display name and index, never by internal id).
//!
//! Regenerate after an intentional diagnostic change with
//!
//! ```text
//! TVM_REGEN_GOLDEN=1 cargo test -p tvm-graph --test known_bad
//! ```
//!
//! and review the `.expected` diff like any other code change.

use std::path::Path;

use tvm_graph::verify::{check_fusion, check_memplan, check_slot_contracts, KernelView};
use tvm_graph::{fuse, plan_memory, verify_build, Conv2dWorkload, Graph};
use tvm_ir::{DType, Expr, ForKind, LoweredFunc, Stmt, StmtNode, ThreadTag, Var};

fn check_golden(name: &str, actual: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("TVM_REGEN_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir");
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {}: {e}\nrun with TVM_REGEN_GOLDEN=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        actual.trim_end(),
        expected.trim_end(),
        "\ndiagnostics for `{name}` changed; if intentional, regenerate with \
         TVM_REGEN_GOLDEN=1 and review the diff"
    );
}

fn conv_chain(n: usize) -> Graph {
    let mut g = Graph::new();
    let mut x = g.input(&[1, 8, 8, 8], "data");
    for i in 0..n {
        let w = Conv2dWorkload {
            batch: 1,
            size: 8,
            in_c: 8,
            out_c: 8,
            kernel: 3,
            stride: 1,
            pad: 1,
        };
        x = g.conv2d(x, w, &format!("conv{i}"));
        x = g.relu(x, &format!("relu{i}"));
    }
    g.outputs.push(x);
    g
}

/// Every materialized tensor forced into slot 0: live ranges overlap and
/// each collision is refuted with the exact op index.
#[test]
fn overlapping_liveness_is_refuted() {
    let g = conv_chain(3);
    let fused = fuse(&g, true);
    let mut plan = plan_memory(&g, &fused);
    for s in plan.storage_of.iter_mut().filter(|s| **s != usize::MAX) {
        *s = 0;
    }
    let report = check_memplan(&g, &fused, &plan);
    assert!(report.has_errors());
    assert!(report
        .errors()
        .all(|d| d.message.contains("aliases two live tensors")));
    assert!(report
        .errors()
        .all(|d| d.witness.as_deref().unwrap_or("").starts_with("at op ")));
    check_golden("overlapping_liveness.expected", &report.render());
}

/// A fused group whose intermediate is read by an op outside the group:
/// the intermediate would never materialize, so the fusion is illegal.
#[test]
fn external_consumer_of_intermediate_is_flagged() {
    let mut g = Graph::new();
    let x = g.input(&[1, 4, 4, 4], "data");
    let w = Conv2dWorkload {
        batch: 1,
        size: 4,
        in_c: 4,
        out_c: 4,
        kernel: 3,
        stride: 1,
        pad: 1,
    };
    let c = g.conv2d(x, w, "conv");
    let r = g.relu(c, "relu");
    let t = g.relu(c, "tap");
    g.outputs.push(r);
    g.outputs.push(t);
    let mut fused = fuse(&g, true);
    // The rule-following optimizer keeps `conv` alone because of the
    // second consumer; splice `relu` into its group to build the
    // known-bad grouping the checker must reject.
    let cg = fused.group_of[c.0];
    let rg = fused.group_of[r.0];
    assert_ne!(cg, rg);
    let relu_group = fused.groups.remove(rg);
    fused.groups[cg].nodes.extend(relu_group.nodes.clone());
    fused.groups[cg].output = relu_group.output;
    for &m in &relu_group.nodes {
        fused.group_of[m.0] = cg;
    }
    for gi in fused.group_of.iter_mut() {
        if *gi != usize::MAX && *gi > rg {
            *gi -= 1;
        }
    }
    let report = check_fusion(&g, &fused);
    assert!(report.has_errors());
    assert!(report
        .errors()
        .any(|d| d.message.contains("outside the group")));
    check_golden("external_consumer.expected", &report.render());
}

/// Groups listed out of dependency order: the executor would run a
/// consumer before its producer and the plan's liveness would be wrong.
#[test]
fn permuted_group_order_is_rejected() {
    let g = conv_chain(2);
    let mut fused = fuse(&g, true);
    assert!(!check_fusion(&g, &fused).has_errors());
    fused.groups.swap(0, 1);
    for gi in fused.group_of.iter_mut().filter(|gi| **gi != usize::MAX) {
        *gi = 1 - *gi;
    }
    let report = check_fusion(&g, &fused);
    assert!(report.has_errors());
    assert!(report
        .errors()
        .all(|d| d.message.contains("before group 1 produces it")));
    check_golden("permuted_groups.expected", &report.render());
}

/// A plan whose shared slot is smaller than its occupants need, caught
/// twice: by the plan-level byte check and — cross-layer — by the bounds
/// machinery refuting the kernel's touch set with a loop-index witness.
#[test]
fn undersized_slot_is_refuted() {
    let mut g = Graph::new();
    let x = g.input(&[16], "data");
    let r = g.relu(x, "relu");
    g.outputs.push(r);
    let fused = fuse(&g, true);
    let mut plan = plan_memory(&g, &fused);
    let slot = plan.storage_of[r.0];
    plan.slot_sizes[slot] = 32; // room for 8 of the 16 f32 elements

    let a = Var::new("data", DType::float32());
    let out = Var::new("out", DType::float32());
    let i = Var::int("i");
    let body = Stmt::for_(
        &i,
        0,
        16,
        Stmt::store(&out, i.to_expr(), Expr::load(&a, i.to_expr())),
    );
    let func = LoweredFunc {
        name: "relu_kernel".into(),
        params: vec![a, out],
        param_dtypes: vec![DType::float32(), DType::float32()],
        param_extents: vec![16, 16],
        body,
    };
    let args = [x, r];
    let kernels = [KernelView {
        name: "relu_kernel",
        func: &func,
        args: &args,
    }];

    let report = check_memplan(&g, &fused, &plan);
    assert!(report
        .errors()
        .any(|d| d.message.contains("bytes but occupant")));
    let contracts = check_slot_contracts(&g, &plan, &kernels);
    assert!(contracts.contracts_refuted > 0);
    assert!(contracts.errors().any(|d| d.witness.is_some()));
    check_golden(
        "undersized_slot.expected",
        &format!("{}{}", report.render(), contracts.render()),
    );
}

/// A sound graph and plan around a kernel whose barrier only half the
/// threads reach (the program of `tvm-analysis`'s `divergent_barrier`
/// case): the build verdict runs the loop-IR passes too, once per body
/// however many kernels share it.
#[test]
fn divergent_barrier_in_a_kernel_is_flagged() {
    let mut g = Graph::new();
    let x = g.input(&[4], "data");
    let r = g.relu(x, "relu");
    let t = g.relu(r, "again");
    g.outputs.push(t);
    let fused = fuse(&g, false);
    let plan = plan_memory(&g, &fused);

    let tx = Var::int("tx");
    let func = LoweredFunc {
        name: "relu_kernel".into(),
        params: vec![
            Var::new("data", DType::float32()),
            Var::new("out", DType::float32()),
        ],
        param_dtypes: vec![DType::float32(), DType::float32()],
        param_extents: vec![4, 4],
        body: Stmt::loop_(
            &tx,
            0,
            4,
            ForKind::ThreadBinding(ThreadTag::ThreadIdxX),
            Stmt::if_then(tx.to_expr().lt(Expr::int(2)), Stmt::new(StmtNode::Barrier)),
        ),
    };
    let (first, second) = ([x, r], [r, t]);
    let kernels = [&first, &second].map(|args| KernelView {
        name: "relu_kernel",
        func: &func,
        args,
    });
    let report = verify_build(&g, &fused, &plan, &kernels);
    let errors: Vec<_> = report.errors().collect();
    assert_eq!(errors.len(), 1, "{}", report.render());
    assert_eq!(errors[0].pass, "sync");
    assert!(errors[0].message.starts_with("kernel `relu_kernel`: "));
    check_golden("divergent_barrier_kernel.expected", &report.render());
}

/// A slot whose base alignment is too small for its occupant's dtype.
#[test]
fn misaligned_slot_is_refuted() {
    let g = conv_chain(1);
    let fused = fuse(&g, true);
    let mut plan = plan_memory(&g, &fused);
    plan.slot_aligns[0] = 1; // f32 occupant needs 4
    let report = check_memplan(&g, &fused, &plan);
    assert!(report
        .errors()
        .any(|d| d.message.contains("requires 4-byte alignment")));
    check_golden("misaligned_slot.expected", &report.render());
}

/// Renders are deterministic: two runs over the same known-bad triple
/// produce byte-identical output (the golden files depend on it).
#[test]
fn renders_are_stable_across_runs() {
    let build = || {
        let g = conv_chain(3);
        let fused = fuse(&g, true);
        let mut plan = plan_memory(&g, &fused);
        for s in plan.storage_of.iter_mut().filter(|s| **s != usize::MAX) {
            *s = 0;
        }
        check_memplan(&g, &fused, &plan).render()
    };
    assert_eq!(build(), build());
}
