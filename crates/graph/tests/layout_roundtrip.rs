//! Layout-pass integration coverage: a `transform_layouts` rewrite must
//! be invisible to everything downstream — every inserted transform
//! preserves element count and dtype, and the rewritten graph flows
//! through fusion + memory planning to a verifier-clean build.

use tvm_graph::{
    cpu_preference, fuse, plan_memory, transform_layouts, verify_graph, Conv2dWorkload, Graph,
    OpType,
};

fn conv_stack() -> Graph {
    let mut g = Graph::new();
    let x = g.input(&[1, 3, 16, 16], "data");
    let w1 = Conv2dWorkload {
        batch: 1,
        size: 16,
        in_c: 3,
        out_c: 8,
        kernel: 3,
        stride: 1,
        pad: 1,
    };
    let c1 = g.conv2d(x, w1, "c1");
    let w2 = Conv2dWorkload {
        batch: 1,
        size: 16,
        in_c: 8,
        out_c: 8,
        kernel: 3,
        stride: 1,
        pad: 1,
    };
    let c2 = g.conv2d(c1, w2, "c2");
    let c3 = g.conv2d(c2, w2, "c3");
    let r = g.relu(c3, "r");
    g.outputs.push(r);
    g
}

/// Each inserted `LayoutTransform` reinterprets its producer's tensor:
/// same total element count, same dtype, no silent widening or slicing.
#[test]
fn transforms_preserve_element_count_and_dtype() {
    let g = conv_stack();
    let (out, inserted) = transform_layouts(&g, &cpu_preference(4));
    assert!(inserted > 0, "preference model must force transforms");
    let mut seen = 0;
    for node in &out.nodes {
        if !matches!(node.op, OpType::LayoutTransform { .. }) {
            continue;
        }
        seen += 1;
        assert_eq!(node.inputs.len(), 1, "`{}` must be unary", node.name);
        let src = out.node(node.inputs[0]);
        assert_eq!(
            src.shape.iter().product::<i64>(),
            node.shape.iter().product::<i64>(),
            "`{}` changes element count",
            node.name
        );
        assert_eq!(src.dtype, node.dtype, "`{}` changes dtype", node.name);
    }
    assert_eq!(seen, inserted, "insertion count disagrees with the graph");
}

/// The rewritten graph round-trips through fusion and memory planning to
/// a verifier-clean result, fusion on and off: the layout pass introduces
/// no liveness, slot, or legality violations.
#[test]
fn rewritten_graph_verifies_clean() {
    let g = conv_stack();
    let (out, inserted) = transform_layouts(&g, &cpu_preference(4));
    assert!(inserted > 0);
    for enabled in [true, false] {
        let fused = fuse(&out, enabled);
        let plan = plan_memory(&out, &fused);
        let report = verify_graph(&out, &fused, &plan);
        assert!(
            !report.has_errors(),
            "fusion={enabled}:\n{}",
            report.render()
        );
        assert!(report.groups_checked > 0);
    }
}

/// An identity rewrite (uniform preferences) is a structural no-op that
/// still verifies clean — the pass itself never perturbs the graph.
#[test]
fn identity_rewrite_verifies_clean() {
    let g = conv_stack();
    let (out, inserted) = transform_layouts(&g, &|_: &Graph, _| "NCHW".to_string());
    assert_eq!(inserted, 0);
    assert_eq!(out.nodes.len(), g.nodes.len());
    let fused = fuse(&out, true);
    let plan = plan_memory(&out, &fused);
    let report = verify_graph(&out, &fused, &plan);
    assert!(!report.has_errors(), "{}", report.render());
}
