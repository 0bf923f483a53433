//! Integration tests for the §3 fusion rule table. Each of the paper's
//! four operator classes has a positive rule (what it may fuse with) and a
//! set of negative rules (what must stay separate); this file walks the
//! whole table and checks the structural invariants of every result.

use tvm_graph::{fuse, Conv2dWorkload, DenseWorkload, FusedGraph, Graph, NodeId, OpType, Pattern};

fn conv_w(size: i64, ch: i64) -> Conv2dWorkload {
    Conv2dWorkload {
        batch: 1,
        size,
        in_c: ch,
        out_c: ch,
        kernel: 3,
        stride: 1,
        pad: 1,
    }
}

/// Every compute node is in exactly one group; params are in none; each
/// group is non-empty, its output and master are members, and `group_of`
/// agrees with the membership lists.
fn check_invariants(g: &Graph, fused: &FusedGraph) {
    let mut seen = vec![0usize; g.nodes.len()];
    for (gi, grp) in fused.groups.iter().enumerate() {
        assert!(!grp.nodes.is_empty(), "group {gi} is empty");
        assert!(
            grp.nodes.contains(&grp.output),
            "group {gi}: output not a member"
        );
        assert!(
            grp.nodes.contains(&grp.master),
            "group {gi}: master not a member"
        );
        for &n in &grp.nodes {
            seen[n.0] += 1;
            assert_eq!(
                fused.group_of[n.0], gi,
                "group_of disagrees for node {}",
                n.0
            );
        }
    }
    for node in &g.nodes {
        let expect = if matches!(node.op, OpType::Input | OpType::Param) {
            0
        } else {
            1
        };
        assert_eq!(
            seen[node.id.0], expect,
            "node {} appears in {} groups",
            node.id.0, seen[node.id.0]
        );
        if expect == 0 {
            assert_eq!(fused.group_of[node.id.0], usize::MAX);
        }
    }
}

fn group_of(fused: &FusedGraph, n: NodeId) -> &tvm_graph::Group {
    &fused.groups[fused.group_of[n.0]]
}

#[test]
fn injective_chain_collapses_to_one_group() {
    let mut g = Graph::new();
    let x = g.input(&[1, 8, 6, 6], "data");
    let bn = g.batch_norm(x, "bn");
    let r = g.relu(bn, "relu");
    let shape = g.node(r).shape.clone();
    let t = g.add(OpType::Tanh, vec![r], shape, "tanh");
    g.outputs.push(t);
    let fused = fuse(&g, true);
    check_invariants(&g, &fused);
    assert_eq!(fused.groups.len(), 1);
    assert_eq!(fused.groups[0].nodes.len(), 3);
    // All-injective group: the master stays injective and the output is
    // the chain's tail.
    assert_eq!(g.node(fused.groups[0].output).op.name(), "tanh");
    assert_eq!(
        g.node(fused.groups[0].master).op.pattern(),
        Pattern::Injective
    );
}

#[test]
fn complex_out_fusable_absorbs_elementwise_suffix() {
    // conv2d -> bn -> relu: the paper's canonical conv+bn+relu kernel.
    let mut g = Graph::new();
    let x = g.input(&[1, 8, 6, 6], "data");
    let c = g.conv2d(x, conv_w(6, 8), "conv");
    let bn = g.batch_norm(c, "bn");
    let r = g.relu(bn, "relu");
    g.outputs.push(r);
    let fused = fuse(&g, true);
    check_invariants(&g, &fused);
    assert_eq!(fused.groups.len(), 1);
    let grp = &fused.groups[0];
    assert_eq!(
        g.node(grp.master).op.name(),
        "conv2d",
        "conv drives the fused kernel"
    );
    assert_eq!(g.node(grp.output).op.name(), "relu");
}

#[test]
fn reduction_absorbs_injective_producer_and_becomes_master() {
    let mut g = Graph::new();
    let x = g.input(&[1, 8, 6, 6], "data");
    let scale = g.batch_norm(x, "scale");
    let pool = g.add(OpType::GlobalAvgPool, vec![scale], vec![1, 8], "pool");
    g.outputs.push(pool);
    let fused = fuse(&g, true);
    check_invariants(&g, &fused);
    assert_eq!(fused.groups.len(), 1);
    assert_eq!(
        g.node(fused.groups[0].master).op.pattern(),
        Pattern::Reduction
    );
}

#[test]
fn reduction_does_not_absorb_a_conv_producer() {
    // The reduction rule only absorbs *injective-master* producer groups;
    // a conv group keeps its own kernel.
    let mut g = Graph::new();
    let x = g.input(&[1, 8, 6, 6], "data");
    let c = g.conv2d(x, conv_w(6, 8), "conv");
    let pool = g.add(OpType::GlobalAvgPool, vec![c], vec![1, 8], "pool");
    g.outputs.push(pool);
    let fused = fuse(&g, true);
    check_invariants(&g, &fused);
    assert_eq!(fused.groups.len(), 2);
    assert_ne!(fused.group_of[c.0], fused.group_of[pool.0]);
}

#[test]
fn opaque_never_fuses_either_direction() {
    // dense -> softmax -> relu: softmax (opaque) must not join dense's
    // group, and relu must not join softmax's.
    let mut g = Graph::new();
    let x = g.input(&[4, 32], "data");
    let d = g.dense(
        x,
        DenseWorkload {
            m: 4,
            n: 10,
            k: 32,
            dtype: tvm_ir::DType::float32(),
        },
        "fc",
    );
    let shape = g.node(d).shape.clone();
    let sm = g.add(OpType::Softmax, vec![d], shape.clone(), "softmax");
    let r = g.relu(sm, "relu");
    g.outputs.push(r);
    let fused = fuse(&g, true);
    check_invariants(&g, &fused);
    assert!(
        group_of(&fused, sm).is_single(),
        "softmax fused: {:?}",
        group_of(&fused, sm)
    );
    assert_ne!(fused.group_of[d.0], fused.group_of[sm.0]);
    assert_ne!(fused.group_of[sm.0], fused.group_of[r.0]);
}

#[test]
fn multi_consumer_producer_must_materialize() {
    // Diamond: conv feeds both relu and the residual add. The conv result
    // is needed twice, so conv stays alone; the diamond's arms may still
    // fuse with each other downstream.
    let mut g = Graph::new();
    let x = g.input(&[1, 8, 6, 6], "data");
    let c = g.conv2d(x, conv_w(6, 8), "conv");
    let r = g.relu(c, "relu");
    let a = g.add_op(r, c, "residual");
    g.outputs.push(a);
    let fused = fuse(&g, true);
    check_invariants(&g, &fused);
    assert!(
        group_of(&fused, c).is_single(),
        "multi-consumer conv absorbed a consumer"
    );
    // relu has a single consumer (the add), so those two may share a group.
    assert_eq!(fused.group_of[r.0], fused.group_of[a.0]);
}

#[test]
fn fusion_disabled_is_the_identity_grouping() {
    let mut g = Graph::new();
    let x = g.input(&[1, 8, 6, 6], "data");
    let c = g.conv2d(x, conv_w(6, 8), "conv");
    let bn = g.batch_norm(c, "bn");
    let r = g.relu(bn, "relu");
    let pool = g.add(OpType::GlobalAvgPool, vec![r], vec![1, 8], "pool");
    g.outputs.push(pool);
    let fused = fuse(&g, false);
    check_invariants(&g, &fused);
    // One singleton group per compute node, in topological order, each its
    // own master and output.
    let compute: Vec<NodeId> = g
        .nodes
        .iter()
        .filter(|n| !matches!(n.op, OpType::Input | OpType::Param))
        .map(|n| n.id)
        .collect();
    assert_eq!(fused.groups.len(), compute.len());
    for (grp, id) in fused.groups.iter().zip(&compute) {
        assert!(grp.is_single());
        assert_eq!(grp.nodes[0], *id);
        assert_eq!(grp.master, *id);
        assert_eq!(grp.output, *id);
    }
}

#[test]
fn residual_block_groups_are_in_dependency_order() {
    // ResNet's projection-shortcut block: conv-bn on the main branch, then
    // a 1x1 conv-bn on the shortcut, then add + relu. The add joins the
    // main branch's group, which was created *before* the shortcut group
    // it reads from, so creation order is not a dependency order.
    let mut g = Graph::new();
    let x = g.input(&[1, 8, 6, 6], "data");
    let c2 = g.conv2d(x, conv_w(6, 8), "c2");
    let c2_bn = g.batch_norm(c2, "c2_bn");
    let ds = g.conv2d(
        x,
        Conv2dWorkload {
            kernel: 1,
            pad: 0,
            ..conv_w(6, 8)
        },
        "ds",
    );
    let ds_bn = g.batch_norm(ds, "ds_bn");
    let sum = g.add_op(c2_bn, ds_bn, "res");
    let out = g.relu(sum, "out");
    g.outputs.push(out);
    let fused = fuse(&g, true);
    check_invariants(&g, &fused);
    assert_eq!(fused.groups.len(), 2);
    assert_eq!(fused.group_of[c2.0], fused.group_of[out.0]);
    assert!(
        fused.group_of[ds_bn.0] < fused.group_of[sum.0],
        "the shortcut group must run before the group whose add reads it"
    );
    for (gi, grp) in fused.groups.iter().enumerate() {
        for &m in &grp.nodes {
            for &inp in &g.node(m).inputs {
                let pg = fused.group_of[inp.0];
                assert!(
                    pg == usize::MAX || pg <= gi,
                    "group {gi} reads `{}` from later group {pg}",
                    g.node(inp).name
                );
            }
        }
    }
}
