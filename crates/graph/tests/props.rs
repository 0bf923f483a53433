//! Property tests on the graph passes: fusion partitions the graph, the
//! memory planner never aliases two live tensors, and a group's structural
//! key sees everything about the group except its names.

use proptest::prelude::*;

use tvm_graph::{fuse, plan_memory, Conv2dWorkload, Graph, Group, GroupKey, Node, OpType};

/// Builds a random chain/diamond graph from a small op alphabet.
fn arb_graph() -> impl Strategy<Value = Graph> {
    prop::collection::vec((0u8..5, any::<bool>()), 1..14).prop_map(|ops| {
        let mut g = Graph::new();
        let x = g.input(&[1, 8, 8, 8], "data");
        let mut cur = x;
        let mut older: Vec<_> = vec![];
        for (i, (op, take_old)) in ops.into_iter().enumerate() {
            let prev = cur;
            cur = match op {
                0 => {
                    let w = Conv2dWorkload {
                        batch: 1,
                        size: 8,
                        in_c: 8,
                        out_c: 8,
                        kernel: 3,
                        stride: 1,
                        pad: 1,
                    };
                    g.conv2d(cur, w, &format!("conv{i}"))
                }
                1 => g.relu(cur, &format!("relu{i}")),
                2 => g.batch_norm(cur, &format!("bn{i}")),
                3 => {
                    // Residual add against an older tensor when available.
                    let other = if take_old && !older.is_empty() {
                        older[i % older.len()]
                    } else {
                        cur
                    };
                    if other == cur {
                        g.relu(cur, &format!("relu{i}"))
                    } else {
                        g.add_op(cur, other, &format!("add{i}"))
                    }
                }
                _ => {
                    let shape = g.node(cur).shape.clone();
                    g.add(OpType::Tanh, vec![cur], shape, format!("tanh{i}"))
                }
            };
            older.push(prev);
        }
        g.outputs.push(cur);
        g
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Fusion assigns every compute node to exactly one group, groups are
    /// topologically contiguous, and each group has one output.
    #[test]
    fn fusion_partitions_the_graph(g in arb_graph(), enabled in any::<bool>()) {
        let fused = fuse(&g, enabled);
        let mut seen = vec![false; g.nodes.len()];
        for (gi, grp) in fused.groups.iter().enumerate() {
            prop_assert!(!grp.nodes.is_empty());
            prop_assert!(grp.nodes.contains(&grp.master));
            prop_assert!(grp.nodes.contains(&grp.output));
            for &n in &grp.nodes {
                prop_assert!(!seen[n.0], "node in two groups");
                seen[n.0] = true;
                prop_assert_eq!(fused.group_of[n.0], gi);
            }
        }
        for node in &g.nodes {
            let is_compute = !matches!(node.op, OpType::Input | OpType::Param);
            prop_assert_eq!(seen[node.id.0], is_compute);
        }
    }

    /// The memory plan never lets two simultaneously-live group outputs
    /// share a storage slot, and every slot is large enough.
    #[test]
    fn memory_plan_is_alias_free(g in arb_graph()) {
        let fused = fuse(&g, true);
        let plan = plan_memory(&g, &fused);
        let consumers = g.consumers();
        let n_groups = fused.groups.len();
        // Live range per group output.
        let live_end: Vec<usize> = fused
            .groups
            .iter()
            .map(|grp| {
                let mut last = fused.group_of[grp.output.0];
                for &c in &consumers[grp.output.0] {
                    if fused.group_of[c.0] != usize::MAX {
                        last = last.max(fused.group_of[c.0]);
                    }
                }
                if g.outputs.contains(&grp.output) {
                    last = n_groups;
                }
                last
            })
            .collect();
        for (i, gi) in fused.groups.iter().enumerate() {
            let si = plan.storage_of[gi.output.0];
            prop_assert_ne!(si, usize::MAX);
            let node = g.node(gi.output);
            let size = node.shape.iter().product::<i64>() as usize * node.dtype.bytes();
            prop_assert!(plan.slot_sizes[si] >= size);
            for (j, gj) in fused.groups.iter().enumerate().skip(i + 1) {
                let sj = plan.storage_of[gj.output.0];
                if si == sj {
                    // Overlapping live ranges must not share a slot; group j
                    // starts at index j, so i's value must be dead by then.
                    prop_assert!(
                        live_end[i] < j,
                        "slot {si} shared while group {i} is live until {} (j = {j})",
                        live_end[i]
                    );
                }
            }
        }
    }

    /// Renaming every node leaves a group's key (and its argument list)
    /// alone; changing one attribute, shape, dtype, edge, or the master or
    /// output position of any member changes it.
    #[test]
    fn group_key_is_the_structure_without_the_names(g in arb_graph()) {
        let fused = fuse(&g, true);
        let mut renamed = g.clone();
        for n in &mut renamed.nodes {
            n.name = format!("other{}", n.id.0);
        }
        for grp in &fused.groups {
            let (key, args) = GroupKey::of(&g, grp);
            prop_assert_eq!(&GroupKey::of(&renamed, grp), &(key.clone(), args.clone()));
            let key_of = |g2: &Graph, grp2: &Group| GroupKey::of(g2, grp2).0;
            let edited = |id: tvm_graph::NodeId, f: &dyn Fn(&mut Node)| {
                let mut g2 = g.clone();
                f(&mut g2.nodes[id.0]);
                key_of(&g2, grp)
            };
            for (p, &m) in grp.nodes.iter().enumerate() {
                let attr = edited(m, &|n| {
                    n.op = match &n.op {
                        OpType::Conv2d(w) => OpType::Conv2d(Conv2dWorkload { pad: w.pad + 1, ..*w }),
                        _ => OpType::Sigmoid,
                    }
                });
                prop_assert_ne!(&attr, &key, "op attribute of member {}", p);
                prop_assert_ne!(&edited(m, &|n| n.shape[1] += 1), &key, "shape of member {}", p);
                prop_assert_ne!(
                    &edited(m, &|n| n.dtype = tvm_ir::DType::float16()),
                    &key,
                    "dtype of member {}",
                    p
                );
                // An edge that pointed at a member now points outside.
                if let Some(e) = g.node(m).inputs.iter().position(|i| grp.nodes.contains(i)) {
                    let mut g2 = g.clone();
                    let shape = g.node(g.node(m).inputs[e]).shape.clone();
                    let outside = g2.param(&shape, "outside");
                    g2.nodes[m.0].inputs[e] = outside;
                    prop_assert_ne!(&key_of(&g2, grp), &key, "edge {} of member {}", e, p);
                }
                if m != grp.master {
                    let moved = Group { master: m, ..grp.clone() };
                    prop_assert_ne!(&key_of(&g, &moved), &key, "master at {}", p);
                }
                if m != grp.output {
                    let moved = Group { output: m, ..grp.clone() };
                    prop_assert_ne!(&key_of(&g, &moved), &key, "output at {}", p);
                }
            }
            // What the group reads from outside is part of its structure too.
            for &a in &args[..args.len() - 1] {
                prop_assert_ne!(&edited(a, &|n| n.shape[0] += 1), &key, "external shape");
                prop_assert_ne!(
                    &edited(a, &|n| n.dtype = tvm_ir::DType::float16()),
                    &key,
                    "external dtype"
                );
            }
        }
    }
}

/// One tensor bound to both operands is one kernel parameter; two tensors
/// of one shape are two. The kernels differ, so must the keys.
#[test]
fn group_key_tells_one_external_read_twice_from_two_externals() {
    let mut g = Graph::new();
    let x = g.input(&[1, 8], "x");
    let y = g.input(&[1, 8], "y");
    let twice = g.add_op(x, x, "twice");
    let pair = g.add_op(x, y, "pair");
    let alone = |id| Group {
        nodes: vec![id],
        master: id,
        output: id,
    };
    let (k_twice, a_twice) = GroupKey::of(&g, &alone(twice));
    let (k_pair, a_pair) = GroupKey::of(&g, &alone(pair));
    assert_eq!(a_twice, vec![x, twice]);
    assert_eq!(a_pair, vec![x, y, pair]);
    assert_ne!(k_twice, k_pair);
    // The same shape read from somewhere else is the same structure.
    let other = g.add_op(y, x, "other");
    assert_eq!(GroupKey::of(&g, &alone(other)).0, k_pair);
}
