//! Operator fusion (§3): groups graph nodes into fused kernels using the
//! paper's generic rules — injective ops fuse with each other; a
//! complex-out-fusable op absorbs element-wise ops applied to its output;
//! reductions fuse their input injective ops; opaque ops stand alone.

use tvm_ir::DType;

use crate::ir::{Graph, NodeId, OpType, Pattern};

/// A fused group: one kernel after fusion.
#[derive(Clone, Debug)]
pub struct Group {
    /// Member nodes in topological order.
    pub nodes: Vec<NodeId>,
    /// The "master" (most complex) node that drives scheduling.
    pub master: NodeId,
    /// The node whose output leaves the group.
    pub output: NodeId,
}

impl Group {
    /// True if the group is a single node.
    pub fn is_single(&self) -> bool {
        self.nodes.len() == 1
    }
}

/// Where a member's operand comes from, inside a [`GroupKey`].
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
enum Edge {
    /// The member at this position of the group.
    Member(usize),
    /// A tensor from outside the group, numbered by first use.
    External(usize),
}

/// The structure of a fused group with every name left out. Code generation
/// reads a node's name only to label buffers, so two groups with equal keys
/// compile, for one target and tuning database, to the same kernel up to
/// those labels. Keys are compared by equality; the hash only finds the
/// bucket.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct GroupKey {
    /// Per member in topological order: operation with its attributes,
    /// output shape, dtype and operand edges.
    members: Vec<(OpType, Vec<i64>, DType, Vec<Edge>)>,
    /// Shape and dtype of each external, in first-use order.
    externals: Vec<(Vec<i64>, DType)>,
    /// Position of the master among the members (`None` in a malformed
    /// group, which `verify_graph` rejects).
    master: Option<usize>,
    /// Position of the output among the members.
    output: Option<usize>,
}

impl GroupKey {
    /// The key of `group`, and the nodes its kernel binds in parameter
    /// order: the externals by first use, then the group output.
    pub fn of(g: &Graph, group: &Group) -> (GroupKey, Vec<NodeId>) {
        let position = |id: NodeId| group.nodes.iter().position(|&m| m == id);
        let mut args: Vec<NodeId> = Vec::new();
        let mut externals = Vec::new();
        let mut members = Vec::with_capacity(group.nodes.len());
        for &m in &group.nodes {
            let node = g.node(m);
            let mut edges = Vec::with_capacity(node.inputs.len());
            for &inp in &node.inputs {
                edges.push(match position(inp) {
                    Some(p) => Edge::Member(p),
                    None => {
                        Edge::External(args.iter().position(|&a| a == inp).unwrap_or_else(|| {
                            let src = g.node(inp);
                            externals.push((src.shape.clone(), src.dtype));
                            args.push(inp);
                            args.len() - 1
                        }))
                    }
                });
            }
            members.push((node.op.clone(), node.shape.clone(), node.dtype, edges));
        }
        args.push(group.output);
        let key = GroupKey {
            members,
            externals,
            master: position(group.master),
            output: position(group.output),
        };
        (key, args)
    }
}

/// The result of fusion: every non-param node belongs to exactly one group.
#[derive(Clone, Debug)]
pub struct FusedGraph {
    /// Groups in topological order.
    pub groups: Vec<Group>,
    /// group index per node (usize::MAX for params/inputs).
    pub group_of: Vec<usize>,
}

fn master_rank(p: Pattern) -> u8 {
    match p {
        Pattern::ComplexOutFusable => 3,
        Pattern::Reduction => 2,
        Pattern::Opaque => 1,
        Pattern::Injective => 0,
    }
}

/// Runs the fusion pass. `enabled = false` puts every compute node in its
/// own group (the "TVM w/o fusion" baselines of Fig. 4 / Fig. 14).
pub fn fuse(g: &Graph, enabled: bool) -> FusedGraph {
    let consumers = g.consumers();
    let n = g.nodes.len();
    let mut group_of: Vec<usize> = vec![usize::MAX; n];
    let mut groups: Vec<Group> = Vec::new();

    for node in &g.nodes {
        if matches!(node.op, OpType::Input | OpType::Param) {
            continue;
        }
        let pat = node.op.pattern();
        let mut joined = false;
        if enabled && pat == Pattern::Injective {
            // Join the group of a data-input producer when this node is the
            // current output of that group (a straight-line element-wise
            // suffix) and the group's master allows output fusion.
            for &inp in &node.inputs {
                let inode = g.node(inp);
                if matches!(inode.op, OpType::Input | OpType::Param) {
                    continue;
                }
                let gi = group_of[inp.0];
                if gi == usize::MAX {
                    continue;
                }
                let grp = &groups[gi];
                let master_pat = g.node(grp.master).op.pattern();
                let fusable_master = matches!(
                    master_pat,
                    Pattern::ComplexOutFusable | Pattern::Injective | Pattern::Reduction
                );
                // The producer must currently be the group's output and have
                // this node as its only compute consumer, so the group stays
                // single-output.
                let single_consumer = consumers[inp.0].len() == 1;
                if fusable_master && grp.output == inp && single_consumer {
                    let gi_mut = gi;
                    groups[gi_mut].nodes.push(node.id);
                    groups[gi_mut].output = node.id;
                    // Injective never replaces the master.
                    group_of[node.id.0] = gi_mut;
                    joined = true;
                    break;
                }
            }
        }
        if enabled && !joined && pat == Pattern::Reduction {
            // A reduction fuses its injective input chain (e.g. scale then
            // sum): absorb a single-consumer injective producer group whose
            // master is injective.
            for &inp in &node.inputs {
                let gi = group_of[inp.0];
                if gi == usize::MAX {
                    continue;
                }
                let grp = &groups[gi];
                if g.node(grp.master).op.pattern() == Pattern::Injective
                    && grp.output == inp
                    && consumers[inp.0].len() == 1
                {
                    groups[gi].nodes.push(node.id);
                    groups[gi].output = node.id;
                    groups[gi].master = node.id;
                    group_of[node.id.0] = gi;
                    joined = true;
                    break;
                }
            }
        }
        if !joined {
            group_of[node.id.0] = groups.len();
            groups.push(Group {
                nodes: vec![node.id],
                master: node.id,
                output: node.id,
            });
        }
    }
    // Masters: highest-rank member. Groups are non-empty by construction;
    // an empty one (defensive: a malformed graph fed in by a caller) keeps
    // its existing master instead of panicking the compile.
    for grp in &mut groups {
        let best = grp
            .nodes
            .iter()
            .copied()
            .max_by_key(|&id| master_rank(g.node(id).op.pattern()));
        if let Some(best) = best {
            if master_rank(g.node(best).op.pattern()) > master_rank(g.node(grp.master).op.pattern())
            {
                grp.master = best;
            }
        }
    }
    // A group was appended where its *first* member sits, but an injective
    // tail that joined it later (a residual `add`) may read another group
    // created in between. Only a group's `output` leaves it, and every
    // external input of a group precedes that group's output in node
    // order, so ordering groups by output node is a topological order.
    groups.sort_by_key(|grp| grp.output.0);
    for (gi, grp) in groups.iter().enumerate() {
        for &m in &grp.nodes {
            group_of[m.0] = gi;
        }
    }
    FusedGraph { groups, group_of }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{Conv2dWorkload, DenseWorkload};

    fn conv_bn_relu_graph() -> Graph {
        let mut g = Graph::new();
        let x = g.input(&[1, 16, 8, 8], "data");
        let w = Conv2dWorkload {
            batch: 1,
            size: 8,
            in_c: 16,
            out_c: 16,
            kernel: 3,
            stride: 1,
            pad: 1,
        };
        let c = g.conv2d(x, w, "conv");
        let b = g.batch_norm(c, "bn");
        let r = g.relu(b, "relu");
        g.outputs.push(r);
        g
    }

    #[test]
    fn conv_bn_relu_fuses_into_one_group() {
        let g = conv_bn_relu_graph();
        let fused = fuse(&g, true);
        assert_eq!(fused.groups.len(), 1);
        let grp = &fused.groups[0];
        assert_eq!(grp.nodes.len(), 3);
        assert_eq!(g.node(grp.master).op.name(), "conv2d");
        assert_eq!(g.node(grp.output).op.name(), "relu");
    }

    #[test]
    fn fusion_disabled_keeps_ops_separate() {
        let g = conv_bn_relu_graph();
        let fused = fuse(&g, false);
        assert_eq!(fused.groups.len(), 3);
        assert!(fused.groups.iter().all(|grp| grp.is_single()));
    }

    #[test]
    fn multi_consumer_intermediate_blocks_fusion() {
        // conv output used by relu AND by a residual add later: conv can't
        // absorb relu (conv result must materialize).
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
        let a = g.add_op(r, c, "residual");
        g.outputs.push(a);
        let fused = fuse(&g, true);
        // conv alone; relu+add may merge.
        let conv_group = fused.group_of[c.0];
        assert_eq!(fused.groups[conv_group].nodes.len(), 1);
    }

    #[test]
    fn opaque_stays_alone() {
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
        let sm = {
            let shape = g.node(d).shape.clone();
            g.add(OpType::Softmax, vec![d], shape, "softmax")
        };
        g.outputs.push(sm);
        let fused = fuse(&g, true);
        assert_eq!(fused.groups.len(), 2);
    }

    #[test]
    fn injective_chain_fuses_together() {
        let mut g = Graph::new();
        let x = g.input(&[1, 8, 4, 4], "data");
        let b = g.batch_norm(x, "bn");
        let r = g.relu(b, "relu");
        let t = {
            let shape = g.node(r).shape.clone();
            g.add(OpType::Tanh, vec![r], shape, "tanh")
        };
        g.outputs.push(t);
        let fused = fuse(&g, true);
        assert_eq!(fused.groups.len(), 1);
        assert_eq!(fused.groups[0].nodes.len(), 3);
    }

    #[test]
    fn reduction_absorbs_injective_inputs() {
        // scale (injective) then global sum (reduction) — the paper's
        // "fuse scale and sum" example.
        let mut g = Graph::new();
        let x = g.input(&[1, 8, 4, 4], "data");
        let bn = g.batch_norm(x, "scale");
        let shape = vec![1, 8];
        let pool = g.add(OpType::GlobalAvgPool, vec![bn], shape, "pool");
        g.outputs.push(pool);
        let fused = fuse(&g, true);
        assert_eq!(fused.groups.len(), 1);
        assert_eq!(g.node(fused.groups[0].master).op.name(), "global_avg_pool");
    }
}
