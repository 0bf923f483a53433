//! Data-layout transformation pass (§3).
//!
//! Each operator states its preferred layout under the target's memory
//! hierarchy constraints (e.g. an accelerator wanting 4x4-tiled operands);
//! the pass inserts `LayoutTransform` nodes between producers and
//! consumers whose preferences differ — and only there, so matching
//! neighbors pay nothing.

use crate::ir::{Graph, NodeId, OpType};

/// A layout preference function: node -> layout tag.
pub type PreferenceFn<'a> = dyn Fn(&Graph, NodeId) -> String + 'a;

/// Preference model for a CPU-style target: convolutions want
/// channel-blocked `NCHWc` when channels divide the vector width; everyone
/// else is happy with plain `NCHW`.
pub fn cpu_preference(block: i64) -> impl Fn(&Graph, NodeId) -> String {
    move |g: &Graph, id: NodeId| {
        let node = g.node(id);
        match &node.op {
            OpType::Conv2d(w) if w.in_c % block == 0 && w.out_c % block == 0 => {
                format!("NCHW{block}c")
            }
            _ => "NCHW".to_string(),
        }
    }
}

/// Runs the pass: inserts transforms where producer and consumer layouts
/// disagree. Returns the rewritten graph and the number of transforms
/// inserted.
pub fn transform_layouts(g: &Graph, prefer: &PreferenceFn) -> (Graph, usize) {
    let mut out = Graph::new();
    // Map old ids -> (new id, layout tag of its output). Nodes are in
    // construction order, so every input is mapped before its consumer.
    let mut mapped: Vec<(NodeId, String)> = Vec::with_capacity(g.nodes.len());
    let mut inserted = 0usize;
    for node in &g.nodes {
        let want = prefer(g, node.id);
        let mut new_inputs = Vec::with_capacity(node.inputs.len());
        for &inp in &node.inputs {
            let (nid, have) = mapped[inp.0].clone();
            // Params adapt for free at deployment time (pre-packed).
            let is_param = matches!(g.node(inp).op, OpType::Param);
            if have != want && !is_param && !matches!(node.op, OpType::Flatten) {
                let shape = g.node(inp).shape.clone();
                let t = out.add(
                    OpType::LayoutTransform { dst: want.clone() },
                    vec![nid],
                    shape,
                    format!("{}_to_{}", g.node(inp).name, want),
                );
                inserted += 1;
                new_inputs.push(t);
            } else {
                new_inputs.push(nid);
            }
        }
        let nid = out.add_typed(
            node.op.clone(),
            new_inputs,
            node.shape.clone(),
            node.dtype,
            node.name.clone(),
        );
        mapped.push((nid, want));
    }
    for o in &g.outputs {
        out.outputs.push(mapped[o.0].0);
    }
    (out, inserted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Conv2dWorkload;

    fn mixed_graph() -> Graph {
        let mut g = Graph::new();
        let x = g.input(&[1, 3, 16, 16], "data");
        // First conv: 3 input channels (not blockable) -> NCHW.
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
        // Second conv: 8 -> 8 channels, blockable -> NCHW4c.
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
        // Third conv, same pref as c2: no transform between them.
        let c3 = g.conv2d(c2, w2, "c3");
        let r = g.relu(c3, "r");
        g.outputs.push(r);
        g
    }

    #[test]
    fn transforms_only_at_mismatches() {
        let g = mixed_graph();
        let pref = cpu_preference(4);
        let (out, inserted) = transform_layouts(&g, &pref);
        // One transform entering c2 (NCHW -> NCHW4c) and one entering relu
        // (back to NCHW); none between c2 and c3.
        assert_eq!(
            inserted,
            2,
            "{:#?}",
            out.nodes.iter().map(|n| n.name.clone()).collect::<Vec<_>>()
        );
        assert!(out
            .nodes
            .iter()
            .any(|n| matches!(&n.op, OpType::LayoutTransform { dst } if dst == "NCHW4c")));
    }

    #[test]
    fn uniform_preferences_insert_nothing() {
        let g = mixed_graph();
        let pref = |_: &Graph, _: NodeId| "NCHW".to_string();
        let (_, inserted) = transform_layouts(&g, &pref);
        assert_eq!(inserted, 0);
    }

    #[test]
    fn rewrite_preserves_structure() {
        let g = mixed_graph();
        let pref = cpu_preference(4);
        let (out, ins) = transform_layouts(&g, &pref);
        assert_eq!(out.nodes.len(), g.nodes.len() + ins);
        assert_eq!(out.outputs.len(), 1);
        // Output shape preserved.
        let o = out.node(out.outputs[0]);
        assert_eq!(o.shape, vec![1, 8, 16, 16]);
    }
}
