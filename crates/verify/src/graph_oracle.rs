//! The graph static oracle: seeded random fusion/plan configurations run
//! through `tvm_graph::verify`, in both directions.
//!
//! For each random graph the oracle checks two properties:
//!
//! 1. **Soundness of the optimizers** — the output of `fuse` +
//!    `plan_memory` must verify clean (no memory-plan, fusion, or
//!    liveness finding);
//! 2. **Sensitivity of the verifiers** — a known-bad mutation of the
//!    plan or grouping (slot aliased with a still-live producer, slot
//!    shrunk below its occupant, slot alignment dropped, fused
//!    intermediate with an external consumer) must be *caught*. A
//!    verifier that waves through an injected fault is itself broken —
//!    the same discipline the loop-IR suite gets from its known-bad
//!    golden corpus, but over an unbounded input distribution.

use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};
use tvm_graph::{fuse, plan_memory, verify_graph, FusedGraph, Graph, MemoryPlan, OpType};
use tvm_topi::Conv2dWorkload;

/// Campaign counters (all cases, both directions).
#[derive(Clone, Copy, Debug, Default)]
pub struct GraphOracleStats {
    /// Random graphs generated.
    pub cases: usize,
    /// Optimizer outputs that verified clean.
    pub clean: usize,
    /// Known-bad mutations injected.
    pub mutations: usize,
    /// Mutations the verifier flagged (must equal `mutations`).
    pub caught: usize,
}

/// Builds a random chain/diamond graph from a small op alphabet.
fn random_graph(rng: &mut StdRng) -> Graph {
    let mut g = Graph::new();
    let x = g.input(&[1, 8, 8, 8], "data");
    let mut cur = x;
    let mut older = vec![];
    let len = rng.random_range(1usize..14);
    for i in 0..len {
        let prev = cur;
        cur = match rng.random_range(0u32..5) {
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
            3 if !older.is_empty() => {
                let other = older[rng.random_range(0..older.len())];
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
}

/// A cross-group data edge: consumer group `to` reads the output of
/// producer group `from`.
fn cross_group_edge(g: &Graph, fused: &FusedGraph) -> Option<(usize, usize)> {
    for (gi, grp) in fused.groups.iter().enumerate() {
        for &m in &grp.nodes {
            for &inp in &g.node(m).inputs {
                let pg = fused.group_of.get(inp.0).copied().unwrap_or(usize::MAX);
                if pg != usize::MAX && pg != gi && fused.groups[pg].output == inp {
                    return Some((pg, gi));
                }
            }
        }
    }
    None
}

/// Injects one guaranteed-illegal mutation into the plan or grouping;
/// returns a description of what was broken.
fn mutate(g: &Graph, fused: &mut FusedGraph, plan: &mut MemoryPlan, kind: u32) -> &'static str {
    let edge = cross_group_edge(g, fused);
    match (kind, edge) {
        // Alias a consumer group's output with the producer it reads:
        // the producer is still live at the consumer's write.
        (0, Some((pg, gi))) => {
            let victim = fused.groups[gi].output;
            plan.storage_of[victim.0] = plan.storage_of[fused.groups[pg].output.0];
            "alias consumer output with live producer slot"
        }
        // Shrink a slot below its largest occupant.
        (1, _) if !plan.slot_sizes.is_empty() => {
            plan.slot_sizes[0] = plan.slot_sizes[0].saturating_sub(1);
            "shrink slot below its occupant"
        }
        // Drop a slot's alignment below its occupants' dtype width.
        (2, _) if !plan.slot_aligns.is_empty() => {
            plan.slot_aligns[0] = 1;
            "drop slot alignment to 1 byte"
        }
        // Merge a producer group into its consumer while the producer's
        // output still has the rest of the graph reading it (external
        // consumer of a fused intermediate), falling back to the alias
        // mutation when the graph is a single group.
        (_, edge) => {
            if let Some((pg, gi)) = edge {
                let moved = fused.groups[pg].nodes.clone();
                for &m in &moved {
                    fused.group_of[m.0] = gi;
                }
                let mut merged = moved;
                merged.extend(fused.groups[gi].nodes.clone());
                merged.sort();
                fused.groups[gi].nodes = merged;
                // Leave group `pg` empty-handed: its output is now an
                // intermediate of group `gi` but still materializes per
                // the (stale) plan and still feeds any other consumer.
                fused.groups[pg].nodes.clear();
                "merge producer into consumer (stale grouping)"
            } else {
                plan.slot_sizes[0] = plan.slot_sizes[0].saturating_sub(1);
                "shrink slot below its occupant"
            }
        }
    }
}

/// Runs the graph static oracle for `cases` seeded random graphs.
/// Returns campaign counters, or a description of the first failure
/// (an optimizer output that did not verify, or an injected fault the
/// verifier missed).
pub fn check_graph_static(seed: u64, cases: usize) -> Result<GraphOracleStats, String> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6A09_E667_F3BC_C908);
    let mut stats = GraphOracleStats::default();
    for case in 0..cases {
        let g = random_graph(&mut rng);
        let fuse_enabled = rng.next_f64() < 0.8;
        let fused = fuse(&g, fuse_enabled);
        let plan = plan_memory(&g, &fused);
        stats.cases += 1;

        // Direction 1: the optimizers' own output is sound.
        let report = verify_graph(&g, &fused, &plan);
        if report.has_errors() {
            return Err(format!(
                "case {case} (seed {seed}, fuse={fuse_enabled}): optimizer output failed \
                 verification:\n{}",
                report.render()
            ));
        }
        stats.clean += 1;

        // Direction 2: a known-bad mutation is caught.
        let mut bad_fused = fused.clone();
        let mut bad_plan = plan.clone();
        let what = mutate(&g, &mut bad_fused, &mut bad_plan, rng.random_range(0u32..4));
        stats.mutations += 1;
        let verdict = verify_graph(&g, &bad_fused, &bad_plan);
        if !verdict.has_errors() {
            return Err(format!(
                "case {case} (seed {seed}): verifier missed an injected fault: {what}"
            ));
        }
        stats.caught += 1;
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_campaign_is_clean_and_sensitive() {
        let stats = check_graph_static(0xABCD, 64).expect("campaign clean");
        assert_eq!(stats.cases, 64);
        assert_eq!(stats.clean, 64);
        assert_eq!(stats.mutations, stats.caught);
    }

    #[test]
    fn oracle_is_seed_deterministic() {
        let a = check_graph_static(7, 16).expect("clean");
        let b = check_graph_static(7, 16).expect("clean");
        assert_eq!(a.mutations, b.mutations);
    }
}
