//! Seeded property checks that ride along with the fuzzer: the simplifier
//! is semantics-preserving under random variable bindings, and the memory
//! planner never aliases two simultaneously-live buffers.
//!
//! These are plain seeded loops (not `proptest` macros) so the `verify-fuzz`
//! binary can run them with a caller-chosen budget.

use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};
use tvm_graph::{fuse, plan_memory, Graph, OpType};
use tvm_ir::{simplify, BinOp, Expr, Var};
use tvm_topi::Conv2dWorkload;

use crate::reference::eval_int;

/// Builds a random integer expression over `vars` with the given depth.
fn random_expr(vars: &[Var], depth: u32, rng: &mut StdRng) -> Expr {
    if depth == 0 || rng.next_f64() < 0.3 {
        return if rng.next_f64() < 0.5 {
            Expr::int(rng.random_range(-20i64..20))
        } else {
            vars[rng.random_range(0..vars.len())].to_expr()
        };
    }
    let a = random_expr(vars, depth - 1, rng);
    let b = random_expr(vars, depth - 1, rng);
    let op = match rng.random_range(0..7u32) {
        0 => BinOp::Add,
        1 => BinOp::Sub,
        2 => BinOp::Mul,
        3 => BinOp::Min,
        4 => BinOp::Max,
        5 => BinOp::Div,
        _ => BinOp::Mod,
    };
    if matches!(op, BinOp::Div | BinOp::Mod) {
        // Keep divisors strictly positive.
        let b = Expr::binary(BinOp::Add, b.max(Expr::int(0)), Expr::int(1));
        Expr::binary(op, a, b)
    } else {
        Expr::binary(op, a, b)
    }
}

/// Checks `simplify(e) == e` under random bindings for `cases` random
/// expressions. Returns a description of the first counterexample.
pub fn check_simplify(seed: u64, cases: usize) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x51A9_71F1_0000_0003);
    let vars = [Var::int("a"), Var::int("b"), Var::int("c")];
    for case in 0..cases {
        let e = random_expr(&vars, 4, &mut rng);
        let s = simplify(&e);
        for _ in 0..4 {
            let bindings: Vec<(Var, i64)> = vars
                .iter()
                .map(|v| (v.clone(), rng.random_range(-9i64..9)))
                .collect();
            let want = eval_int(&e, &bindings).map_err(|err| err.to_string())?;
            let got = eval_int(&s, &bindings).map_err(|err| err.to_string())?;
            if got != want {
                return Err(format!(
                    "case {case}: simplify changed semantics ({want} -> {got}) for {e:?} \
                     under {:?}",
                    bindings
                        .iter()
                        .map(|(v, x)| (v.name().to_string(), *x))
                        .collect::<Vec<_>>()
                ));
            }
        }
    }
    Ok(())
}

/// Builds a random chain/diamond graph from a small op alphabet (shared
/// with the graph static oracle in [`crate::graph_oracle`]).
pub(crate) fn random_graph(rng: &mut StdRng) -> Graph {
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

/// Checks that [`plan_memory`] never assigns one storage slot to two
/// simultaneously-live group outputs, over `cases` random graphs.
pub fn check_plan_memory(seed: u64, cases: usize) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9141_u64.wrapping_mul(0x2545F4914F6CDD1D));
    for case in 0..cases {
        let g = random_graph(&mut rng);
        let fused = fuse(&g, true);
        let plan = plan_memory(&g, &fused);
        let consumers = g.consumers();
        let n_groups = fused.groups.len();
        // Last group index at which each group's output is still read.
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
            if si == usize::MAX {
                return Err(format!("case {case}: group {i} got no storage slot"));
            }
            let node = g.node(gi.output);
            let size = node.shape.iter().product::<i64>() as usize * node.dtype.bytes();
            if plan.slot_sizes[si] < size {
                return Err(format!(
                    "case {case}: slot {si} of {} bytes smaller than tensor ({size} bytes)",
                    plan.slot_sizes[si]
                ));
            }
            for (j, gj) in fused.groups.iter().enumerate().skip(i + 1) {
                let sj = plan.storage_of[gj.output.0];
                if si == sj && live_end[i] >= j {
                    return Err(format!(
                        "case {case}: slot {si} shared by group {i} (live until \
                         {}) and group {j}",
                        live_end[i]
                    ));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simplify_preserves_semantics_across_seeds() {
        check_simplify(0xABCD, 64).expect("no counterexample");
    }

    #[test]
    fn memory_plan_is_alias_free_across_seeds() {
        check_plan_memory(0xABCD, 64).expect("no counterexample");
    }

    #[test]
    fn checks_are_seed_deterministic() {
        // Same seed, same verdict (and no panics) twice in a row.
        assert_eq!(check_simplify(7, 16).is_ok(), check_simplify(7, 16).is_ok());
        assert_eq!(
            check_plan_memory(7, 16).is_ok(),
            check_plan_memory(7, 16).is_ok()
        );
    }
}
