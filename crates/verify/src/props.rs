//! Seeded property checks that ride along with the fuzzer: the simplifier
//! is semantics-preserving under random variable bindings. (The memory
//! plan's liveness is checked by `tvm_graph::check_memplan`, which the
//! graph static oracle runs over random graphs.)
//!
//! These are plain seeded loops (not `proptest` macros) so the `verify-fuzz`
//! binary can run them with a caller-chosen budget.

use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};
use tvm_ir::{simplify, BinOp, Expr, Var};

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simplify_preserves_semantics_across_seeds() {
        check_simplify(0xABCD, 64).expect("no counterexample");
    }

    #[test]
    fn checks_are_seed_deterministic() {
        // Same seed, same verdict (and no panics) twice in a row.
        assert_eq!(check_simplify(7, 16).is_ok(), check_simplify(7, 16).is_ok());
    }
}
