//! Exhaustive small-domain sweeps for the IR's integer arithmetic:
//! `floor_div` / `floor_mod` satisfy the Euclidean identities across all
//! sign combinations, and interval analysis is sound for every concrete
//! point of every small range. These complement the randomized checks in
//! `props.rs` with complete coverage of the small domains where off-by-one
//! and sign bugs actually live.

use std::collections::HashMap;

use tvm_ir::{
    eval_interval, floor_div, floor_mod, prove_cmp, simplify, CmpOp, Expr, Interval, Var, VarId,
};
use tvm_verify::reference::eval_int;

#[test]
fn euclidean_identity_all_sign_cases() {
    // a == (a // b) * b + (a % b) for every dividend/divisor combination.
    for a in -60i64..=60 {
        for b in (-12i64..=12).filter(|&b| b != 0) {
            let q = floor_div(a, b);
            let m = floor_mod(a, b);
            assert_eq!(q * b + m, a, "identity broken for {a} / {b}");
        }
    }
}

#[test]
fn floor_mod_takes_the_divisor_sign() {
    for a in -60i64..=60 {
        for b in 1i64..=12 {
            let m = floor_mod(a, b);
            assert!(
                (0..b).contains(&m),
                "floor_mod({a}, {b}) = {m} not in [0, {b})"
            );
            // Positive divisors match Rust's Euclidean remainder.
            assert_eq!(m, a.rem_euclid(b), "floor_mod({a}, {b})");
            assert_eq!(floor_div(a, b), a.div_euclid(b), "floor_div({a}, {b})");
            // Negative divisors mirror: remainder in (b, 0].
            let mn = floor_mod(a, -b);
            assert!((-b < mn) && (mn <= 0), "floor_mod({a}, {}) = {mn}", -b);
        }
    }
}

#[test]
fn floor_div_is_monotone_in_the_dividend() {
    for b in 1i64..=12 {
        for a in -60i64..60 {
            assert!(
                floor_div(a, b) <= floor_div(a + 1, b),
                "floor_div not monotone at {a} / {b}"
            );
        }
    }
}

#[test]
fn simplifier_and_interpreter_agree_with_floor_semantics() {
    // Constant folding in `simplify` and evaluation in the reference walker
    // must both implement the same floor semantics as the reference
    // functions.
    for a in -20i64..=20 {
        for b in (-6i64..=6).filter(|&b| b != 0) {
            let div = Expr::int(a) / Expr::int(b);
            let md = Expr::int(a) % Expr::int(b);
            assert_eq!(
                simplify(&div).as_int(),
                Some(floor_div(a, b)),
                "simplify({a} / {b})"
            );
            assert_eq!(
                simplify(&md).as_int(),
                Some(floor_mod(a, b)),
                "simplify({a} % {b})"
            );
            assert_eq!(eval_int(&div, &[]).unwrap(), floor_div(a, b));
            assert_eq!(eval_int(&md, &[]).unwrap(), floor_mod(a, b));
        }
    }
}

/// All intervals with bounds in `[lo, hi]`.
fn small_intervals(lo: i64, hi: i64) -> Vec<Interval> {
    let mut v = Vec::new();
    for min in lo..=hi {
        for max in min..=hi {
            v.push(Interval::new(min, max));
        }
    }
    v
}

#[test]
fn interval_analysis_is_sound_on_every_small_range() {
    let x = Var::int("x");
    let y = Var::int("y");
    // Expression shapes chosen to hit every interval transfer function,
    // including the divisor-sign and mod-period special cases.
    let shapes: Vec<(&str, Expr)> = vec![
        ("add", x.clone() + y.clone()),
        ("sub_mul", x.clone() * 3 - y.clone() * 2),
        ("div", x.clone() / (y.to_expr().max(Expr::int(0)) + 1)),
        ("mod", x.clone() % (y.to_expr().max(Expr::int(0)) + 1)),
        ("minmax", (x.to_expr().min(y.to_expr())).max(x.clone() - 2)),
        (
            "affine_divmod",
            (x.clone() * 5 + y.clone()) % 7 + (x.clone() * 5 + y.clone()) / 7,
        ),
    ];
    for ix in small_intervals(-3, 3) {
        for iy in small_intervals(-3, 3) {
            let mut bounds: HashMap<VarId, Interval> = HashMap::new();
            bounds.insert(x.id(), ix);
            bounds.insert(y.id(), iy);
            for (name, e) in &shapes {
                let Some(iv) = eval_interval(e, &bounds) else {
                    continue; // declining to bound is always sound
                };
                for xv in ix.min..=ix.max {
                    for yv in iy.min..=iy.max {
                        let got =
                            eval_int(e, &[(x.clone(), xv), (y.clone(), yv)]).expect("evaluates");
                        assert!(
                            iv.min <= got && got <= iv.max,
                            "{name}: value {got} at (x={xv}, y={yv}) escapes \
                             [{}, {}] for x in [{}, {}], y in [{}, {}]",
                            iv.min,
                            iv.max,
                            ix.min,
                            ix.max,
                            iy.min,
                            iy.max
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn proved_comparisons_hold_at_every_point() {
    let x = Var::int("x");
    let y = Var::int("y");
    let ops = [
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
        CmpOp::Eq,
        CmpOp::Ne,
    ];
    let lhs = x.clone() * 2 + 1;
    let rhs = y.to_expr();
    for ix in small_intervals(-3, 3) {
        for iy in small_intervals(-3, 3) {
            let mut bounds: HashMap<VarId, Interval> = HashMap::new();
            bounds.insert(x.id(), ix);
            bounds.insert(y.id(), iy);
            for op in ops {
                let Some(verdict) = prove_cmp(op, &lhs, &rhs, &bounds) else {
                    continue;
                };
                for xv in ix.min..=ix.max {
                    for yv in iy.min..=iy.max {
                        let a = 2 * xv + 1;
                        let concrete = match op {
                            CmpOp::Lt => a < yv,
                            CmpOp::Le => a <= yv,
                            CmpOp::Gt => a > yv,
                            CmpOp::Ge => a >= yv,
                            CmpOp::Eq => a == yv,
                            CmpOp::Ne => a != yv,
                        };
                        assert_eq!(
                            concrete, verdict,
                            "{op:?} misproved at (x={xv}, y={yv}) for x in \
                             [{}, {}], y in [{}, {}]",
                            ix.min, ix.max, iy.min, iy.max
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn i64_min_by_minus_one_wraps_and_is_neither_folded_nor_bounded() {
    // The only `i64` quotient that overflows wraps, as the IR's `+ - *` do:
    // `i64::MIN // -1` is `i64::MIN`, remainder `0`, in the reference
    // functions and in the walker's evaluation.
    let min = i64::MIN;
    assert_eq!((floor_div(min, -1), floor_mod(min, -1)), (min, 0));
    let div = Expr::int(min) / Expr::int(-1);
    let md = Expr::int(min) % Expr::int(-1);
    assert_eq!(eval_int(&div, &[]).unwrap(), min);
    assert_eq!(eval_int(&md, &[]).unwrap(), 0);
    // The simplifier declines to fold the wrapped quotient, as it declines
    // an overflowing `*`, and folds the exact remainder.
    assert_eq!(simplify(&div).as_int(), None, "{}", simplify(&div));
    let product = Expr::int(min) * Expr::int(-1);
    assert_eq!(simplify(&product).as_int(), None);
    assert_eq!(simplify(&md).as_int(), Some(0));
    // A wrapped corner would bound `x // -1` by `[0, i64::MIN]`'s hull:
    // interval analysis declines instead, and bounds the range one above.
    let (x, y) = (Var::int("x"), Var::int("y"));
    let mut bounds: HashMap<VarId, Interval> = HashMap::new();
    bounds.insert(y.id(), Interval::new(-2, -1));
    for (lo, want) in [(min, None), (min + 1, Some(Interval::new(0, i64::MAX)))] {
        bounds.insert(x.id(), Interval::new(lo, 0));
        assert_eq!(eval_interval(&(x.clone() / -1), &bounds), want, "{lo}");
        let by_y = eval_interval(&(x.clone() / y.clone()), &bounds);
        assert_eq!(by_y.is_some(), want.is_some(), "{lo}");
    }
}
