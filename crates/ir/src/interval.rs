//! Constant-interval analysis over integer expressions.
//!
//! Used by bound inference (to compute the region of a producer tensor a
//! consumer touches), by the simplifier (to discharge provably-true
//! predicates) and by the hardware cost models (to bound index footprints).

use std::collections::HashMap;
use std::hash::BuildHasher;

use crate::expr::{BinOp, CmpOp, Expr, ExprNode, VarId};

/// A closed integer interval `[min, max]`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Interval {
    /// Inclusive lower bound.
    pub min: i64,
    /// Inclusive upper bound.
    pub max: i64,
}

impl Interval {
    /// A single-point interval.
    pub fn point(v: i64) -> Self {
        Interval { min: v, max: v }
    }

    /// An interval from bounds; panics in debug builds when `min > max`.
    pub fn new(min: i64, max: i64) -> Self {
        debug_assert!(min <= max, "invalid interval [{min}, {max}]");
        Interval { min, max }
    }

    /// The number of integers contained; `None` past `i64`.
    pub fn extent(&self) -> Option<i64> {
        self.max.checked_sub(self.min)?.checked_add(1)
    }

    /// Smallest interval containing both.
    pub fn union(self, other: Interval) -> Interval {
        Interval {
            min: self.min.min(other.min),
            max: self.max.max(other.max),
        }
    }

    /// True if the interval is the single point `v`.
    pub fn is_point(&self, v: i64) -> bool {
        self.min == v && self.max == v
    }

    fn add(self, o: Interval) -> Interval {
        Interval {
            min: self.min.saturating_add(o.min),
            max: self.max.saturating_add(o.max),
        }
    }

    fn sub(self, o: Interval) -> Interval {
        Interval {
            min: self.min.saturating_sub(o.max),
            max: self.max.saturating_sub(o.min),
        }
    }

    /// The least interval holding every candidate.
    fn hull([a, b, c, d]: [i64; 4]) -> Interval {
        Interval {
            min: a.min(b).min(c).min(d),
            max: a.max(b).max(c).max(d),
        }
    }

    fn mul(self, o: Interval) -> Interval {
        let cands = [
            self.min.saturating_mul(o.min),
            self.min.saturating_mul(o.max),
            self.max.saturating_mul(o.min),
            self.max.saturating_mul(o.max),
        ];
        Interval::hull(cands)
    }

    fn floordiv(self, o: Interval) -> Option<Interval> {
        // Only handle divisors that do not straddle zero.
        if o.min <= 0 && o.max >= 0 {
            return None;
        }
        // `i64::MIN // -1` wraps, and a wrapped corner bounds nothing.
        let corner = |a: i64, b: i64| a.checked_div(b).map(|_| floor_div(a, b));
        let cands = [
            corner(self.min, o.min)?,
            corner(self.min, o.max)?,
            corner(self.max, o.min)?,
            corner(self.max, o.max)?,
        ];
        Some(Interval::hull(cands))
    }

    fn floormod(self, o: Interval) -> Option<Interval> {
        if o.min <= 0 {
            return None;
        }
        // If the whole interval falls inside one modulus period, mod is
        // exact; otherwise fall back to [0, divisor-1].
        if o.min == o.max {
            let m = o.min;
            let qa = floor_div(self.min, m);
            let qb = floor_div(self.max, m);
            if qa == qb {
                return Some(Interval::new(
                    floor_mod(self.min, m),
                    floor_mod(self.max, m),
                ));
            }
        }
        Some(Interval::new(0, o.max - 1))
    }
}

/// Floor division matching the IR's integer `Div` semantics. Like the
/// IR's `+ - *` it wraps: `i64::MIN // -1` is `i64::MIN`. Panics when `b`
/// is zero.
pub fn floor_div(a: i64, b: i64) -> i64 {
    let q = a.wrapping_div(b);
    if (a.wrapping_rem(b) != 0) && ((a < 0) != (b < 0)) {
        q - 1
    } else {
        q
    }
}

/// Floor modulus matching the IR's integer `Mod` semantics: the sign of
/// `b`, and `i64::MIN % -1` is `0`. Panics when `b` is zero.
pub fn floor_mod(a: i64, b: i64) -> i64 {
    // The result is an `i64`, so the wrapping arithmetic is exact.
    a.wrapping_sub(floor_div(a, b).wrapping_mul(b))
}

/// Computes a conservative interval for an integer expression given
/// intervals for its free variables. Returns `None` when the expression is
/// non-integer or unbounded under this analysis.
pub fn eval_interval<S: BuildHasher + Clone>(
    e: &Expr,
    bounds: &HashMap<VarId, Interval, S>,
) -> Option<Interval> {
    use ExprNode::*;
    match &*e.0 {
        IntImm { value, .. } => Some(Interval::point(*value)),
        Var(v) => bounds.get(&v.id()).copied(),
        Cast { value, dtype } if dtype.is_int() => eval_interval(value, bounds),
        Binary { op, a, b, .. } => {
            let ia = eval_interval(a, bounds)?;
            let ib = eval_interval(b, bounds)?;
            match op {
                BinOp::Add => Some(ia.add(ib)),
                BinOp::Sub => Some(ia.sub(ib)),
                BinOp::Mul => Some(ia.mul(ib)),
                BinOp::Div => ia.floordiv(ib),
                BinOp::Mod => ia.floormod(ib),
                BinOp::Min => Some(Interval::new(ia.min.min(ib.min), ia.max.min(ib.max))),
                BinOp::Max => Some(Interval::new(ia.min.max(ib.min), ia.max.max(ib.max))),
                _ => None,
            }
        }
        Select {
            then_case,
            else_case,
            ..
        } => {
            let it = eval_interval(then_case, bounds)?;
            let ie = eval_interval(else_case, bounds)?;
            Some(it.union(ie))
        }
        Let { var, value, body } => {
            let iv = eval_interval(value, bounds)?;
            let mut inner = bounds.clone();
            inner.insert(var.id(), iv);
            eval_interval(body, &inner)
        }
        _ => None,
    }
}

/// Attempts to prove a comparison true or false via interval analysis.
/// Returns `None` when undecidable.
pub fn prove_cmp<S: BuildHasher + Clone>(
    op: CmpOp,
    a: &Expr,
    b: &Expr,
    bounds: &HashMap<VarId, Interval, S>,
) -> Option<bool> {
    let ia = eval_interval(a, bounds)?;
    let ib = eval_interval(b, bounds)?;
    match op {
        CmpOp::Lt => {
            if ia.max < ib.min {
                Some(true)
            } else if ia.min >= ib.max {
                Some(false)
            } else {
                None
            }
        }
        CmpOp::Le => {
            if ia.max <= ib.min {
                Some(true)
            } else if ia.min > ib.max {
                Some(false)
            } else {
                None
            }
        }
        CmpOp::Gt => prove_cmp(CmpOp::Lt, b, a, bounds),
        CmpOp::Ge => prove_cmp(CmpOp::Le, b, a, bounds),
        CmpOp::Eq => {
            if ia.is_point(ib.min) && ib.is_point(ia.min) {
                Some(true)
            } else if ia.max < ib.min || ib.max < ia.min {
                Some(false)
            } else {
                None
            }
        }
        CmpOp::Ne => prove_cmp(CmpOp::Eq, a, b, bounds).map(|v| !v),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Var;

    fn b(v: &Var, min: i64, max: i64) -> HashMap<VarId, Interval> {
        let mut m = HashMap::new();
        m.insert(v.id(), Interval::new(min, max));
        m
    }

    #[test]
    fn floor_semantics() {
        assert_eq!(floor_div(7, 2), 3);
        assert_eq!(floor_div(-7, 2), -4);
        assert_eq!(floor_mod(-7, 2), 1);
        assert_eq!(floor_mod(7, 2), 1);
    }

    #[test]
    fn affine_interval() {
        let x = Var::int("x");
        let e = x.clone() * 8 + 3;
        let iv = eval_interval(&e, &b(&x, 0, 15)).expect("bounded");
        assert_eq!(iv, Interval::new(3, 123));
    }

    #[test]
    fn division_interval() {
        let x = Var::int("x");
        let e = x.clone() / 4;
        let iv = eval_interval(&e, &b(&x, 0, 15)).expect("bounded");
        assert_eq!(iv, Interval::new(0, 3));
    }

    #[test]
    fn modulus_within_one_period_is_exact() {
        let x = Var::int("x");
        let e = x.clone() % 8;
        let iv = eval_interval(&e, &b(&x, 2, 5)).expect("bounded");
        assert_eq!(iv, Interval::new(2, 5));
        let iv = eval_interval(&e, &b(&x, 2, 11)).expect("bounded");
        assert_eq!(iv, Interval::new(0, 7));
    }

    #[test]
    fn min_max_intervals() {
        let x = Var::int("x");
        let e = x.to_expr().min(Expr::int(10));
        let iv = eval_interval(&e, &b(&x, 5, 20)).expect("bounded");
        assert_eq!(iv, Interval::new(5, 10));
    }

    #[test]
    fn prove_bounds_check() {
        let x = Var::int("x");
        // x in [0, 7] proves x < 8.
        assert_eq!(
            prove_cmp(CmpOp::Lt, &x.to_expr(), &Expr::int(8), &b(&x, 0, 7)),
            Some(true)
        );
        assert_eq!(
            prove_cmp(CmpOp::Lt, &x.to_expr(), &Expr::int(7), &b(&x, 0, 7)),
            None
        );
        assert_eq!(
            prove_cmp(CmpOp::Ge, &x.to_expr(), &Expr::int(0), &b(&x, 0, 7)),
            Some(true)
        );
    }

    #[test]
    fn unbounded_var_is_none() {
        let x = Var::int("x");
        assert!(eval_interval(&x.to_expr(), &HashMap::new()).is_none());
    }
}
