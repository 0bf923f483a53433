//! Affine index machinery shared by the bounds and race passes.
//!
//! Lowered index expressions are sums of scaled *atoms*: loop variables,
//! and floor-div / floor-mod of a nested affine form by a positive
//! constant — exactly the shapes `split` and `fuse` produce. This module
//! normalizes expressions into that form ([`normalize`]), evaluates the
//! interval of a form under variable ranges and guard-derived upper
//! bounds ([`form_interval`]), extracts those upper bounds from guard
//! predicates ([`guard_constraints`]), and concretely evaluates integer
//! expressions under a full assignment ([`eval_const`]) for bounds
//! witnesses.

use std::cmp::Ordering;
use std::collections::HashMap;

use tvm_ir::{floor_div, floor_mod, BinOp, CmpOp, Expr, ExprNode, Interval, Var, VarId};

/// An opaque term of a linear form.
#[derive(Clone, Debug)]
pub enum Atom {
    /// A loop / let variable.
    Var(Var),
    /// `floor(form / c)` for a positive constant `c`.
    Div(Box<LinForm>, i64),
    /// `form mod c` (floor modulus) for a positive constant `c`.
    Mod(Box<LinForm>, i64),
}

/// `konst + sum(coef_i * atom_i)` with canonically sorted, merged terms.
#[derive(Clone, Debug)]
pub struct LinForm {
    /// Scaled atoms, sorted by [`cmp_atom`], no zero coefficients.
    pub terms: Vec<(Atom, i64)>,
    /// Constant offset.
    pub konst: i64,
}

/// Total order on atoms (variables by id, then structure).
pub fn cmp_atom(a: &Atom, b: &Atom) -> Ordering {
    match (a, b) {
        (Atom::Var(x), Atom::Var(y)) => x.id().cmp(&y.id()),
        (Atom::Var(_), _) => Ordering::Less,
        (_, Atom::Var(_)) => Ordering::Greater,
        (Atom::Div(f, c), Atom::Div(g, d)) | (Atom::Mod(f, c), Atom::Mod(g, d)) => {
            c.cmp(d).then_with(|| cmp_form(f, g))
        }
        (Atom::Div(..), Atom::Mod(..)) => Ordering::Less,
        (Atom::Mod(..), Atom::Div(..)) => Ordering::Greater,
    }
}

/// Total order on forms (lexicographic over terms, then constant).
pub fn cmp_form(a: &LinForm, b: &LinForm) -> Ordering {
    let n = a.terms.len().cmp(&b.terms.len());
    if n != Ordering::Equal {
        return n;
    }
    for ((aa, ca), (ab, cb)) in a.terms.iter().zip(&b.terms) {
        let o = cmp_atom(aa, ab).then(ca.cmp(cb));
        if o != Ordering::Equal {
            return o;
        }
    }
    a.konst.cmp(&b.konst)
}

/// Structural equality of atoms.
pub fn atom_eq(a: &Atom, b: &Atom) -> bool {
    cmp_atom(a, b) == Ordering::Equal
}

/// Structural equality of forms.
pub fn form_eq(a: &LinForm, b: &LinForm) -> bool {
    cmp_form(a, b) == Ordering::Equal
}

impl LinForm {
    /// The constant form.
    pub fn constant(c: i64) -> Self {
        LinForm {
            terms: Vec::new(),
            konst: c,
        }
    }

    /// A single unscaled variable.
    pub fn var(v: &Var) -> Self {
        LinForm {
            terms: vec![(Atom::Var(v.clone()), 1)],
            konst: 0,
        }
    }

    /// `Some(k)` when the form has no atoms.
    pub fn as_const(&self) -> Option<i64> {
        if self.terms.is_empty() {
            Some(self.konst)
        } else {
            None
        }
    }

    /// Multiplies every term and the constant by `k`.
    pub fn scaled(&self, k: i64) -> LinForm {
        if k == 0 {
            return LinForm::constant(0);
        }
        LinForm {
            terms: self
                .terms
                .iter()
                .map(|(a, c)| (a.clone(), c.wrapping_mul(k)))
                .collect(),
            konst: self.konst.wrapping_mul(k),
        }
    }

    /// Canonical sum of two forms (terms merged, zeros dropped).
    pub fn add(&self, other: &LinForm) -> LinForm {
        let mut terms = self.terms.clone();
        terms.extend(other.terms.iter().cloned());
        terms.sort_by(|(a, _), (b, _)| cmp_atom(a, b));
        let mut merged: Vec<(Atom, i64)> = Vec::with_capacity(terms.len());
        for (a, c) in terms {
            match merged.last_mut() {
                Some((last, lc)) if atom_eq(last, &a) => *lc = lc.wrapping_add(c),
                _ => merged.push((a, c)),
            }
        }
        merged.retain(|(_, c)| *c != 0);
        LinForm {
            terms: merged,
            konst: self.konst.wrapping_add(other.konst),
        }
    }

    /// All root variables mentioned (transitively through div/mod atoms).
    pub fn vars(&self, out: &mut Vec<VarId>) {
        for (a, _) in &self.terms {
            atom_vars(a, out);
        }
    }
}

/// Root variables of an atom.
pub fn atom_vars(a: &Atom, out: &mut Vec<VarId>) {
    match a {
        Atom::Var(v) => {
            if !out.contains(&v.id()) {
                out.push(v.id());
            }
        }
        Atom::Div(f, _) | Atom::Mod(f, _) => f.vars(out),
    }
}

/// Normalizes an integer expression into a [`LinForm`]. Returns `None`
/// for non-affine shapes (loads, min/max, non-constant divisors, ...).
pub fn normalize(e: &Expr) -> Option<LinForm> {
    match &*e.0 {
        ExprNode::IntImm { value, .. } => Some(LinForm::constant(*value)),
        ExprNode::Var(v) => Some(LinForm::var(v)),
        ExprNode::Cast { dtype, value } if dtype.is_int() => normalize(value),
        ExprNode::Binary { op, a, b, .. } => {
            let op = *op;
            match op {
                BinOp::Add => Some(normalize(a)?.add(&normalize(b)?)),
                BinOp::Sub => Some(normalize(a)?.add(&normalize(b)?.scaled(-1))),
                BinOp::Mul => {
                    let fa = normalize(a)?;
                    let fb = normalize(b)?;
                    if let Some(k) = fa.as_const() {
                        Some(fb.scaled(k))
                    } else {
                        fb.as_const().map(|k| fa.scaled(k))
                    }
                }
                BinOp::Div | BinOp::Mod => {
                    let c = normalize(b)?.as_const()?;
                    if c <= 0 {
                        return None;
                    }
                    let fa = normalize(a)?;
                    if let Some(k) = fa.as_const() {
                        return Some(LinForm::constant(if op == BinOp::Div {
                            floor_div(k, c)
                        } else {
                            floor_mod(k, c)
                        }));
                    }
                    if c == 1 {
                        return Some(if op == BinOp::Div {
                            fa
                        } else {
                            LinForm::constant(0)
                        });
                    }
                    let atom = if op == BinOp::Div {
                        Atom::Div(Box::new(fa), c)
                    } else {
                        Atom::Mod(Box::new(fa), c)
                    };
                    Some(LinForm {
                        terms: vec![(atom, 1)],
                        konst: 0,
                    })
                }
                _ => None,
            }
        }
        _ => None,
    }
}

/// Variable ranges plus guard-derived upper bounds, for interval queries
/// on forms.
pub struct RangeEnv<'a> {
    /// Closed range of each variable.
    pub ranges: &'a HashMap<VarId, Interval>,
    /// `form <= bound` facts extracted from enclosing guards.
    pub constraints: &'a [(LinForm, i64)],
}

/// Interval of an atom under the environment.
pub fn atom_interval(a: &Atom, env: &RangeEnv<'_>) -> Option<Interval> {
    match a {
        Atom::Var(v) => env.ranges.get(&v.id()).copied(),
        Atom::Div(f, c) => form_interval(f, env).map(|iv| Interval {
            min: floor_div(iv.min, *c),
            max: floor_div(iv.max, *c),
        }),
        Atom::Mod(f, c) => {
            if let Some(iv) = form_interval(f, env) {
                // Exact when the numerator stays within one period.
                if floor_div(iv.min, *c) == floor_div(iv.max, *c) {
                    return Some(Interval {
                        min: floor_mod(iv.min, *c),
                        max: floor_mod(iv.max, *c),
                    });
                }
            }
            Some(Interval {
                min: 0,
                max: *c - 1,
            })
        }
    }
}

/// Interval of a form: sum of scaled atom intervals, clamped by any
/// matching guard constraint. `None` when a variable has no known range
/// or a guard makes the site unreachable.
pub fn form_interval(f: &LinForm, env: &RangeEnv<'_>) -> Option<Interval> {
    let mut lo = f.konst as i128;
    let mut hi = f.konst as i128;
    for (a, c) in &f.terms {
        let iv = atom_interval(a, env)?;
        let (tlo, thi) = if *c >= 0 {
            (iv.min as i128 * *c as i128, iv.max as i128 * *c as i128)
        } else {
            (iv.max as i128 * *c as i128, iv.min as i128 * *c as i128)
        };
        lo += tlo;
        hi += thi;
    }
    for (cf, ub) in env.constraints {
        if form_eq(cf, f) {
            hi = hi.min(*ub as i128);
        }
    }
    if lo > hi {
        return None;
    }
    let clamp = |x: i128| x.clamp(i64::MIN as i128, i64::MAX as i128) as i64;
    Some(Interval {
        min: clamp(lo),
        max: clamp(hi),
    })
}

/// Extracts `form <= bound` facts from a guard conjunction. Only
/// upper-bound comparisons against constants are kept (lower bounds are
/// already captured by loop ranges).
pub fn guard_constraints(guards: &[Expr]) -> Vec<(LinForm, i64)> {
    let mut out = Vec::new();
    for g in guards {
        collect_constraints(g, &mut out);
    }
    out
}

fn collect_constraints(g: &Expr, out: &mut Vec<(LinForm, i64)>) {
    match &*g.0 {
        ExprNode::And { a, b } => {
            collect_constraints(a, out);
            collect_constraints(b, out);
        }
        ExprNode::Cmp { op, a, b } => {
            let (form, bound) = if let Some(k) = b.as_int() {
                match op {
                    CmpOp::Lt => (normalize(a), k - 1),
                    CmpOp::Le => (normalize(a), k),
                    _ => (None, 0),
                }
            } else if let Some(k) = a.as_int() {
                match op {
                    CmpOp::Gt => (normalize(b), k - 1),
                    CmpOp::Ge => (normalize(b), k),
                    _ => (None, 0),
                }
            } else {
                (None, 0)
            };
            if let Some(f) = form {
                if !f.terms.is_empty() {
                    // Fold the form's own constant into the bound so that
                    // `x + 2 <= 9` stores `x <= 7`.
                    let k = f.konst;
                    out.push((
                        LinForm {
                            terms: f.terms,
                            konst: 0,
                        },
                        bound - k,
                    ));
                }
            }
        }
        _ => {}
    }
}

/// Concretely evaluates an integer expression under a full assignment.
/// Returns `None` on loads, calls, floats, missing variables, division
/// by zero or overflow — witness search simply skips such points.
pub fn eval_const(e: &Expr, env: &HashMap<VarId, i64>) -> Option<i64> {
    match &*e.0 {
        ExprNode::IntImm { value, .. } => Some(*value),
        ExprNode::Var(v) => env.get(&v.id()).copied(),
        ExprNode::Cast { dtype, value } if dtype.is_int() => eval_const(value, env),
        ExprNode::Binary { op, a, b, .. } => {
            let x = eval_const(a, env)?;
            let y = eval_const(b, env)?;
            match op {
                BinOp::Add => x.checked_add(y),
                BinOp::Sub => x.checked_sub(y),
                BinOp::Mul => x.checked_mul(y),
                BinOp::Div => (y != 0).then(|| floor_div(x, y)),
                BinOp::Mod => (y != 0).then(|| floor_mod(x, y)),
                BinOp::Min => Some(x.min(y)),
                BinOp::Max => Some(x.max(y)),
                BinOp::BitAnd => Some(x & y),
                BinOp::BitOr => Some(x | y),
                BinOp::BitXor => Some(x ^ y),
                BinOp::Shl => (0..64).contains(&y).then(|| x.wrapping_shl(y as u32)),
                BinOp::Shr => (0..64).contains(&y).then(|| x.wrapping_shr(y as u32)),
            }
        }
        ExprNode::Cmp { op, a, b } => {
            let x = eval_const(a, env)?;
            let y = eval_const(b, env)?;
            let r = match op {
                CmpOp::Eq => x == y,
                CmpOp::Ne => x != y,
                CmpOp::Lt => x < y,
                CmpOp::Le => x <= y,
                CmpOp::Gt => x > y,
                CmpOp::Ge => x >= y,
            };
            Some(r as i64)
        }
        ExprNode::And { a, b } => {
            Some((eval_const(a, env)? != 0 && eval_const(b, env)? != 0) as i64)
        }
        ExprNode::Or { a, b } => {
            Some((eval_const(a, env)? != 0 || eval_const(b, env)? != 0) as i64)
        }
        ExprNode::Not { a } => Some((eval_const(a, env)? == 0) as i64),
        ExprNode::Select {
            cond,
            then_case,
            else_case,
        } => {
            if eval_const(cond, env)? != 0 {
                eval_const(then_case, env)
            } else {
                eval_const(else_case, env)
            }
        }
        ExprNode::Let { var, value, body } => {
            let v = eval_const(value, env)?;
            let mut inner = env.clone();
            inner.insert(var.id(), v);
            eval_const(body, &inner)
        }
        ExprNode::Broadcast { value, .. } => eval_const(value, env),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(min: i64, max: i64) -> Interval {
        Interval { min, max }
    }

    #[test]
    fn normalize_split_fuse_shapes() {
        let x = Var::int("x");
        let y = Var::int("y");
        // (x*4 + y) and its div/mod decomposition.
        let fused = x.clone() * 4 + y.clone();
        let f = normalize(&fused).unwrap();
        assert_eq!(f.terms.len(), 2);
        assert_eq!(f.konst, 0);

        let outer = fused.clone() / 8;
        let fo = normalize(&outer).unwrap();
        assert_eq!(fo.terms.len(), 1);
        assert!(matches!(fo.terms[0].0, Atom::Div(_, 8)));

        let inner = fused % 8;
        let fi = normalize(&inner).unwrap();
        assert!(matches!(fi.terms[0].0, Atom::Mod(_, 8)));
    }

    #[test]
    fn normalize_merges_and_cancels() {
        let x = Var::int("x");
        let e = x.clone() * 3 + x.clone() * 2 - x.clone() * 5 + 7;
        let f = normalize(&e).unwrap();
        assert_eq!(f.as_const(), Some(7));
    }

    #[test]
    fn form_intervals_respect_ranges_and_constraints() {
        let x = Var::int("x");
        let y = Var::int("y");
        let mut ranges = HashMap::new();
        ranges.insert(x.id(), iv(0, 3));
        ranges.insert(y.id(), iv(0, 3));
        let fused = normalize(&(x.clone() * 4 + y.clone())).unwrap();

        let env = RangeEnv {
            ranges: &ranges,
            constraints: &[],
        };
        assert_eq!(form_interval(&fused, &env), Some(iv(0, 15)));

        // Guard `x*4 + y < 14` tightens the upper bound.
        let guards = [(x.clone() * 4 + y.clone()).lt(Expr::int(14))];
        let cs = guard_constraints(&guards);
        assert_eq!(cs.len(), 1);
        assert_eq!(cs[0].1, 13);
        let env = RangeEnv {
            ranges: &ranges,
            constraints: &cs,
        };
        assert_eq!(form_interval(&fused, &env), Some(iv(0, 13)));
    }

    #[test]
    fn mod_interval_exact_within_one_period() {
        let x = Var::int("x");
        let mut ranges = HashMap::new();
        ranges.insert(x.id(), iv(8, 10));
        let f = normalize(&(x.clone() % 16)).unwrap();
        let env = RangeEnv {
            ranges: &ranges,
            constraints: &[],
        };
        assert_eq!(form_interval(&f, &env), Some(iv(8, 10)));
    }

    #[test]
    fn eval_const_handles_floor_semantics() {
        let x = Var::int("x");
        let mut env = HashMap::new();
        env.insert(x.id(), -7i64);
        assert_eq!(eval_const(&(x.clone() / 4), &env), Some(-2));
        assert_eq!(eval_const(&(x.clone() % 4), &env), Some(1));
        let sel = Expr::select(x.to_expr().lt(Expr::int(0)), Expr::int(1), Expr::int(2));
        assert_eq!(eval_const(&sel, &env), Some(1));
    }
}
