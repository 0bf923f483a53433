//! Algebraic simplifier.
//!
//! Performs constant folding, identity elimination (`x+0`, `x*1`, `x*0`),
//! light affine canonicalization (`(x+c1)+c2 → x+(c1+c2)`), and — when
//! variable ranges are supplied — interval-based predicate elimination,
//! which is what lets lowering drop always-true bounds checks.

use std::collections::HashMap;
use std::hash::BuildHasher;

use crate::dtype::{DType, TypeCode};
use crate::expr::{BinOp, CmpOp, Expr, ExprNode, VarId};
use crate::idhash::IdMap;
use crate::interval::{eval_interval, floor_div, floor_mod, prove_cmp, Interval};
use crate::stmt::{Stmt, StmtNode};
use crate::visit::Mutator;

/// Simplifier with an optional variable-range context.
pub struct Simplifier {
    bounds: IdMap<VarId, Interval>,
    /// Unit-extent loops being inlined, outermost first: each loop's
    /// variable and its simplified `min`.
    inlined: Vec<(VarId, Expr)>,
    /// Entries of `inlined` before this one are already applied to the
    /// replacement being simplified.
    inlined_from: usize,
}

impl Default for Simplifier {
    fn default() -> Self {
        Self::new()
    }
}

impl Simplifier {
    /// Simplifier with no range information.
    pub fn new() -> Self {
        Self::with_bounds(IdMap::default())
    }

    /// Simplifier that may use `bounds` to prove predicates.
    pub fn with_bounds(bounds: IdMap<VarId, Interval>) -> Self {
        Simplifier {
            bounds,
            inlined: Vec::new(),
            inlined_from: 0,
        }
    }

    fn fold_int_binop(op: BinOp, a: i64, b: i64) -> Option<i64> {
        Some(match op {
            BinOp::Add => a.checked_add(b)?,
            BinOp::Sub => a.checked_sub(b)?,
            BinOp::Mul => a.checked_mul(b)?,
            BinOp::Div => {
                // Declines a zero divisor and `i64::MIN // -1`, which wraps.
                a.checked_div(b)?;
                floor_div(a, b)
            }
            BinOp::Mod => {
                if b == 0 {
                    return None;
                }
                floor_mod(a, b)
            }
            BinOp::Min => a.min(b),
            BinOp::Max => a.max(b),
            BinOp::BitAnd => a & b,
            BinOp::BitOr => a | b,
            BinOp::BitXor => a ^ b,
            BinOp::Shl => {
                if !(0..64).contains(&b) {
                    return None;
                }
                a.checked_shl(b as u32)?
            }
            BinOp::Shr => {
                if !(0..64).contains(&b) {
                    return None;
                }
                a >> b
            }
        })
    }

    fn fold_float_binop(op: BinOp, a: f64, b: f64) -> Option<f64> {
        Some(match op {
            BinOp::Add => a + b,
            BinOp::Sub => a - b,
            BinOp::Mul => a * b,
            BinOp::Div => a / b,
            BinOp::Min => a.min(b),
            BinOp::Max => a.max(b),
            _ => return None,
        })
    }

    /// Simplifies `a op b` with both operands already simplified. `node` is
    /// the tree being rewritten when `a` and `b` are its (possibly
    /// unchanged) operands: it is handed back instead of an equal copy when
    /// nothing folds.
    fn simplify_binary(&mut self, op: BinOp, a: Expr, b: Expr, node: Option<&Expr>) -> Expr {
        // Constant folding.
        if let (Some(x), Some(y)) = (a.as_int(), b.as_int()) {
            if let Some(v) = Self::fold_int_binop(op, x, y) {
                return Expr::int_of(v, a.dtype());
            }
        }
        if let (Some(x), Some(y)) = (a.as_float(), b.as_float()) {
            if let Some(v) = Self::fold_float_binop(op, x, y) {
                return Expr::new(ExprNode::FloatImm {
                    value: v,
                    dtype: a.dtype(),
                });
            }
        }
        // Canonicalize: move the constant to the right for commutative ops.
        let (a, b) = if op.commutative() && is_const(&a) && !is_const(&b) {
            (b, a)
        } else {
            (a, b)
        };
        let is_float = a.dtype().is_float();
        match op {
            BinOp::Add => {
                if is_zero(&b) {
                    return a;
                }
                if is_zero(&a) {
                    return b;
                }
                // (x + c1) + c2 -> x + (c1 + c2)
                if let (
                    Some(c2),
                    ExprNode::Binary {
                        op: BinOp::Add,
                        a: x,
                        b: c1e,
                        ..
                    },
                ) = (b.as_int(), &*a.0)
                {
                    if let Some(c1) = c1e.as_int() {
                        if let Some(c) = c1.checked_add(c2) {
                            return self.simplify_binary(
                                BinOp::Add,
                                x.clone(),
                                Expr::int_of(c, x.dtype()),
                                None,
                            );
                        }
                    }
                }
            }
            BinOp::Sub => {
                if is_zero(&b) {
                    return a;
                }
                if !is_float && a.structural_eq(&b) {
                    return Expr::zero(a.dtype());
                }
                // Affine cancellation: rebase expressions like
                // `(yo*8 + yi) - yo*8` produced by buffer-index rebasing.
                if !is_float {
                    if let (Some(la), Some(lb)) = (linearize(&a), linearize(&b)) {
                        if let Some(e) = rebuild_linear_diff(la, lb, a.dtype()) {
                            return e;
                        }
                    }
                }
            }
            BinOp::Mul => {
                if is_zero(&b) && !is_float {
                    return Expr::zero(a.dtype());
                }
                if is_one(&b) {
                    return a;
                }
                if is_zero(&a) && !is_float {
                    return Expr::zero(b.dtype());
                }
                if is_one(&a) {
                    return b;
                }
                // (x * c1) * c2 -> x * (c1 * c2)
                if let (
                    Some(c2),
                    ExprNode::Binary {
                        op: BinOp::Mul,
                        a: x,
                        b: c1e,
                        ..
                    },
                ) = (b.as_int(), &*a.0)
                {
                    if let Some(c1) = c1e.as_int() {
                        if let Some(c) = c1.checked_mul(c2) {
                            return self.simplify_binary(
                                BinOp::Mul,
                                x.clone(),
                                Expr::int_of(c, x.dtype()),
                                None,
                            );
                        }
                    }
                }
            }
            BinOp::Div => {
                if is_one(&b) {
                    return a;
                }
                // Interval: a in [0, b) -> a / b == 0.
                if let (Some(ia), Some(c)) = (eval_interval(&a, &self.bounds), b.as_int()) {
                    if c > 0 && ia.min >= 0 && ia.max < c {
                        return Expr::zero(a.dtype());
                    }
                }
            }
            BinOp::Mod => {
                if is_one(&b) && !is_float {
                    return Expr::zero(a.dtype());
                }
                // Interval: a in [0, b) -> a % b == a.
                if let (Some(ia), Some(c)) = (eval_interval(&a, &self.bounds), b.as_int()) {
                    if c > 0 && ia.min >= 0 && ia.max < c {
                        return a;
                    }
                }
            }
            BinOp::Min | BinOp::Max => {
                if a.structural_eq(&b) {
                    return a;
                }
                // Interval-proven dominance.
                if let (Some(ia), Some(ib)) = (
                    eval_interval(&a, &self.bounds),
                    eval_interval(&b, &self.bounds),
                ) {
                    match op {
                        BinOp::Min => {
                            if ia.max <= ib.min {
                                return a;
                            }
                            if ib.max <= ia.min {
                                return b;
                            }
                        }
                        BinOp::Max => {
                            if ia.min >= ib.max {
                                return a;
                            }
                            if ib.min >= ia.max {
                                return b;
                            }
                        }
                        _ => unreachable!(),
                    }
                }
            }
            _ => {}
        }
        if let Some(n) = node {
            if let ExprNode::Binary { a: na, b: nb, .. } = &*n.0 {
                if a.same_as(na) && b.same_as(nb) {
                    return n.clone();
                }
            }
        }
        Expr::binary(op, a, b)
    }

    /// Like [`Self::simplify_binary`], for the comparison `node`.
    fn simplify_cmp(&mut self, op: CmpOp, a: Expr, b: Expr, node: &Expr) -> Expr {
        if let Some(v) = prove_cmp(op, &a, &b, &self.bounds) {
            return Expr::bool_(v);
        }
        match &*node.0 {
            ExprNode::Cmp { a: na, b: nb, .. } if a.same_as(na) && b.same_as(nb) => node.clone(),
            _ => Expr::cmp(op, a, b),
        }
    }
}

/// A linear combination: atomic sub-expressions with integer coefficients
/// plus a constant.
type Linear = (Vec<(Expr, i64)>, i64);

/// Decomposes an integer expression into a linear combination of atomic
/// terms. Atoms are variables or non-affine sub-expressions compared
/// structurally. Returns `None` for floats or non-decomposable forms.
fn linearize(e: &Expr) -> Option<Linear> {
    if !e.dtype().is_int() {
        return None;
    }
    match &*e.0 {
        ExprNode::IntImm { value, .. } => Some((Vec::new(), *value)),
        ExprNode::Var(_) => Some((vec![(e.clone(), 1)], 0)),
        ExprNode::Binary {
            op: BinOp::Add,
            a,
            b,
            ..
        } => {
            let (ta, ca) = linearize(a)?;
            let (tb, cb) = linearize(b)?;
            Some((merge_terms(ta, tb, 1)?, ca.checked_add(cb)?))
        }
        ExprNode::Binary {
            op: BinOp::Sub,
            a,
            b,
            ..
        } => {
            let (ta, ca) = linearize(a)?;
            let (tb, cb) = linearize(b)?;
            Some((merge_terms(ta, tb, -1)?, ca.checked_sub(cb)?))
        }
        ExprNode::Binary {
            op: BinOp::Mul,
            a,
            b,
            ..
        } => {
            let (lin, c) = if let Some(c) = b.as_int() {
                (linearize(a)?, c)
            } else if let Some(c) = a.as_int() {
                (linearize(b)?, c)
            } else {
                // Non-affine product: treat as an atom.
                return Some((vec![(e.clone(), 1)], 0));
            };
            let (t, k) = lin;
            let t = t
                .into_iter()
                .map(|(a, co)| co.checked_mul(c).map(|nc| (a, nc)))
                .collect::<Option<Vec<_>>>()?;
            Some((t, k.checked_mul(c)?))
        }
        // Division, modulus, min/max, loads etc.: atomic terms.
        _ => Some((vec![(e.clone(), 1)], 0)),
    }
}

/// `a + sign * b`, merging structurally equal atoms; `None` when a
/// coefficient overflows (the caller keeps the unsimplified tree).
fn merge_terms(a: Vec<(Expr, i64)>, b: Vec<(Expr, i64)>, sign: i64) -> Option<Vec<(Expr, i64)>> {
    let mut out = a;
    'next: for (atom, coef) in b {
        let coef = coef.checked_mul(sign)?;
        for (ex, c) in out.iter_mut() {
            if ex.structural_eq(&atom) {
                *c = c.checked_add(coef)?;
                continue 'next;
            }
        }
        out.push((atom, coef));
    }
    out.retain(|(_, c)| *c != 0);
    Some(out)
}

/// Rebuilds `la - lb` as a canonical sum if any term cancels; `None` when no
/// cancellation happens (keep the original tree to avoid churn).
fn rebuild_linear_diff(la: Linear, lb: Linear, dtype: DType) -> Option<Expr> {
    let before = la.0.len() + lb.0.len();
    let terms = merge_terms(la.0, lb.0, -1)?;
    let konst = la.1.checked_sub(lb.1)?;
    if terms.len() >= before {
        return None;
    }
    let mut acc: Option<Expr> = None;
    for (atom, coef) in terms {
        let piece = if coef == 1 {
            atom
        } else if coef == -1 {
            match acc.take() {
                Some(a) => {
                    acc = Some(Expr::binary(BinOp::Sub, a, atom));
                    continue;
                }
                None => Expr::binary(BinOp::Mul, atom, Expr::int_of(-1, dtype)),
            }
        } else if coef < 0 {
            match acc.take() {
                Some(a) => {
                    acc = Some(Expr::binary(
                        BinOp::Sub,
                        a,
                        Expr::binary(BinOp::Mul, atom, Expr::int_of(-coef, dtype)),
                    ));
                    continue;
                }
                None => Expr::binary(BinOp::Mul, atom, Expr::int_of(coef, dtype)),
            }
        } else {
            Expr::binary(BinOp::Mul, atom, Expr::int_of(coef, dtype))
        };
        acc = Some(match acc {
            Some(a) => Expr::binary(BinOp::Add, a, piece),
            None => piece,
        });
    }
    let Some(base) = acc else {
        return Some(Expr::int_of(konst, dtype));
    };
    Some(if konst == 0 {
        base
    } else if konst > 0 {
        Expr::binary(BinOp::Add, base, Expr::int_of(konst, dtype))
    } else {
        Expr::binary(BinOp::Sub, base, Expr::int_of(-konst, dtype))
    })
}

fn is_const(e: &Expr) -> bool {
    matches!(&*e.0, ExprNode::IntImm { .. } | ExprNode::FloatImm { .. })
}

fn is_zero(e: &Expr) -> bool {
    e.as_int() == Some(0) || e.as_float() == Some(0.0)
}

fn is_one(e: &Expr) -> bool {
    e.as_int() == Some(1) || e.as_float() == Some(1.0)
}

impl Mutator for Simplifier {
    fn mutate_expr(&mut self, e: &Expr) -> Expr {
        // Binary and compare nodes are built by their rules, once, and only
        // when an operand changed or something folded.
        match &*e.0 {
            ExprNode::Binary { op, a, b, .. } => {
                let (a, b) = (self.mutate_expr(a), self.mutate_expr(b));
                return self.simplify_binary(*op, a, b, Some(e));
            }
            ExprNode::Cmp { op, a, b } => {
                let (a, b) = (self.mutate_expr(a), self.mutate_expr(b));
                return self.simplify_cmp(*op, a, b, e);
            }
            ExprNode::Var(v) => {
                // An inlined loop variable becomes its replacement,
                // simplified here, where inner unit loops may rewrite it.
                let first = self.inlined_from;
                if let Some(i) = self.inlined[first..]
                    .iter()
                    .position(|(id, _)| *id == v.id())
                {
                    let repl = self.inlined[first + i].1.clone();
                    self.inlined_from = first + i + 1;
                    let out = self.mutate_expr(&repl);
                    self.inlined_from = first;
                    return out;
                }
            }
            _ => {}
        }
        let e = self.default_mutate_expr(e);
        match &*e.0 {
            ExprNode::And { a, b } => {
                if a.is_const_int(1) {
                    return b.clone();
                }
                if b.is_const_int(1) {
                    return a.clone();
                }
                if a.is_const_int(0) || b.is_const_int(0) {
                    return Expr::bool_(false);
                }
                e
            }
            ExprNode::Or { a, b } => {
                if a.is_const_int(0) {
                    return b.clone();
                }
                if b.is_const_int(0) {
                    return a.clone();
                }
                if a.is_const_int(1) || b.is_const_int(1) {
                    return Expr::bool_(true);
                }
                e
            }
            ExprNode::Not { a } => match a.as_int() {
                Some(v) => Expr::bool_(v == 0),
                None => e,
            },
            ExprNode::Select {
                cond,
                then_case,
                else_case,
            } => match cond.as_int() {
                Some(0) => else_case.clone(),
                Some(_) => then_case.clone(),
                None => e,
            },
            ExprNode::Cast { dtype, value } => {
                if let Some(v) = value.as_int() {
                    if dtype.is_int() {
                        let folded = fold_int_cast(v, dtype.bits, dtype.code);
                        return Expr::int_of(folded, *dtype);
                    }
                    if dtype.is_float() {
                        return Expr::new(ExprNode::FloatImm {
                            value: v as f64,
                            dtype: *dtype,
                        });
                    }
                }
                if let Some(v) = value.as_float() {
                    if dtype.is_float() {
                        return Expr::new(ExprNode::FloatImm {
                            value: v,
                            dtype: *dtype,
                        });
                    }
                }
                e
            }
            _ => e,
        }
    }

    fn mutate_stmt(&mut self, s: &Stmt) -> Stmt {
        // Register loop-var ranges on the way down so nested predicates can
        // be discharged.
        if let StmtNode::For {
            var,
            min,
            extent,
            kind,
            body,
        } = &*s.0
        {
            let min_s = self.mutate_expr(min);
            let ext_s = self.mutate_expr(extent);
            match ext_s.as_int() {
                Some(0) => return Stmt::nop(),
                Some(1) => {
                    // Single-iteration loop: the body, simplified once,
                    // reads the loop var as `min`.
                    self.inlined.push((var.id(), min_s));
                    let body_s = self.mutate_stmt(body);
                    self.inlined.pop();
                    return body_s;
                }
                _ => {}
            }
            if let (Some(lo), Some(n)) = (min_s.as_int(), ext_s.as_int()) {
                // A range past i64 is not recorded; the body is then
                // simplified without it.
                if let Some(hi) = (n > 0).then(|| lo.checked_add(n - 1)).flatten() {
                    self.bounds.insert(var.id(), Interval::new(lo, hi));
                }
            }
            let body_s = self.mutate_stmt(body);
            self.bounds.remove(&var.id());
            if min_s.same_as(min) && ext_s.same_as(extent) && body_s.same_as(body) {
                return s.clone();
            }
            return Stmt::loop_(var, min_s, ext_s, *kind, body_s);
        }
        let s = self.default_mutate_stmt(s);
        match &*s.0 {
            StmtNode::IfThenElse {
                cond,
                then_case,
                else_case,
            } => match cond.as_int() {
                Some(0) => else_case.clone().unwrap_or_else(Stmt::nop),
                Some(_) => then_case.clone(),
                None => s,
            },
            StmtNode::Seq(stmts) => {
                let filtered: Vec<Stmt> = stmts.iter().filter(|st| !st.is_nop()).cloned().collect();
                if filtered.len() != stmts.len() {
                    Stmt::seq(filtered)
                } else {
                    s
                }
            }
            _ => s,
        }
    }
}

/// Evaluates an integer expression with its variables bound by `value`,
/// folding by the simplifier's rules; `None` for anything else (loads,
/// lets, ramps, floats, unbound variables) or where a fold fails.
pub fn eval_const(e: &Expr, value: &impl Fn(VarId) -> Option<i64>) -> Option<i64> {
    match &*e.0 {
        ExprNode::IntImm { value: v, .. } => Some(*v),
        ExprNode::Var(v) => value(v.id()),
        ExprNode::Binary { op, a, b, .. } => {
            Simplifier::fold_int_binop(*op, eval_const(a, value)?, eval_const(b, value)?)
        }
        _ => None,
    }
}

fn fold_int_cast(v: i64, bits: u8, code: TypeCode) -> i64 {
    if bits >= 64 {
        return v;
    }
    let mask = (1i64 << bits) - 1;
    let low = v & mask;
    match code {
        TypeCode::UInt => low,
        TypeCode::Int => {
            // Sign-extend.
            let sign = 1i64 << (bits - 1);
            if low & sign != 0 {
                low - (1i64 << bits)
            } else {
                low
            }
        }
        TypeCode::Float => unreachable!("int cast only"),
    }
}

/// Simplifies an expression with no range context.
pub fn simplify(e: &Expr) -> Expr {
    Simplifier::new().mutate_expr(e)
}

/// Simplifies an expression under variable ranges.
pub fn simplify_with<S: BuildHasher>(e: &Expr, bounds: &HashMap<VarId, Interval, S>) -> Expr {
    let bounds = bounds.iter().map(|(id, iv)| (*id, *iv)).collect();
    Simplifier::with_bounds(bounds).mutate_expr(e)
}

/// Simplifies a statement, learning loop ranges on the way down.
pub fn simplify_stmt(s: &Stmt) -> Stmt {
    Simplifier::new().mutate_stmt(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtype::DType;
    use crate::expr::Var;

    #[test]
    fn constant_folding() {
        let e = Expr::int(3) * 4 + 5;
        assert_eq!(simplify(&e).as_int(), Some(17));
    }

    #[test]
    fn identities() {
        let x = Var::int("x");
        assert!(simplify(&(x.clone() + 0)).structural_eq(&x.to_expr()));
        assert!(simplify(&(x.clone() * 1)).structural_eq(&x.to_expr()));
        assert_eq!(simplify(&(x.clone() * 0)).as_int(), Some(0));
        assert_eq!(simplify(&(x.clone() - x.to_expr())).as_int(), Some(0));
    }

    #[test]
    fn affine_collapse() {
        let x = Var::int("x");
        let e = (x.clone() + 3) + 4;
        let s = simplify(&e);
        assert!(s.structural_eq(&(x.clone() + 7)));
        let e = (x.clone() * 3) * 4;
        assert!(simplify(&e).structural_eq(&(x.clone() * 12)));
    }

    #[test]
    fn const_moves_right() {
        let x = Var::int("x");
        let e = Expr::int(5) + x.to_expr();
        assert!(simplify(&e).structural_eq(&(x.clone() + 5)));
    }

    #[test]
    fn interval_predicate_elimination() {
        let x = Var::int("x");
        let mut b = HashMap::new();
        b.insert(x.id(), Interval::new(0, 7));
        let e = x.to_expr().lt(Expr::int(8));
        assert_eq!(simplify_with(&e, &b).as_int(), Some(1));
        let e = (x.clone() % 8).structural_eq(&x.to_expr());
        assert!(!e); // unsimplified differs
        let e = simplify_with(&(x.clone() % 8), &b);
        assert!(e.structural_eq(&x.to_expr()));
        let e = simplify_with(&(x.clone() / 8), &b);
        assert_eq!(e.as_int(), Some(0));
    }

    #[test]
    fn loop_range_learned_in_stmt() {
        let x = Var::int("x");
        let buf = Var::new("b", DType::float32());
        // for x in [0,4): if x < 4 { b[x] = 1.0 }  -- predicate drops.
        let body = Stmt::if_then(
            x.to_expr().lt(Expr::int(4)),
            Stmt::store(&buf, x.to_expr(), Expr::f32(1.0)),
        );
        let s = Stmt::for_(&x, 0, 4, body);
        let out = simplify_stmt(&s);
        match &*out.0 {
            StmtNode::For { body, .. } => {
                assert!(
                    matches!(&*body.0, StmtNode::Store { .. }),
                    "predicate not dropped: {body}"
                );
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unit_loop_inlined() {
        let x = Var::int("x");
        let buf = Var::new("b", DType::float32());
        let s = Stmt::for_(&x, 3, 1, Stmt::store(&buf, x.to_expr(), Expr::f32(1.0)));
        let out = simplify_stmt(&s);
        match &*out.0 {
            StmtNode::Store { index, .. } => assert_eq!(index.as_int(), Some(3)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn zero_loop_removed() {
        let x = Var::int("x");
        let buf = Var::new("b", DType::float32());
        let s = Stmt::for_(&x, 0, 0, Stmt::store(&buf, x.to_expr(), Expr::f32(1.0)));
        assert!(simplify_stmt(&s).is_nop());
    }

    #[test]
    fn select_and_bool_folding() {
        let x = Var::int("x");
        let e = Expr::select(Expr::bool_(true), x.to_expr(), Expr::int(0));
        assert!(simplify(&e).structural_eq(&x.to_expr()));
        let e = Expr::bool_(true).and(x.to_expr().lt(Expr::int(3)));
        assert!(simplify(&e).structural_eq(&x.to_expr().lt(Expr::int(3))));
    }

    #[test]
    fn affine_rebase_cancellation() {
        let yo = Var::int("yo");
        let yi = Var::int("yi");
        // (yo*8 + yi) - yo*8 -> yi
        let e = (yo.clone() * 8 + yi.clone()) - (yo.clone() * 8);
        assert!(
            simplify(&e).structural_eq(&yi.to_expr()),
            "{}",
            simplify(&e)
        );
        // ((yo*8 + yi)*2 + 3) - yo*16 -> yi*2 + 3
        let e = ((yo.clone() * 8 + yi.clone()) * 2 + 3) - (yo.clone() * 16);
        let s = simplify(&e);
        assert!(s.structural_eq(&(yi.clone() * 2 + 3)), "{s}");
    }

    #[test]
    fn affine_no_cancellation_keeps_tree() {
        let a = Var::int("a");
        let b = Var::int("b");
        let e = a.clone() - b.clone();
        let s = simplify(&e);
        assert!(s.structural_eq(&(a.clone() - b.clone())), "{s}");
    }

    #[test]
    fn coefficient_and_range_overflow_keep_the_tree() {
        // `x*MAX - x*(-1)` merges to a coefficient of MAX + 1; `a - x*MIN`
        // negates MIN. Both used to overflow (a panic in debug builds, a
        // wrapped coefficient in release builds).
        let x = Var::int("x");
        let a = Var::int("a");
        let e = x.clone() * i64::MAX - x.clone() * -1;
        assert!(simplify(&e).structural_eq(&e), "{}", simplify(&e));
        let e = a.clone() - x.clone() * i64::MIN;
        assert!(simplify(&e).structural_eq(&e), "{}", simplify(&e));
        // A loop whose last index is past i64: the body is simplified
        // without a range for `x`, the loop stays.
        let buf = Var::new("b", DType::float32());
        let s = Stmt::for_(
            &x,
            i64::MAX,
            2,
            Stmt::store(&buf, x.to_expr() + 0, Expr::f32(1.0)),
        );
        match &*simplify_stmt(&s).0 {
            StmtNode::For {
                min, extent, body, ..
            } => {
                assert_eq!(min.as_int(), Some(i64::MAX));
                assert_eq!(extent.as_int(), Some(2));
                assert!(
                    matches!(&*body.0, StmtNode::Store { index, .. } if index.as_var() == Some(&x))
                );
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn fully_cancelled_difference_folds_to_its_constant() {
        // `c - (c + 1)` used to come back as the unfolded `0 - 1`, which a
        // second pass then folded: the simplifier was not idempotent.
        let c = Var::int("c");
        assert_eq!(simplify(&(c.clone() - (c.clone() + 1))).as_int(), Some(-1));
        assert_eq!(simplify(&((c.clone() + 3) - c.to_expr())).as_int(), Some(3));
    }

    #[test]
    fn unchanged_trees_are_returned_not_rebuilt() {
        let x = Var::int("x");
        let y = Var::int("y");
        let e = (x.clone() * 4 + y.clone()).lt(Expr::int(64));
        assert!(simplify(&e).same_as(&e));
        let buf = Var::new("b", DType::float32());
        let s = Stmt::for_(
            &x,
            0,
            8,
            Stmt::store(&buf, x.clone() * 4 + y, Expr::f32(1.0)),
        );
        assert!(simplify_stmt(&s).same_as(&s));
    }

    #[test]
    fn int_cast_folding_masks() {
        let e = Expr::int(300).cast(DType::uint(8));
        assert_eq!(simplify(&e).as_int(), Some(44));
        let e = Expr::int(200).cast(DType::int8());
        assert_eq!(simplify(&e).as_int(), Some(-56));
        let e = Expr::int(5).cast(DType::uint(2));
        assert_eq!(simplify(&e).as_int(), Some(1));
    }
}
