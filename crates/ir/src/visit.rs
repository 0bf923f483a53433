//! Visitor and mutator infrastructure over the expression/statement trees,
//! plus the ubiquitous variable-substitution pass.

use std::collections::HashMap;
use std::hash::BuildHasher;

use crate::expr::{Expr, ExprNode, Var, VarId};
use crate::idhash::IdMap;
use crate::stmt::{Stmt, StmtNode};

/// Rewrites expressions and statements bottom-up.
///
/// Implementors override [`Mutator::mutate_expr`] / [`Mutator::mutate_stmt`]
/// and call the `default_*` helpers to recurse.
///
/// Contract: **return your input when you change nothing.** Trees are
/// immutable and shared, so "unchanged" is reported by handing back the very
/// `Arc` that came in ([`Expr::same_as`] / [`Stmt::same_as`]). The `default_*`
/// helpers keep the contract for every node whose rewritten children are all
/// pointer-identical to the old ones, which makes a pass cost allocations only
/// along the paths it actually rewrites; an override that rebuilds a node it
/// did not change forfeits that for all of the node's ancestors. Callers may
/// rely on it: `te::lower` skips re-validating a body a pass returned as is.
pub trait Mutator {
    /// Rewrites one expression (override point).
    fn mutate_expr(&mut self, e: &Expr) -> Expr {
        self.default_mutate_expr(e)
    }

    /// Rewrites one statement (override point).
    fn mutate_stmt(&mut self, s: &Stmt) -> Stmt {
        self.default_mutate_stmt(s)
    }

    /// Recurses into an expression's children; returns `e` itself when none
    /// of them changed.
    fn default_mutate_expr(&mut self, e: &Expr) -> Expr {
        use ExprNode::*;
        match &*e.0 {
            IntImm { .. } | FloatImm { .. } | StringImm(_) | Var(_) => e.clone(),
            Cast { dtype, value } => {
                let v = self.mutate_expr(value);
                if v.same_as(value) {
                    return e.clone();
                }
                Expr::new(Cast {
                    dtype: *dtype,
                    value: v,
                })
            }
            Binary { op, a, b, .. } => {
                let (na, nb) = (self.mutate_expr(a), self.mutate_expr(b));
                if na.same_as(a) && nb.same_as(b) {
                    return e.clone();
                }
                Expr::binary(*op, na, nb)
            }
            Cmp { op, a, b } => {
                let (na, nb) = (self.mutate_expr(a), self.mutate_expr(b));
                if na.same_as(a) && nb.same_as(b) {
                    return e.clone();
                }
                Expr::new(Cmp {
                    op: *op,
                    a: na,
                    b: nb,
                })
            }
            And { a, b } => {
                let (na, nb) = (self.mutate_expr(a), self.mutate_expr(b));
                if na.same_as(a) && nb.same_as(b) {
                    return e.clone();
                }
                Expr::new(And { a: na, b: nb })
            }
            Or { a, b } => {
                let (na, nb) = (self.mutate_expr(a), self.mutate_expr(b));
                if na.same_as(a) && nb.same_as(b) {
                    return e.clone();
                }
                Expr::new(Or { a: na, b: nb })
            }
            Not { a } => {
                let na = self.mutate_expr(a);
                if na.same_as(a) {
                    return e.clone();
                }
                Expr::new(Not { a: na })
            }
            Select {
                cond,
                then_case,
                else_case,
            } => {
                let c = self.mutate_expr(cond);
                let t = self.mutate_expr(then_case);
                let f = self.mutate_expr(else_case);
                if c.same_as(cond) && t.same_as(then_case) && f.same_as(else_case) {
                    return e.clone();
                }
                Expr::new(Select {
                    cond: c,
                    then_case: t,
                    else_case: f,
                })
            }
            Load {
                buffer,
                index,
                predicate,
            } => {
                let i = self.mutate_expr(index);
                let p = predicate.as_ref().map(|p| self.mutate_expr(p));
                if i.same_as(index) && same_opt(&p, predicate, Expr::same_as) {
                    return e.clone();
                }
                Expr::new(Load {
                    buffer: buffer.clone(),
                    index: i,
                    predicate: p,
                })
            }
            Ramp {
                base,
                stride,
                lanes,
            } => {
                let (nb, ns) = (self.mutate_expr(base), self.mutate_expr(stride));
                if nb.same_as(base) && ns.same_as(stride) {
                    return e.clone();
                }
                Expr::new(Ramp {
                    base: nb,
                    stride: ns,
                    lanes: *lanes,
                })
            }
            Broadcast { value, lanes } => {
                let v = self.mutate_expr(value);
                if v.same_as(value) {
                    return e.clone();
                }
                Expr::new(Broadcast {
                    value: v,
                    lanes: *lanes,
                })
            }
            Let { var, value, body } => {
                let (v, b) = (self.mutate_expr(value), self.mutate_expr(body));
                if v.same_as(value) && b.same_as(body) {
                    return e.clone();
                }
                Expr::new(Let {
                    var: var.clone(),
                    value: v,
                    body: b,
                })
            }
            Call {
                dtype,
                name,
                args,
                kind,
            } => {
                let new_args: Vec<Expr> = args.iter().map(|a| self.mutate_expr(a)).collect();
                if new_args.iter().zip(args).all(|(n, o)| n.same_as(o)) {
                    return e.clone();
                }
                Expr::new(Call {
                    dtype: *dtype,
                    name: name.clone(),
                    args: new_args,
                    kind: *kind,
                })
            }
        }
    }

    /// Recurses into a statement's children; returns `s` itself when none of
    /// them changed.
    fn default_mutate_stmt(&mut self, s: &Stmt) -> Stmt {
        use StmtNode::*;
        match &*s.0 {
            LetStmt { var, value, body } => {
                let v = self.mutate_expr(value);
                let b = self.mutate_stmt(body);
                if v.same_as(value) && b.same_as(body) {
                    return s.clone();
                }
                Stmt::new(LetStmt {
                    var: var.clone(),
                    value: v,
                    body: b,
                })
            }
            AttrStmt { key, value, body } => {
                let v = self.mutate_expr(value);
                let b = self.mutate_stmt(body);
                if v.same_as(value) && b.same_as(body) {
                    return s.clone();
                }
                Stmt::new(AttrStmt {
                    key: key.clone(),
                    value: v,
                    body: b,
                })
            }
            Store {
                buffer,
                index,
                value,
                predicate,
            } => {
                let i = self.mutate_expr(index);
                let v = self.mutate_expr(value);
                let p = predicate.as_ref().map(|p| self.mutate_expr(p));
                if i.same_as(index) && v.same_as(value) && same_opt(&p, predicate, Expr::same_as) {
                    return s.clone();
                }
                Stmt::new(Store {
                    buffer: buffer.clone(),
                    index: i,
                    value: v,
                    predicate: p,
                })
            }
            Allocate {
                buffer,
                dtype,
                extent,
                scope,
                body,
            } => {
                let e = self.mutate_expr(extent);
                let b = self.mutate_stmt(body);
                if e.same_as(extent) && b.same_as(body) {
                    return s.clone();
                }
                Stmt::new(Allocate {
                    buffer: buffer.clone(),
                    dtype: *dtype,
                    extent: e,
                    scope: *scope,
                    body: b,
                })
            }
            For {
                var,
                min,
                extent,
                kind,
                body,
            } => {
                let m = self.mutate_expr(min);
                let e = self.mutate_expr(extent);
                let b = self.mutate_stmt(body);
                if m.same_as(min) && e.same_as(extent) && b.same_as(body) {
                    return s.clone();
                }
                Stmt::loop_(var, m, e, *kind, b)
            }
            Seq(stmts) => {
                let new: Vec<Stmt> = stmts.iter().map(|st| self.mutate_stmt(st)).collect();
                // A sequence `Stmt::seq` would flatten or unwrap is rebuilt
                // even when no child changed.
                let normal = stmts.len() != 1 && !stmts.iter().any(|st| matches!(&*st.0, Seq(_)));
                if normal && new.iter().zip(stmts).all(|(n, o)| n.same_as(o)) {
                    return s.clone();
                }
                Stmt::seq(new)
            }
            IfThenElse {
                cond,
                then_case,
                else_case,
            } => {
                let c = self.mutate_expr(cond);
                let t = self.mutate_stmt(then_case);
                let f = else_case.as_ref().map(|e| self.mutate_stmt(e));
                if c.same_as(cond) && t.same_as(then_case) && same_opt(&f, else_case, Stmt::same_as)
                {
                    return s.clone();
                }
                Stmt::new(IfThenElse {
                    cond: c,
                    then_case: t,
                    else_case: f,
                })
            }
            Evaluate(e) => {
                let ne = self.mutate_expr(e);
                if ne.same_as(e) {
                    return s.clone();
                }
                Stmt::new(Evaluate(ne))
            }
            Barrier | PushDep { .. } | PopDep { .. } => s.clone(),
        }
    }
}

/// Pointer identity of an optional rewritten child and its original.
fn same_opt<T>(new: &Option<T>, old: &Option<T>, same: impl Fn(&T, &T) -> bool) -> bool {
    match (new, old) {
        (Some(n), Some(o)) => same(n, o),
        (None, None) => true,
        _ => false,
    }
}

/// Read-only traversal of expressions and statements.
pub trait Visitor {
    /// Visits one expression (override and recurse via
    /// [`Visitor::walk_expr`]).
    fn visit_expr(&mut self, e: &Expr) {
        self.walk_expr(e);
    }

    /// Visits one statement.
    fn visit_stmt(&mut self, s: &Stmt) {
        self.walk_stmt(s);
    }

    /// Recurses into an expression's children.
    fn walk_expr(&mut self, e: &Expr) {
        use ExprNode::*;
        match &*e.0 {
            IntImm { .. } | FloatImm { .. } | StringImm(_) | Var(_) => {}
            Cast { value, .. } => self.visit_expr(value),
            Binary { a, b, .. } | Cmp { a, b, .. } | And { a, b } | Or { a, b } => {
                self.visit_expr(a);
                self.visit_expr(b);
            }
            Not { a } => self.visit_expr(a),
            Select {
                cond,
                then_case,
                else_case,
            } => {
                self.visit_expr(cond);
                self.visit_expr(then_case);
                self.visit_expr(else_case);
            }
            Load {
                index, predicate, ..
            } => {
                self.visit_expr(index);
                if let Some(p) = predicate {
                    self.visit_expr(p);
                }
            }
            Ramp { base, stride, .. } => {
                self.visit_expr(base);
                self.visit_expr(stride);
            }
            Broadcast { value, .. } => self.visit_expr(value),
            Let { value, body, .. } => {
                self.visit_expr(value);
                self.visit_expr(body);
            }
            Call { args, .. } => {
                for a in args {
                    self.visit_expr(a);
                }
            }
        }
    }

    /// Recurses into a statement's children.
    fn walk_stmt(&mut self, s: &Stmt) {
        use StmtNode::*;
        match &*s.0 {
            LetStmt { value, body, .. } => {
                self.visit_expr(value);
                self.visit_stmt(body);
            }
            AttrStmt { value, body, .. } => {
                self.visit_expr(value);
                self.visit_stmt(body);
            }
            Store {
                index,
                value,
                predicate,
                ..
            } => {
                self.visit_expr(index);
                self.visit_expr(value);
                if let Some(p) = predicate {
                    self.visit_expr(p);
                }
            }
            Allocate { extent, body, .. } => {
                self.visit_expr(extent);
                self.visit_stmt(body);
            }
            For {
                min, extent, body, ..
            } => {
                self.visit_expr(min);
                self.visit_expr(extent);
                self.visit_stmt(body);
            }
            Seq(stmts) => {
                for st in stmts {
                    self.visit_stmt(st);
                }
            }
            IfThenElse {
                cond,
                then_case,
                else_case,
            } => {
                self.visit_expr(cond);
                self.visit_stmt(then_case);
                if let Some(e) = else_case {
                    self.visit_stmt(e);
                }
            }
            Evaluate(e) => self.visit_expr(e),
            Barrier | PushDep { .. } | PopDep { .. } => {}
        }
    }
}

struct Substituter<'a, S> {
    map: &'a HashMap<VarId, Expr, S>,
}

impl<S: BuildHasher> Mutator for Substituter<'_, S> {
    fn mutate_expr(&mut self, e: &Expr) -> Expr {
        if let ExprNode::Var(v) = &*e.0 {
            if let Some(repl) = self.map.get(&v.id()) {
                return repl.clone();
            }
        }
        self.default_mutate_expr(e)
    }
}

/// Replaces free occurrences of variables in `e` according to `map`.
pub fn substitute<S: BuildHasher>(e: &Expr, map: &HashMap<VarId, Expr, S>) -> Expr {
    Substituter { map }.mutate_expr(e)
}

/// Replaces free occurrences of variables in `s` according to `map`.
pub fn substitute_stmt<S: BuildHasher>(s: &Stmt, map: &HashMap<VarId, Expr, S>) -> Stmt {
    Substituter { map }.mutate_stmt(s)
}

/// Replaces a single variable in `e`.
pub fn substitute_one(e: &Expr, var: &Var, with: &Expr) -> Expr {
    let mut map = IdMap::default();
    map.insert(var.id(), with.clone());
    substitute(e, &map)
}

/// True when `judge` finds a hit in `s`. It is asked about each statement,
/// outermost first, and answers `Some(hit)` for the statement's whole
/// subtree or `None` to go on into its children. Expressions are not read.
pub fn find_stmt(s: &Stmt, judge: impl FnMut(&Stmt) -> Option<bool>) -> bool {
    struct Find<F> {
        judge: F,
        found: bool,
    }
    impl<F: FnMut(&Stmt) -> Option<bool>> Visitor for Find<F> {
        fn visit_expr(&mut self, _: &Expr) {}

        fn visit_stmt(&mut self, s: &Stmt) {
            if self.found {
                return;
            }
            match (self.judge)(s) {
                Some(hit) => self.found = hit,
                None => self.walk_stmt(s),
            }
        }
    }
    let mut f = Find {
        judge,
        found: false,
    };
    f.visit_stmt(s);
    f.found
}

/// Collects the set of free variables referenced by an expression.
pub fn collect_vars(e: &Expr) -> Vec<Var> {
    struct C {
        out: Vec<Var>,
    }
    impl Visitor for C {
        fn visit_expr(&mut self, e: &Expr) {
            if let ExprNode::Var(v) = &*e.0 {
                if !self.out.iter().any(|x| x == v) {
                    self.out.push(v.clone());
                }
            }
            self.walk_expr(e);
        }
    }
    let mut c = C { out: Vec::new() };
    c.visit_expr(e);
    c.out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtype::DType;

    #[test]
    fn substitution_replaces_all_occurrences() {
        let x = Var::int("x");
        let y = Var::int("y");
        let e = (x.clone() + 1) * (x.clone() + 2);
        let sub = substitute_one(&e, &x, &y.to_expr());
        let expected = (y.clone() + 1) * (y.clone() + 2);
        assert!(sub.structural_eq(&expected));
    }

    #[test]
    fn substitution_in_stmt() {
        let x = Var::int("x");
        let buf = Var::new("b", DType::float32());
        let s = Stmt::store(&buf, x.to_expr(), Expr::f32(1.0));
        let s2 = substitute_stmt(&s, &{
            let mut m = HashMap::new();
            m.insert(x.id(), Expr::int(7));
            m
        });
        match &*s2.0 {
            StmtNode::Store { index, .. } => assert_eq!(index.as_int(), Some(7)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn collect_vars_dedupes() {
        let x = Var::int("x");
        let y = Var::int("y");
        let e = (x.clone() + y.clone()) * x.clone();
        let vars = collect_vars(&e);
        assert_eq!(vars.len(), 2);
    }
}
