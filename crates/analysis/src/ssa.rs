//! Pass 1: def-before-use / scope checking.
//!
//! Every `Var` referenced by an expression must be bound by an enclosing
//! `For`, `Let` (expression or statement), `Allocate`, or be a function
//! parameter. Binding the same variable again while it is still in scope
//! is an error (shadow-rebinding would make substitution-based passes
//! ambiguous). Rebinding in *disjoint sibling* scopes is explicitly
//! allowed: virtual-thread interleaving duplicates loops with their
//! original variables, and per-stage init loops reuse the stage's leaf
//! variables next to the main nest.

use std::collections::HashSet;

use tvm_ir::{Expr, ExprNode, Stmt, StmtNode, Var, VarId, Visitor};

use crate::{Diagnostic, Severity};

/// Checks `body` with `params` pre-bound; returns scope violations.
pub fn check(body: &Stmt, params: &[Var]) -> Vec<Diagnostic> {
    let mut ck = Check {
        scope: params.iter().map(|p| p.id()).collect(),
        reported: HashSet::new(),
        diags: Vec::new(),
    };
    ck.visit_stmt(body);
    ck.diags
}

struct Check {
    scope: HashSet<VarId>,
    /// (var, was_rebind) pairs already reported, to avoid spam.
    reported: HashSet<(VarId, bool)>,
    diags: Vec<Diagnostic>,
}

impl Check {
    fn use_var(&mut self, v: &Var) {
        if !self.scope.contains(&v.id()) && self.reported.insert((v.id(), false)) {
            self.diags.push(Diagnostic {
                pass: "ssa",
                severity: Severity::Error,
                message: format!("use of variable `{}` with no enclosing binding", v.name()),
                witness: None,
            });
        }
    }

    /// Runs `f` with `v` bound, reporting a rebind if `v` is already in
    /// scope (the enclosing binding then stays in scope after `f`).
    fn bound(&mut self, v: &Var, f: impl FnOnce(&mut Self)) {
        let owned = self.scope.insert(v.id());
        if !owned && self.reported.insert((v.id(), true)) {
            self.diags.push(Diagnostic {
                pass: "ssa",
                severity: Severity::Error,
                message: format!("variable `{}` rebound while still in scope", v.name()),
                witness: None,
            });
        }
        f(self);
        if owned {
            self.scope.remove(&v.id());
        }
    }
}

impl Visitor for Check {
    fn visit_stmt(&mut self, s: &Stmt) {
        match &*s.0 {
            StmtNode::LetStmt { var, value, body } => {
                self.visit_expr(value);
                self.bound(var, |ck| ck.visit_stmt(body));
            }
            StmtNode::Store { buffer, .. } => {
                self.use_var(buffer);
                self.walk_stmt(s);
            }
            StmtNode::Allocate {
                buffer,
                extent,
                body,
                ..
            } => {
                self.visit_expr(extent);
                self.bound(buffer, |ck| ck.visit_stmt(body));
            }
            StmtNode::For {
                var,
                min,
                extent,
                body,
                ..
            } => {
                // The loop variable is not in scope in its own bounds.
                self.visit_expr(min);
                self.visit_expr(extent);
                self.bound(var, |ck| ck.visit_stmt(body));
            }
            _ => self.walk_stmt(s),
        }
    }

    fn visit_expr(&mut self, e: &Expr) {
        match &*e.0 {
            ExprNode::Var(v) => self.use_var(v),
            ExprNode::Load { buffer, .. } => {
                self.use_var(buffer);
                self.walk_expr(e);
            }
            ExprNode::Let { var, value, body } => {
                self.visit_expr(value);
                self.bound(var, |ck| ck.visit_expr(body));
            }
            _ => self.walk_expr(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvm_ir::DType;

    #[test]
    fn unbound_use_is_flagged_once() {
        let out = Var::new("out", DType::float32());
        let j = Var::int("j");
        let body = Stmt::seq(vec![
            Stmt::store(&out, j.to_expr(), Expr::f32(1.0)),
            Stmt::store(&out, j.to_expr() + 1, Expr::f32(2.0)),
        ]);
        let diags = check(&body, &[out]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("`j`"));
    }

    #[test]
    fn sibling_rebinding_is_allowed() {
        let out = Var::new("out", DType::float32());
        let i = Var::int("i");
        let loop1 = Stmt::for_(&i, 0, 4, Stmt::store(&out, i.to_expr(), Expr::f32(0.0)));
        let loop2 = Stmt::for_(&i, 0, 4, Stmt::store(&out, i.to_expr(), Expr::f32(1.0)));
        let diags = check(&Stmt::seq(vec![loop1, loop2]), &[out]);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn nested_rebinding_is_flagged() {
        let out = Var::new("out", DType::float32());
        let i = Var::int("i");
        let inner = Stmt::for_(&i, 0, 4, Stmt::store(&out, i.to_expr(), Expr::f32(0.0)));
        let outer = Stmt::for_(&i, 0, 4, inner);
        let diags = check(&outer, &[out]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("rebound"));
    }

    #[test]
    fn loop_var_not_in_scope_in_its_own_extent() {
        let out = Var::new("out", DType::float32());
        let i = Var::int("i");
        let body = Stmt::loop_(
            &i,
            0,
            i.to_expr(),
            tvm_ir::ForKind::Serial,
            Stmt::store(&out, i.to_expr(), Expr::f32(0.0)),
        );
        let diags = check(&body, &[out]);
        assert_eq!(diags.len(), 1, "{diags:?}");
    }
}
