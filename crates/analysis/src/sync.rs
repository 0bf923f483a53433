//! Pass 4: memory-scope / synchronization legality.
//!
//! Two rules over thread-bound regions:
//!
//! 1. **No barrier under divergent control flow.** A `Barrier` must be
//!    reached by every thread of the block or the program deadlocks on
//!    real hardware. Any `IfThenElse` whose condition mentions a
//!    non-block thread variable (with extent ≥ 2) is divergent, and a
//!    barrier nested under it is an error. Loops whose bounds mention a
//!    thread variable divergently are treated the same way.
//! 2. **Cooperative fills publish via a barrier.** A store to a `shared`
//!    buffer whose index depends on a thread variable distributes the
//!    fill across threads; until a barrier executes, another thread's
//!    slots are not visible, so a subsequent load from that buffer is an
//!    error. Loop bodies are walked twice so a fill at the bottom of an
//!    iteration is seen by a load at the top of the next one (the
//!    wrap-around case); a barrier at either edge clears the dirt.
//!
//! Stores with a thread-invariant index are redundant identical writes
//! under the lockstep model (every thread fills the whole buffer), which
//! need no barrier to publish.

use std::collections::HashSet;

use tvm_ir::{
    collect_vars, BufferScopes, Expr, ExprNode, ForKind, MemScope, Stmt, StmtNode, Var, VarId,
    Visitor,
};

use crate::{Diagnostic, Severity};

/// Checks barrier placement and shared-memory publication in `body`.
pub fn check(body: &Stmt, params: &[Var]) -> Vec<Diagnostic> {
    let mut ck = Check {
        scopes: crate::buffer_scopes(body, params),
        thread_vars: HashSet::new(),
        divergent: 0,
        dirty: HashSet::new(),
        reported_dirty: HashSet::new(),
        reported_divergent_barrier: false,
        diags: Vec::new(),
    };
    ck.visit_stmt(body);
    ck.diags
}

struct Check {
    scopes: BufferScopes,
    /// Non-block thread-bound loop variables currently in scope.
    thread_vars: HashSet<VarId>,
    /// Depth of enclosing thread-divergent control flow.
    divergent: usize,
    /// Shared buffers with a cooperative (thread-distributed) fill not
    /// yet published by a barrier.
    dirty: HashSet<VarId>,
    reported_dirty: HashSet<VarId>,
    reported_divergent_barrier: bool,
    diags: Vec<Diagnostic>,
}

impl Check {
    fn mentions_thread(&self, e: &Expr) -> bool {
        collect_vars(e)
            .iter()
            .any(|v| self.thread_vars.contains(&v.id()))
    }
}

impl Visitor for Check {
    fn visit_stmt(&mut self, s: &Stmt) {
        match &*s.0 {
            StmtNode::Barrier => {
                if self.divergent > 0 && !self.reported_divergent_barrier {
                    self.reported_divergent_barrier = true;
                    self.diags.push(Diagnostic {
                        pass: "sync",
                        severity: Severity::Error,
                        message: "barrier under thread-divergent control flow".to_string(),
                        witness: None,
                    });
                }
                self.dirty.clear();
            }
            // The loop bounds are not walked: they only decide divergence.
            StmtNode::For {
                var,
                min,
                extent,
                kind,
                body,
            } => {
                let divergent_bounds = self.mentions_thread(min) || self.mentions_thread(extent);
                if divergent_bounds {
                    self.divergent += 1;
                }
                let bound_thread = matches!(kind, ForKind::ThreadBinding(t) if !t.is_block())
                    && extent.as_int() != Some(1)
                    && self.thread_vars.insert(var.id());
                // Walk twice when the body touches shared memory so a
                // fill at the end of iteration k is paired with reads at
                // the start of iteration k+1.
                self.visit_stmt(body);
                if touches_shared(body, &self.scopes) {
                    self.visit_stmt(body);
                }
                if bound_thread {
                    self.thread_vars.remove(&var.id());
                }
                if divergent_bounds {
                    self.divergent -= 1;
                }
            }
            StmtNode::IfThenElse {
                cond,
                then_case,
                else_case,
            } => {
                self.visit_expr(cond);
                let divergent = self.mentions_thread(cond);
                if divergent {
                    self.divergent += 1;
                }
                // Either branch may or may not run per thread: dirt from
                // one branch survives into the join.
                self.visit_stmt(then_case);
                if let Some(e) = else_case {
                    self.visit_stmt(e);
                }
                if divergent {
                    self.divergent -= 1;
                }
            }
            StmtNode::Store { buffer, index, .. } => {
                self.walk_stmt(s);
                if matches!(self.scopes.get(&buffer.id()), Some((MemScope::Shared, _)))
                    && self.mentions_thread(index)
                {
                    self.dirty.insert(buffer.id());
                }
            }
            _ => self.walk_stmt(s),
        }
    }

    // Nearly all of this pass's time is expression walking: loop bodies
    // that touch shared memory are walked twice at every depth. This test
    // is small enough to inline into `walk_expr`, which then reaches every
    // node but a load by a direct call. Over the 465 distinct zoo kernels
    // the pass takes 1.1x a hand-written recursion's time this way, and
    // 1.3x with the load arm inline.
    #[inline]
    fn visit_expr(&mut self, e: &Expr) {
        match &*e.0 {
            ExprNode::Load { buffer, index, .. } => self.visit_load(e, buffer, index),
            _ => self.walk_expr(e),
        }
    }
}

impl Check {
    /// A load's children, then whether it reads an unpublished fill.
    #[inline(never)]
    fn visit_load(&mut self, e: &Expr, buffer: &Var, index: &Expr) {
        self.walk_expr(e);
        if self.dirty.contains(&buffer.id()) && self.reported_dirty.insert(buffer.id()) {
            let name = self
                .scopes
                .get(&buffer.id())
                .map_or(buffer.name(), |(_, b)| b.name());
            self.diags.push(Diagnostic {
                pass: "sync",
                severity: Severity::Error,
                message: format!(
                    "read of shared `{name}` before a barrier publishes its cooperative fill"
                ),
                witness: Some(format!("index `{index}`")),
            });
        }
    }
}

/// Whether `s` stores to or loads from a shared buffer. The search skips
/// loop bounds, allocation extents, attribute values, branch conditions,
/// and the index and predicate of a store and the predicate of a load.
fn touches_shared(s: &Stmt, scopes: &BufferScopes) -> bool {
    let mut t = TouchesShared {
        scopes,
        found: false,
    };
    t.visit_stmt(s);
    t.found
}

struct TouchesShared<'a> {
    scopes: &'a BufferScopes,
    found: bool,
}

impl TouchesShared<'_> {
    fn note(&mut self, buffer: &Var) {
        self.found |= matches!(self.scopes.get(&buffer.id()), Some((MemScope::Shared, _)));
    }
}

impl Visitor for TouchesShared<'_> {
    fn visit_stmt(&mut self, s: &Stmt) {
        if self.found {
            return;
        }
        match &*s.0 {
            StmtNode::Store { buffer, value, .. } => {
                self.note(buffer);
                self.visit_expr(value);
            }
            StmtNode::AttrStmt { body, .. }
            | StmtNode::Allocate { body, .. }
            | StmtNode::For { body, .. } => self.visit_stmt(body),
            StmtNode::IfThenElse {
                then_case,
                else_case,
                ..
            } => {
                self.visit_stmt(then_case);
                if let Some(e) = else_case {
                    self.visit_stmt(e);
                }
            }
            _ => self.walk_stmt(s),
        }
    }

    fn visit_expr(&mut self, e: &Expr) {
        if self.found {
            return;
        }
        match &*e.0 {
            ExprNode::Load { buffer, index, .. } => {
                self.note(buffer);
                self.visit_expr(index);
            }
            _ => self.walk_expr(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvm_ir::{DType, ThreadTag};

    fn thread_loop(tx: &Var, extent: i64, body: Stmt) -> Stmt {
        Stmt::loop_(
            tx,
            0,
            extent,
            ForKind::ThreadBinding(ThreadTag::ThreadIdxX),
            body,
        )
    }

    #[test]
    fn barrier_under_divergent_branch_is_flagged() {
        let tx = Var::int("tx");
        let body = thread_loop(
            &tx,
            4,
            Stmt::if_then(tx.to_expr().lt(Expr::int(2)), Stmt::new(StmtNode::Barrier)),
        );
        let diags = check(&body, &[]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("divergent"));
    }

    #[test]
    fn uniform_barrier_is_fine() {
        let tx = Var::int("tx");
        let body = thread_loop(&tx, 4, Stmt::new(StmtNode::Barrier));
        assert!(check(&body, &[]).is_empty());
    }

    #[test]
    fn cooperative_fill_needs_barrier() {
        let s = Var::new("S", DType::float32());
        let a = Var::new("A", DType::float32());
        let o = Var::new("O", DType::float32());
        let tx = Var::int("tx");
        let fill = Stmt::store(&s, tx.to_expr(), Expr::load(&a, tx.to_expr()));
        let read = Stmt::store(&o, tx.to_expr(), Expr::load(&s, (tx.clone() + 1) % 4));
        let mk = |with_barrier: bool| {
            let mut items = vec![fill.clone()];
            if with_barrier {
                items.push(Stmt::new(StmtNode::Barrier));
            }
            items.push(read.clone());
            Stmt::allocate(
                &s,
                DType::float32(),
                4,
                MemScope::Shared,
                thread_loop(&tx, 4, Stmt::seq(items)),
            )
        };
        assert!(check(&mk(true), &[a.clone(), o.clone()]).is_empty());
        let diags = check(&mk(false), &[a, o]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("`S`"));
    }

    #[test]
    fn wraparound_fill_in_loop_is_caught() {
        let s = Var::new("S", DType::float32());
        let a = Var::new("A", DType::float32());
        let o = Var::new("O", DType::float32());
        let tx = Var::int("tx");
        let k = Var::int("k");
        // for k { barrier; O[..] = S[..]; S[tx] = A[..] } — the fill at
        // the end of iteration k meets the read at the top of k+1 with
        // only the leading barrier... which DOES separate them. Remove
        // the barrier to make it racy.
        let read = Stmt::store(
            &o,
            k.clone() * 4 + tx.clone(),
            Expr::load(&s, Expr::int(3) - tx.clone()),
        );
        let fill = Stmt::store(&s, tx.to_expr(), Expr::load(&a, k.clone() * 4 + tx.clone()));
        let mk = |with_barrier: bool| {
            let mut items = Vec::new();
            if with_barrier {
                items.push(Stmt::new(StmtNode::Barrier));
            }
            items.push(read.clone());
            items.push(fill.clone());
            Stmt::allocate(
                &s,
                DType::float32(),
                4,
                MemScope::Shared,
                thread_loop(&tx, 4, Stmt::for_(&k, 0, 4, Stmt::seq(items))),
            )
        };
        assert!(check(&mk(true), &[a.clone(), o.clone()]).is_empty());
        let diags = check(&mk(false), &[a, o]);
        assert_eq!(diags.len(), 1, "{diags:?}");
    }

    #[test]
    fn uniform_fill_needs_no_barrier() {
        let s = Var::new("S", DType::float32());
        let a = Var::new("A", DType::float32());
        let o = Var::new("O", DType::float32());
        let tx = Var::int("tx");
        let u = Var::int("u");
        // Every thread fills all of S identically: no barrier required.
        let fill = Stmt::for_(
            &u,
            0,
            4,
            Stmt::store(&s, u.to_expr(), Expr::load(&a, u.to_expr())),
        );
        let read = Stmt::store(&o, tx.to_expr(), Expr::load(&s, (tx.clone() + 1) % 4));
        let body = Stmt::allocate(
            &s,
            DType::float32(),
            4,
            MemScope::Shared,
            thread_loop(&tx, 4, Stmt::seq(vec![fill, read])),
        );
        assert!(check(&body, &[a, o]).is_empty());
    }
}
