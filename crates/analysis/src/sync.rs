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
//!    error. A fill at the bottom of a loop iteration also meets the
//!    loads at the top of the next one (the wrap-around case): each loop
//!    body is walked once, and at its end the loads no barrier precedes
//!    in it are checked against what the iteration leaves unpublished. A
//!    second walk would find nothing else, because walking a body twice
//!    leaves the same unpublished set as walking it once.
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
        exposed: Vec::new(),
        open: false,
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
    /// The innermost loop body's exposed reads so far: its first shared
    /// load of each buffer that no barrier in the body precedes.
    exposed: Vec<(Var, Expr)>,
    /// Whether the innermost loop body has passed no barrier yet.
    open: bool,
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

    fn is_shared(&self, buffer: &Var) -> bool {
        matches!(self.scopes.get(&buffer.id()), Some((MemScope::Shared, _)))
    }

    fn expose(&mut self, buffer: &Var, index: &Expr) {
        if !self.exposed.iter().any(|(b, _)| b.id() == buffer.id()) {
            self.exposed.push((buffer.clone(), index.clone()));
        }
    }

    /// Reports a read of `buffer` at `index` if a fill of it is
    /// unpublished and the buffer has not been reported yet.
    fn check_read(&mut self, buffer: &Var, index: &Expr) {
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

impl Visitor for Check {
    fn visit_stmt(&mut self, s: &Stmt) {
        #[cfg(test)]
        tests::count_visit();
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
                self.open = false;
            }
            StmtNode::For {
                var,
                min,
                extent,
                kind,
                body,
            } => {
                self.visit_expr(min);
                self.visit_expr(extent);
                let divergent_bounds = self.mentions_thread(min) || self.mentions_thread(extent);
                if divergent_bounds {
                    self.divergent += 1;
                }
                let bound_thread = matches!(kind, ForKind::ThreadBinding(t) if !t.is_block())
                    && extent.as_int() != Some(1)
                    && self.thread_vars.insert(var.id());
                let outer = std::mem::take(&mut self.exposed);
                let outer_open = std::mem::replace(&mut self.open, true);
                self.visit_stmt(body);
                // Iteration k+1 starts with what iteration k leaves dirty.
                // The body's exposed reads are exposed in the enclosing
                // body too if no barrier came before the loop.
                let exposed = std::mem::replace(&mut self.exposed, outer);
                for (buffer, index) in &exposed {
                    self.check_read(buffer, index);
                    if outer_open {
                        self.expose(buffer, index);
                    }
                }
                self.open &= outer_open;
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
                if self.is_shared(buffer) && self.mentions_thread(index) {
                    self.dirty.insert(buffer.id());
                }
            }
            _ => self.walk_stmt(s),
        }
    }

    fn visit_expr(&mut self, e: &Expr) {
        #[cfg(test)]
        tests::count_visit();
        self.walk_expr(e);
        if let ExprNode::Load { buffer, index, .. } = &*e.0 {
            self.check_read(buffer, index);
            if self.open && self.is_shared(buffer) {
                self.expose(buffer, index);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use tvm_ir::{DType, ThreadTag};

    thread_local! {
        static VISITS: Cell<usize> = const { Cell::new(0) };
    }

    /// Counts one `visit_stmt` or `visit_expr` call of this thread's
    /// `Check`.
    pub(super) fn count_visit() {
        VISITS.with(|v| v.set(v.get() + 1));
    }

    /// `check(body)` and the visits it made.
    fn counted_check(body: &Stmt, params: &[Var]) -> (Vec<Diagnostic>, usize) {
        VISITS.with(|v| v.set(0));
        let diags = check(body, params);
        (diags, VISITS.with(Cell::get))
    }

    /// Statement and expression nodes of `body`, each counted once.
    fn node_count(body: &Stmt) -> usize {
        struct Count(usize);
        impl Visitor for Count {
            fn visit_stmt(&mut self, s: &Stmt) {
                self.0 += 1;
                self.walk_stmt(s);
            }
            fn visit_expr(&mut self, e: &Expr) {
                self.0 += 1;
                self.walk_expr(e);
            }
        }
        let mut c = Count(0);
        c.visit_stmt(body);
        c.0
    }

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

    #[test]
    fn a_deep_shared_loop_nest_is_walked_once() {
        // 16 serial loops, each reading and cooperatively filling shared
        // `S`, under one thread loop: the read at the top of the
        // innermost body meets the fill at its bottom one iteration on.
        let s = Var::new("S", DType::float32());
        let a = Var::new("A", DType::float32());
        let tx = Var::int("tx");
        let mut body = Stmt::store(&s, tx.to_expr(), Expr::load(&a, tx.to_expr()));
        for d in 0..16 {
            let k = Var::int(format!("k{d}"));
            let read = Stmt::store(&a, tx.to_expr(), Expr::load(&s, k.to_expr()));
            body = Stmt::for_(&k, 0, 2, Stmt::seq(vec![read, body]));
        }
        let body = Stmt::allocate(
            &s,
            DType::float32(),
            4,
            MemScope::Shared,
            thread_loop(&tx, 4, body),
        );
        let (diags, visits) = counted_check(&body, &[a]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("`S`"), "{diags:?}");
        let nodes = node_count(&body);
        assert!(visits <= 2 * nodes, "{visits} visits for {nodes} nodes");
    }
}
