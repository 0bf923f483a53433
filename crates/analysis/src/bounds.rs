//! Pass 2: buffer-bounds verification.
//!
//! For every `Load` / `Store` on a buffer with a known flat extent
//! (function parameters and constant-extent `Allocate`s), the index is
//! classified:
//!
//! * **Proven** — `ir::interval` analysis bounds the index inside
//!   `[0, extent)` from the enclosing loop/let ranges alone.
//! * **Refuted** — a concrete assignment of the free variables (drawn
//!   from the corners of their ranges) satisfies every enclosing guard
//!   and drives the index out of bounds. The assignment is reported as a
//!   witness.
//! * **Unknown** — neither; typical for guarded tail accesses whose raw
//!   interval overshoots but whose guards cut the overshoot away.
//!
//! Vector accesses check the first and last lane of a `Ramp` (the index
//! is monotone in the lane, so the endpoints bound all lanes).

use std::collections::HashMap;

use tvm_ir::{eval_interval, Expr, ExprNode, Interval, Stmt, StmtNode, Var, VarId, Visitor};

use crate::affine::eval_const;
use crate::{loop_range, Diagnostic, RangeScope, Severity};

/// Counters for the bounds pass.
#[derive(Clone, Copy, Debug, Default)]
pub struct BoundsStats {
    /// Accesses with a known buffer extent.
    pub checked: usize,
    /// Proven in range.
    pub proven: usize,
    /// Refuted with a witness.
    pub refuted: usize,
    /// Undecided.
    pub unknown: usize,
}

/// Most variables a witness search will enumerate corners over (2^k
/// assignments).
const MAX_WITNESS_VARS: usize = 12;

/// Checks every access in `body`; `params[i]` has `param_extents[i]`
/// elements.
pub fn check(
    body: &Stmt,
    params: &[Var],
    param_extents: &[usize],
) -> (Vec<Diagnostic>, BoundsStats) {
    let mut ck = Check {
        ranges: HashMap::new(),
        extents: params
            .iter()
            .zip(param_extents)
            .map(|(p, e)| (p.id(), Some(*e as i64)))
            .collect(),
        guards: Vec::new(),
        diags: Vec::new(),
        stats: BoundsStats::default(),
    };
    // Params beyond the extents list (if any) have unknown extents.
    for p in params.iter().skip(param_extents.len()) {
        ck.extents.entry(p.id()).or_insert(None);
    }
    ck.visit_stmt(body);
    (ck.diags, ck.stats)
}

struct Check {
    ranges: HashMap<VarId, Interval>,
    /// Buffer var -> flat extent (`None` = allocated but non-constant).
    extents: HashMap<VarId, Option<i64>>,
    guards: Vec<Expr>,
    diags: Vec<Diagnostic>,
    stats: BoundsStats,
}

impl RangeScope for Check {
    fn ranges(&mut self) -> &mut HashMap<VarId, Interval> {
        &mut self.ranges
    }
}

impl Visitor for Check {
    fn visit_stmt(&mut self, s: &Stmt) {
        match &*s.0 {
            StmtNode::LetStmt { var, value, body } => {
                self.visit_expr(value);
                let iv = eval_interval(value, &self.ranges);
                self.with_range(var, iv, |ck| ck.visit_stmt(body));
            }
            StmtNode::Store {
                buffer,
                index,
                predicate,
                ..
            } => {
                self.walk_stmt(s);
                self.access(buffer, index, predicate.as_ref(), true);
            }
            StmtNode::Allocate {
                buffer,
                extent,
                body,
                ..
            } => {
                self.visit_expr(extent);
                let ext = eval_interval(extent, &self.ranges)
                    .filter(|iv| iv.min == iv.max)
                    .map(|iv| iv.min);
                let prev = self.extents.insert(buffer.id(), ext);
                self.visit_stmt(body);
                match prev {
                    Some(p) => {
                        self.extents.insert(buffer.id(), p);
                    }
                    None => {
                        self.extents.remove(&buffer.id());
                    }
                }
            }
            StmtNode::For {
                var,
                min,
                extent,
                body,
                ..
            } => {
                self.visit_expr(min);
                self.visit_expr(extent);
                let iv = loop_range(min, extent, &self.ranges);
                self.with_range(var, iv, |ck| ck.visit_stmt(body));
            }
            StmtNode::IfThenElse {
                cond,
                then_case,
                else_case,
            } => {
                self.visit_expr(cond);
                self.guarded(cond.clone(), |ck| ck.visit_stmt(then_case));
                if let Some(e) = else_case {
                    self.guarded(cond.clone().not(), |ck| ck.visit_stmt(e));
                }
            }
            _ => self.walk_stmt(s),
        }
    }

    fn visit_expr(&mut self, e: &Expr) {
        match &*e.0 {
            ExprNode::Select {
                cond,
                then_case,
                else_case,
            } => {
                // `select` guards its operands: the padding idiom
                // `select(0 <= i && i < n, A[i], 0)` relies on the
                // condition to keep the load in range.
                self.visit_expr(cond);
                self.guarded(cond.clone(), |ck| ck.visit_expr(then_case));
                self.guarded(cond.clone().not(), |ck| ck.visit_expr(else_case));
            }
            ExprNode::Load {
                buffer,
                index,
                predicate,
            } => {
                self.walk_expr(e);
                self.access(buffer, index, predicate.as_ref(), false);
            }
            ExprNode::Let { var, value, body } => {
                self.visit_expr(value);
                let iv = eval_interval(value, &self.ranges);
                self.with_range(var, iv, |ck| ck.visit_expr(body));
            }
            _ => self.walk_expr(e),
        }
    }
}

impl Check {
    /// Runs `f` under the extra guard `g`.
    fn guarded(&mut self, g: Expr, f: impl FnOnce(&mut Self)) {
        self.guards.push(g);
        f(self);
        self.guards.pop();
    }

    fn access(&mut self, buffer: &Var, index: &Expr, predicate: Option<&Expr>, is_store: bool) {
        // Unknown buffer handles (e.g. accelerator-managed) are skipped.
        let Some(ext) = self.extents.get(&buffer.id()).copied() else {
            return;
        };
        self.stats.checked += 1;
        let Some(ext) = ext else {
            self.stats.unknown += 1;
            return;
        };

        // A Ramp is bounded by its first and last lane; Broadcast by its
        // scalar value.
        let parts: Vec<Expr> = match &*index.0 {
            ExprNode::Ramp {
                base,
                stride,
                lanes,
            } => vec![
                base.clone(),
                base.clone() + stride.clone() * (*lanes as i64 - 1),
            ],
            ExprNode::Broadcast { value, .. } => vec![value.clone()],
            _ => vec![index.clone()],
        };

        if parts
            .iter()
            .all(|p| eval_interval(p, &self.ranges).is_some_and(|iv| iv.min >= 0 && iv.max < ext))
        {
            self.stats.proven += 1;
            return;
        }

        let mut guards = self.guards.clone();
        if let Some(p) = predicate {
            guards.push((*p).clone());
        }
        if let Some((witness, part, value)) = self.find_witness(&parts, &guards, ext) {
            self.stats.refuted += 1;
            let what = if is_store { "store to" } else { "load from" };
            self.diags.push(Diagnostic {
                pass: "bounds",
                severity: Severity::Error,
                message: format!(
                    "{what} `{}` refuted: index `{part}` = {value}, outside [0, {ext})",
                    buffer.name()
                ),
                witness: Some(witness),
            });
        } else {
            self.stats.unknown += 1;
        }
    }

    /// Searches the corners of the free variables' ranges for an
    /// assignment that satisfies every guard and drives some index part
    /// out of `[0, ext)`.
    fn find_witness(
        &self,
        parts: &[Expr],
        guards: &[Expr],
        ext: i64,
    ) -> Option<(String, Expr, i64)> {
        let mut vars: Vec<Var> = Vec::new();
        for e in parts.iter().chain(guards) {
            for v in tvm_ir::collect_vars(e) {
                if !vars.iter().any(|x| x.id() == v.id()) {
                    vars.push(v);
                }
            }
        }
        if vars.len() > MAX_WITNESS_VARS {
            return None;
        }
        let ranges: Vec<Interval> = vars
            .iter()
            .map(|v| self.ranges.get(&v.id()).copied())
            .collect::<Option<_>>()?;

        let k = vars.len();
        let combos: usize = 1 << k;
        let mut env: HashMap<VarId, i64> = HashMap::with_capacity(k);
        'corner: for mask in 0..combos {
            env.clear();
            for (i, (v, r)) in vars.iter().zip(&ranges).enumerate() {
                let val = if mask & (1 << i) == 0 { r.min } else { r.max };
                env.insert(v.id(), val);
            }
            for g in guards {
                if eval_const(g, &env) != Some(1) {
                    continue 'corner;
                }
            }
            for part in parts {
                if let Some(val) = eval_const(part, &env) {
                    if val < 0 || val >= ext {
                        let mut pairs: Vec<String> = vars
                            .iter()
                            .map(|v| format!("{}={}", v.name(), env[&v.id()]))
                            .collect();
                        pairs.sort();
                        return Some((format!("at {}", pairs.join(", ")), part.clone(), val));
                    }
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvm_ir::DType;

    fn f32buf(name: &str) -> Var {
        Var::new(name, DType::float32())
    }

    #[test]
    fn in_range_store_is_proven() {
        let a = f32buf("A");
        let i = Var::int("i");
        let body = Stmt::for_(&i, 0, 16, Stmt::store(&a, i.to_expr(), Expr::f32(0.0)));
        let (diags, stats) = check(&body, &[a], &[16]);
        assert!(diags.is_empty(), "{diags:?}");
        assert_eq!((stats.checked, stats.proven), (1, 1));
    }

    #[test]
    fn off_by_one_store_is_refuted_with_witness() {
        let a = f32buf("A");
        let i = Var::int("i");
        let body = Stmt::for_(&i, 0, 16, Stmt::store(&a, i.to_expr() + 1, Expr::f32(0.0)));
        let (diags, stats) = check(&body, &[a], &[16]);
        assert_eq!(stats.refuted, 1);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].witness.as_deref() == Some("at i=15"), "{diags:?}");
    }

    #[test]
    fn guarded_tail_access_is_unknown_not_refuted() {
        let a = f32buf("A");
        let io = Var::int("io");
        let ii = Var::int("ii");
        // for io in 0..4: for ii in 0..4: if io*4+ii < 14: A[io*4+ii] = 0
        // with |A| = 14. Raw interval overshoots to 15 but the guard cuts
        // the overshoot, so this must not be refuted.
        let idx = io.clone() * 4 + ii.clone();
        let guarded = Stmt::if_then(
            idx.clone().lt(Expr::int(14)),
            Stmt::store(&a, idx, Expr::f32(0.0)),
        );
        let body = Stmt::for_(&io, 0, 4, Stmt::for_(&ii, 0, 4, guarded));
        let (diags, stats) = check(&body, &[a], &[14]);
        assert!(diags.is_empty(), "{diags:?}");
        assert_eq!(stats.refuted, 0);
        assert_eq!(stats.unknown, 1);
    }

    #[test]
    fn allocate_extent_is_used() {
        let out = f32buf("out");
        let b = f32buf("B");
        let i = Var::int("i");
        let oob = Stmt::for_(&i, 0, 8, Stmt::store(&b, i.to_expr() * 2, Expr::f32(0.0)));
        let fine = Stmt::store(&out, Expr::int(0), Expr::load(&b, Expr::int(0)));
        let body = Stmt::allocate(
            &b,
            DType::float32(),
            8,
            tvm_ir::MemScope::Global,
            Stmt::seq(vec![oob, fine]),
        );
        let (diags, stats) = check(&body, &[out], &[1]);
        assert_eq!(stats.refuted, 1, "{diags:?}");
        assert!(diags[0].message.contains("`B`"));
    }

    #[test]
    fn ramp_endpoints_are_checked() {
        let a = f32buf("A");
        let i = Var::int("i");
        let idx = Expr::new(ExprNode::Ramp {
            base: i.clone() * 4,
            stride: Expr::int(1),
            lanes: 4,
        });
        let val = Expr::new(ExprNode::Broadcast {
            value: Expr::f32(0.0),
            lanes: 4,
        });
        let body = Stmt::for_(&i, 0, 4, Stmt::store(&a, idx, val));
        // 4*3 + 3 = 15 fits in 16 -> proven; in 15 -> refuted.
        let (_, stats) = check(&body, std::slice::from_ref(&a), &[16]);
        assert_eq!(stats.proven, 1);
        let (diags, stats) = check(&body, &[a], &[15]);
        assert_eq!(stats.refuted, 1, "{diags:?}");
    }
}
