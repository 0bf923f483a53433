//! Dataflow rewriting helpers used by schedule primitives and lowering:
//! redirecting tensor reads, substituting axis variables inside compute
//! bodies, inlining stage bodies, and renaming buffer variables.

use tvm_ir::expr::ExprNode;
use tvm_ir::stmt::StmtNode;
use tvm_ir::{Expr, IdMap, Mutator, Stmt, Var, VarId};

use crate::tensor::{parse_read_key, ComputeBody, OpId, Tensor};

/// Replaces reads of `from` with reads of `to` (same indices) in a body.
pub fn replace_reads(body: &ComputeBody, from: OpId, to: &Tensor) -> ComputeBody {
    struct R<'a> {
        from: OpId,
        to: &'a Tensor,
    }
    impl Mutator for R<'_> {
        fn mutate_expr(&mut self, e: &Expr) -> Expr {
            if let ExprNode::Call { name, args, .. } = &*e.0 {
                if parse_read_key(name) == Some(self.from) {
                    let new_args: Vec<Expr> = args.iter().map(|a| self.mutate_expr(a)).collect();
                    return self.to.at(&new_args);
                }
            }
            self.default_mutate_expr(e)
        }
    }
    map_body(body, &mut R { from, to })
}

/// Substitutes variables inside a body's source expression.
pub fn substitute_body(body: &ComputeBody, sub: &IdMap<VarId, Expr>) -> ComputeBody {
    match body {
        ComputeBody::Plain(e) => ComputeBody::Plain(tvm_ir::substitute(e, sub)),
        ComputeBody::Reduce {
            combiner,
            source,
            axes,
        } => ComputeBody::Reduce {
            combiner: *combiner,
            source: tvm_ir::substitute(source, sub),
            axes: axes.clone(),
        },
    }
}

/// Inlines reads of op `id` by substituting `axes -> indices` into its plain
/// body expression.
pub fn inline_reads(
    target: &ComputeBody,
    id: OpId,
    producer_axes: &[Var],
    producer_expr: &Expr,
) -> ComputeBody {
    struct I<'a> {
        id: OpId,
        axes: &'a [Var],
        expr: &'a Expr,
    }
    impl Mutator for I<'_> {
        fn mutate_expr(&mut self, e: &Expr) -> Expr {
            if let ExprNode::Call { name, args, .. } = &*e.0 {
                if parse_read_key(name) == Some(self.id) {
                    let mut sub = IdMap::default();
                    for (ax, idx) in self.axes.iter().zip(args) {
                        sub.insert(ax.id(), self.mutate_expr(idx));
                    }
                    return tvm_ir::substitute(self.expr, &sub);
                }
            }
            self.default_mutate_expr(e)
        }
    }
    map_body(
        target,
        &mut I {
            id,
            axes: producer_axes,
            expr: producer_expr,
        },
    )
}

fn map_body(body: &ComputeBody, m: &mut impl Mutator) -> ComputeBody {
    match body {
        ComputeBody::Plain(e) => ComputeBody::Plain(m.mutate_expr(e)),
        ComputeBody::Reduce {
            combiner,
            source,
            axes,
        } => ComputeBody::Reduce {
            combiner: *combiner,
            source: m.mutate_expr(source),
            axes: axes.clone(),
        },
    }
}

/// Renames buffer variables in `Load`/`Store` nodes and in bare-variable
/// intrinsic arguments (hardware calls pass buffers by handle) — used by
/// virtual-thread lowering to duplicate per-vthread buffers.
pub fn substitute_buffers(s: &Stmt, map: &IdMap<VarId, Var>) -> Stmt {
    struct B<'a> {
        map: &'a IdMap<VarId, Var>,
    }
    impl Mutator for B<'_> {
        fn mutate_expr(&mut self, e: &Expr) -> Expr {
            match &*e.0 {
                ExprNode::Load {
                    buffer,
                    index,
                    predicate,
                } => {
                    let buffer = self
                        .map
                        .get(&buffer.id())
                        .cloned()
                        .unwrap_or(buffer.clone());
                    Expr::new(ExprNode::Load {
                        buffer,
                        index: self.mutate_expr(index),
                        predicate: predicate.as_ref().map(|p| self.mutate_expr(p)),
                    })
                }
                ExprNode::Var(v) => match self.map.get(&v.id()) {
                    Some(nv) => nv.to_expr(),
                    None => e.clone(),
                },
                _ => self.default_mutate_expr(e),
            }
        }

        fn mutate_stmt(&mut self, s: &Stmt) -> Stmt {
            match &*s.0 {
                StmtNode::Store {
                    buffer,
                    index,
                    value,
                    predicate,
                } => {
                    let buffer = self
                        .map
                        .get(&buffer.id())
                        .cloned()
                        .unwrap_or(buffer.clone());
                    Stmt::new(StmtNode::Store {
                        buffer,
                        index: self.mutate_expr(index),
                        value: self.mutate_expr(value),
                        predicate: predicate.as_ref().map(|p| self.mutate_expr(p)),
                    })
                }
                StmtNode::Allocate {
                    buffer,
                    dtype,
                    extent,
                    scope,
                    body,
                } => {
                    let buffer = self
                        .map
                        .get(&buffer.id())
                        .cloned()
                        .unwrap_or(buffer.clone());
                    Stmt::new(StmtNode::Allocate {
                        buffer,
                        dtype: *dtype,
                        extent: self.mutate_expr(extent),
                        scope: *scope,
                        body: self.mutate_stmt(body),
                    })
                }
                _ => self.default_mutate_stmt(s),
            }
        }
    }
    B { map }.mutate_stmt(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::{compute, placeholder};
    use tvm_ir::{DType, Interp};

    #[test]
    fn inline_substitutes_producer_expr() {
        let a = placeholder(&[8], DType::float32(), "A");
        let b = compute(&[8], "B", |i| a.at(&[i[0].clone()]) * 2);
        let c = compute(&[8], "C", |i| b.at(&[i[0].clone()]) + 1);
        let b_axes: Vec<Var> = b.op.axes().iter().map(|iv| iv.var.clone()).collect();
        let b_body = match b.op.body().expect("body") {
            ComputeBody::Plain(e) => e,
            _ => unreachable!(),
        };
        let inlined = inline_reads(&c.op.body().expect("body"), b.op_id(), &b_axes, &b_body);
        // C's body must now read A directly.
        let lookup = |id: OpId| (id == a.op_id()).then(|| a.clone());
        let inputs: Vec<OpId> = {
            let mut out = Vec::new();
            let _ = crate::tensor::collect_reads(inlined.source_expr(), &lookup, &mut |t, _| {
                out.push(t.op_id())
            });
            out
        };
        assert_eq!(inputs, vec![a.op_id()]);
    }

    #[test]
    fn buffer_substitution_renames_loads_and_stores() {
        let old = Var::new("buf", DType::float32());
        let new = Var::new("buf2", DType::float32());
        let s = Stmt::store(
            &old,
            Expr::int(0),
            Expr::load(&old, Expr::int(0)) + Expr::f32(1.0),
        );
        let mut m = IdMap::default();
        m.insert(old.id(), new.clone());
        let s2 = substitute_buffers(&s, &m);
        // Execute on the renamed buffer to confirm both sides moved.
        let mut it = Interp::new();
        let f = tvm_ir::LoweredFunc {
            name: "t".into(),
            params: vec![new],
            param_dtypes: vec![DType::float32()],
            param_extents: vec![1],
            body: s2,
        };
        let mut arrays = vec![vec![5.0f32]];
        it.run_f32(&f, &mut arrays).expect("runs");
        assert_eq!(arrays[0][0], 6.0);
    }
}
