//! Every pass reaches every node. A leaf expression (a load, or an unbound
//! variable) is nested under each expression kind, and that expression is
//! placed in each statement position that carries one; every pass must see
//! the leaf in every position, loop bounds, allocation extents and
//! attribute values included.

use tvm_analysis::{analyze_stmt, race, ssa, sync, AnalysisOptions};
use tvm_ir::{
    BinOp, CallKind, CmpOp, DType, Expr, ExprNode, ForKind, MemScope, Stmt, StmtNode, ThreadTag,
    Var,
};

type Place<'a, T> = Box<dyn Fn(Expr) -> T + 'a>;

/// The buffers and variables of one test program. `g` and `h` are the
/// parameters; the loop that holds the carrier writes `g` (and `s`) at
/// its own index, and the wrapper loads read `h`, which nothing writes.
struct Fx {
    g: Var,
    h: Var,
    l: Var,
    s: Var,
    m: Var,
    i: Var,
    j: Var,
    t: Var,
}

impl Fx {
    fn new() -> Self {
        Fx {
            g: Var::new("G", DType::float32()),
            h: Var::new("H", DType::float32()),
            l: Var::new("L", DType::float32()),
            s: Var::new("S", DType::float32()),
            m: Var::new("M", DType::float32()),
            i: Var::int("i"),
            j: Var::int("j"),
            t: Var::int("t"),
        }
    }

    fn params(&self) -> Vec<Var> {
        vec![self.g.clone(), self.h.clone()]
    }

    /// `allocate L (local), S (shared) { for i in 0..4 (kind) { first;
    /// carrier } }`.
    fn program(&self, kind: ForKind, first: Stmt, carrier: Stmt) -> Stmt {
        let body = Stmt::loop_(&self.i, 0, 4, kind, Stmt::seq(vec![first, carrier]));
        let body = Stmt::allocate(&self.s, DType::float32(), 4, MemScope::Shared, body);
        Stmt::allocate(&self.l, DType::float32(), 4, MemScope::Local, body)
    }

    /// Each expression kind with the hole in each of its children.
    fn exprs(&self) -> Vec<(&'static str, Place<'_, Expr>)> {
        let bin = |a: Expr, b: Expr| {
            Expr::new(ExprNode::Binary {
                op: BinOp::Add,
                dtype: DType::int32(),
                a,
                b,
            })
        };
        let cmp = |a: Expr, b: Expr| {
            Expr::new(ExprNode::Cmp {
                op: CmpOp::Lt,
                a,
                b,
            })
        };
        let select = |cond: Expr, then_case: Expr, else_case: Expr| {
            Expr::new(ExprNode::Select {
                cond,
                then_case,
                else_case,
            })
        };
        let load = |h: &Var, index: Expr, predicate: Option<Expr>| {
            Expr::new(ExprNode::Load {
                buffer: h.clone(),
                index,
                predicate,
            })
        };
        let ramp = |base: Expr, stride: Expr| {
            Expr::new(ExprNode::Ramp {
                base,
                stride,
                lanes: 2,
            })
        };
        let let_ = |value: Expr, body: Expr| {
            Expr::new(ExprNode::Let {
                var: self.t.clone(),
                value,
                body,
            })
        };
        vec![
            ("Cast", Box::new(|e: Expr| e.cast(DType::int32()))),
            ("Binary a", Box::new(move |e| bin(e, Expr::int(1)))),
            ("Binary b", Box::new(move |e| bin(Expr::int(1), e))),
            ("Cmp a", Box::new(move |e| cmp(e, Expr::int(1)))),
            ("Cmp b", Box::new(move |e| cmp(Expr::int(1), e))),
            (
                "And",
                Box::new(|e| {
                    Expr::new(ExprNode::And {
                        a: Expr::int(1),
                        b: e,
                    })
                }),
            ),
            (
                "Or",
                Box::new(|e| {
                    Expr::new(ExprNode::Or {
                        a: e,
                        b: Expr::int(0),
                    })
                }),
            ),
            ("Not", Box::new(|e| Expr::new(ExprNode::Not { a: e }))),
            (
                "Select then",
                Box::new(move |e| select(Expr::int(1), e, Expr::int(0))),
            ),
            (
                "Select else",
                Box::new(move |e| select(Expr::int(1), Expr::int(0), e)),
            ),
            ("Load index", Box::new(move |e| load(&self.h, e, None))),
            (
                "Load predicate",
                Box::new(move |e| load(&self.h, Expr::int(0), Some(e))),
            ),
            ("Ramp base", Box::new(move |e| ramp(e, Expr::int(1)))),
            ("Ramp stride", Box::new(move |e| ramp(Expr::int(0), e))),
            (
                "Broadcast",
                Box::new(|e| Expr::new(ExprNode::Broadcast { value: e, lanes: 2 })),
            ),
            ("Let value", Box::new(move |e| let_(e, Expr::int(0)))),
            ("Let body", Box::new(move |e| let_(Expr::int(0), e))),
            (
                "Call args",
                Box::new(|e| {
                    Expr::new(ExprNode::Call {
                        dtype: DType::float32(),
                        name: "f".into(),
                        args: vec![Expr::int(0), e],
                        kind: CallKind::PureIntrinsic,
                    })
                }),
            ),
        ]
    }

    /// Each statement kind with the hole in each expression it carries.
    fn stmts(&self) -> Vec<(&'static str, Place<'_, Stmt>)> {
        let nop = || Stmt::new(StmtNode::Evaluate(Expr::int(0)));
        let store = |l: &Var, index: Expr, value: Expr, predicate: Option<Expr>| {
            Stmt::new(StmtNode::Store {
                buffer: l.clone(),
                index,
                value,
                predicate,
            })
        };
        vec![
            (
                "LetStmt value",
                Box::new(move |e| {
                    Stmt::new(StmtNode::LetStmt {
                        var: self.t.clone(),
                        value: e,
                        body: nop(),
                    })
                }),
            ),
            (
                "AttrStmt value",
                Box::new(move |e| {
                    Stmt::new(StmtNode::AttrStmt {
                        key: "pragma".into(),
                        value: e,
                        body: nop(),
                    })
                }),
            ),
            (
                "Store index",
                Box::new(move |e| store(&self.l, e, Expr::f32(0.0), None)),
            ),
            (
                "Store value",
                Box::new(move |e| store(&self.l, Expr::int(0), e, None)),
            ),
            (
                "Store predicate",
                Box::new(move |e| store(&self.l, Expr::int(0), Expr::f32(0.0), Some(e))),
            ),
            (
                "Allocate extent",
                Box::new(move |e| {
                    Stmt::allocate(&self.m, DType::float32(), e, MemScope::Local, nop())
                }),
            ),
            (
                "For min",
                Box::new(move |e| Stmt::loop_(&self.j, e, 1, ForKind::Serial, nop())),
            ),
            (
                "For extent",
                Box::new(move |e| Stmt::loop_(&self.j, 0, e, ForKind::Serial, nop())),
            ),
            (
                "IfThenElse cond",
                Box::new(move |e| Stmt::if_then(e, nop())),
            ),
            ("Evaluate", Box::new(|e| Stmt::new(StmtNode::Evaluate(e)))),
        ]
    }

    /// Every (statement position, expression position) pair, as the
    /// carrier statement with `leaf` in the hole.
    fn placements(&self, leaf: &Expr) -> Vec<(String, Stmt)> {
        let mut out = Vec::new();
        for (sname, stmt) in self.stmts() {
            for (ename, expr) in self.exprs() {
                out.push((format!("{ename} in {sname}"), stmt(expr(leaf.clone()))));
            }
        }
        out
    }
}

fn bounds_checked(fx: &Fx, carrier: Stmt) -> usize {
    let body = fx.program(ForKind::Serial, Stmt::nop(), carrier);
    analyze_stmt(&body, &fx.params(), &[4, 4], &AnalysisOptions::all()).bounds_checked
}

#[test]
fn bounds_checks_a_load_in_every_position() {
    let fx = Fx::new();
    let leaf = Expr::load(&fx.g, Expr::int(0));
    let empty = fx.placements(&Expr::int(0));
    for ((at, with_load), (_, without)) in fx.placements(&leaf).into_iter().zip(empty) {
        assert_eq!(
            bounds_checked(&fx, with_load),
            bounds_checked(&fx, without) + 1,
            "the load {at} is not checked"
        );
    }
}

#[test]
fn ssa_flags_an_unbound_variable_in_every_position() {
    let fx = Fx::new();
    let u = Var::int("u");
    for (at, carrier) in fx.placements(&u.to_expr()) {
        let body = fx.program(ForKind::Serial, Stmt::nop(), carrier);
        let diags = ssa::check(&body, &fx.params());
        assert_eq!(diags.len(), 1, "{at}: {diags:?}");
        assert!(diags[0].message.contains("`u`"), "{at}: {diags:?}");
    }
}

#[test]
fn race_reads_every_position() {
    let fx = Fx::new();
    // `G[i]` is written by every iteration; a read of `G[0]` in another
    // iteration overlaps it.
    let write = Stmt::store(&fx.g, fx.i.to_expr(), Expr::f32(1.0));
    let leaf = Expr::load(&fx.g, Expr::int(0));
    let races = |carrier: Stmt| {
        let body = fx.program(ForKind::Parallel, write.clone(), carrier);
        race::check(&body, &fx.params())
    };
    for (at, carrier) in fx.placements(&Expr::int(0)) {
        assert!(races(carrier).is_empty(), "{at}");
    }
    for (at, carrier) in fx.placements(&leaf) {
        let diags = races(carrier);
        assert_eq!(diags.len(), 1, "{at}: {diags:?}");
        assert!(diags[0].message.contains("race on `G`"), "{at}: {diags:?}");
    }
}

#[test]
fn sync_reads_every_position() {
    let fx = Fx::new();
    // Each thread fills its own slot of shared `S`; no barrier publishes
    // the fill before the carrier reads `S[0]`.
    let fill = Stmt::store(&fx.s, fx.i.to_expr(), Expr::f32(1.0));
    let leaf = Expr::load(&fx.s, Expr::int(0));
    let threads = ForKind::ThreadBinding(ThreadTag::ThreadIdxX);
    for (at, carrier) in fx.placements(&leaf) {
        let body = fx.program(threads, fill.clone(), carrier);
        let diags = sync::check(&body, &fx.params());
        assert_eq!(diags.len(), 1, "{at}: {diags:?}");
        assert!(diags[0].message.contains("shared `S`"), "{at}: {diags:?}");
    }
}
