//! What `analyze` reads. A leaf `H[0] + 1` (a parameter load and one add)
//! is nested under each expression kind, and that expression is placed in
//! each statement position that carries one, inside a loop of four
//! iterations. Where `analyze` reads the position, it records the load of
//! `H` once with four trips and counts four more flops; where it does not,
//! it records and counts neither.
//!
//! It does not read five positions: store indices, load indices, loop
//! bounds, allocation extents and attribute values, because reading them
//! would count index arithmetic as compute. That is also a blind spot: a
//! load inside one of them (`A[B[i]]`'s `B[i]`) is never an access.

use tvm_ir::{
    BinOp, CallKind, CmpOp, DType, Expr, ExprNode, ForKind, LoweredFunc, MemScope, Stmt, StmtNode,
    Var,
};
use tvm_sim::analysis::{analyze, ProgramAnalysis};

type Place<'a, T> = Box<dyn Fn(Expr) -> T + 'a>;

/// The statement positions `analyze` does not read.
const SKIPPED_STMT: [&str; 5] = [
    "Store index",
    "AttrStmt value",
    "Allocate extent",
    "For min",
    "For extent",
];

/// The expression position `analyze` does not read.
const SKIPPED_EXPR: &str = "Load index";

/// The buffers and variables of one test program: `H` is the parameter the
/// leaf loads, `O` the parameter the carrier stores to.
struct Fx {
    h: Var,
    o: Var,
    m: Var,
    i: Var,
    j: Var,
    t: Var,
}

impl Fx {
    fn new() -> Self {
        Fx {
            h: Var::new("H", DType::float32()),
            o: Var::new("O", DType::float32()),
            m: Var::new("M", DType::float32()),
            i: Var::int("i"),
            j: Var::int("j"),
            t: Var::int("t"),
        }
    }

    /// `for i in 0..4 { carrier }`, analyzed.
    fn analyze(&self, carrier: Stmt) -> ProgramAnalysis {
        analyze(&LoweredFunc {
            name: "f".into(),
            params: vec![self.h.clone(), self.o.clone()],
            param_dtypes: vec![DType::float32(); 2],
            param_extents: vec![4, 4],
            body: Stmt::for_(&self.i, 0, 4, carrier),
        })
    }

    /// Each expression kind with the hole in each of its children.
    fn exprs(&self) -> Vec<(&'static str, Place<'_, Expr>)> {
        let bin = |a: Expr, b: Expr| Expr::binary(BinOp::Mul, a, b);
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
        let load = |index: Expr, predicate: Option<Expr>| {
            Expr::new(ExprNode::Load {
                buffer: self.o.clone(),
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
            ("the leaf alone", Box::new(|e| e)),
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
                "Select cond",
                Box::new(move |e| select(e, Expr::int(1), Expr::int(0))),
            ),
            (
                "Select then",
                Box::new(move |e| select(Expr::int(1), e, Expr::int(0))),
            ),
            (
                "Select else",
                Box::new(move |e| select(Expr::int(1), Expr::int(0), e)),
            ),
            ("Load index", Box::new(move |e| load(e, None))),
            (
                "Load predicate",
                Box::new(move |e| load(Expr::int(0), Some(e))),
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
        let store = |index: Expr, value: Expr, predicate: Option<Expr>| {
            Stmt::new(StmtNode::Store {
                buffer: self.o.clone(),
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
                Box::new(move |e| Stmt::attr("pragma", e, nop())),
            ),
            (
                "Store index",
                Box::new(move |e| store(e, Expr::f32(0.0), None)),
            ),
            (
                "Store value",
                Box::new(move |e| store(Expr::int(0), e, None)),
            ),
            (
                "Store predicate",
                Box::new(move |e| store(Expr::int(0), Expr::f32(0.0), Some(e))),
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
}

#[test]
fn analyze_reads_every_position_but_the_five_skips() {
    let fx = Fx::new();
    let leaf = Expr::binary(BinOp::Add, Expr::load(&fx.h, Expr::int(0)), Expr::f32(1.0));
    let mut seen = 0;
    for (sname, stmt) in fx.stmts() {
        for (ename, expr) in fx.exprs() {
            let at = format!("{ename} in {sname}");
            let with = fx.analyze(stmt(expr(leaf.clone())));
            let without = fx.analyze(stmt(expr(Expr::int(0))));
            let loads: Vec<f64> = with
                .accesses
                .iter()
                .filter(|a| a.buffer == fx.h.id())
                .map(|a| a.trips)
                .collect();
            let added = with.flops - without.flops;
            if SKIPPED_STMT.contains(&sname) || ename == SKIPPED_EXPR {
                assert!(loads.is_empty(), "{at}: the load is recorded");
                assert_eq!(added, 0.0, "{at}: the add is counted");
            } else {
                assert_eq!(loads, vec![4.0], "{at}: the load is not recorded once");
                assert_eq!(added, 4.0, "{at}: the add is not counted four times");
                seen += 1;
            }
        }
    }
    // 10 statement positions x 20 expression positions, less the five
    // skipped statement positions and the load index under the other five.
    assert_eq!(seen, 5 * 19);
}

/// The blind spot on its own: `O[i] = H[I[i]]` records the loads of `H`
/// and the store to `O`, and no access to `I`.
#[test]
fn a_load_inside_an_index_is_not_an_access() {
    let fx = Fx::new();
    let idx = Var::new("I", DType::int32());
    let inner = Expr::load(&idx, fx.i.to_expr());
    let store = Stmt::store(&fx.o, fx.i.to_expr(), Expr::load(&fx.h, inner));
    let an = fx.analyze(store);
    let names: Vec<&str> = an.accesses.iter().map(|a| &*a.name).collect();
    assert_eq!(names, ["O", "H"]);
}
