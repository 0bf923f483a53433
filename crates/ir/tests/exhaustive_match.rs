//! Walker-coverage guard: the `Visitor` / `Mutator` traits (and every
//! downstream pass that pattern-matches the IR) must handle every
//! `ExprNode` / `StmtNode` variant.
//!
//! Two layers of protection:
//!
//! 1. **Compile-time** — `expr_variant_name` / `stmt_variant_name` match
//!    every variant *without a wildcard arm*. Adding a variant to either
//!    enum makes this test fail to compile, forcing an audit of every
//!    walker (ir::visit, ir::simplify, ir::interp, ir::printer). The
//!    tvm-analysis passes need none: they walk through `Visitor` and
//!    override only the nodes they judge, so a new variant reaches them
//!    through `walk_expr` / `walk_stmt`.
//! 2. **Run-time** — a program containing every variant is walked by the
//!    default `Visitor` and rebuilt by the identity `Mutator`; the
//!    visitor must reach every node kind and the mutator must reproduce
//!    the program exactly (checked via the printer, which is itself an
//!    exhaustive walker).
//!
//! An audit of the seed walkers against the current node set found no
//! traversal gaps — every variant added since the initial IR (Barrier,
//! PushDep/PopDep, Ramp/Broadcast, Load/Store predicates) is already
//! routed through visit/simplify/interp/printer; this test keeps it
//! that way.

use std::collections::HashSet;

use tvm_ir::visit::{Mutator, Visitor};
use tvm_ir::{CallKind, DType, Expr, ExprNode, ForKind, MemScope, PipeStage, Stmt, StmtNode, Var};

/// Exhaustive, wildcard-free variant name table (compile-time guard).
fn expr_variant_name(e: &ExprNode) -> &'static str {
    match e {
        ExprNode::IntImm { .. } => "IntImm",
        ExprNode::FloatImm { .. } => "FloatImm",
        ExprNode::StringImm(_) => "StringImm",
        ExprNode::Var(_) => "Var",
        ExprNode::Cast { .. } => "Cast",
        ExprNode::Binary { .. } => "Binary",
        ExprNode::Cmp { .. } => "Cmp",
        ExprNode::And { .. } => "And",
        ExprNode::Or { .. } => "Or",
        ExprNode::Not { .. } => "Not",
        ExprNode::Select { .. } => "Select",
        ExprNode::Load { .. } => "Load",
        ExprNode::Ramp { .. } => "Ramp",
        ExprNode::Broadcast { .. } => "Broadcast",
        ExprNode::Let { .. } => "Let",
        ExprNode::Call { .. } => "Call",
    }
}

const ALL_EXPR_VARIANTS: [&str; 16] = [
    "IntImm",
    "FloatImm",
    "StringImm",
    "Var",
    "Cast",
    "Binary",
    "Cmp",
    "And",
    "Or",
    "Not",
    "Select",
    "Load",
    "Ramp",
    "Broadcast",
    "Let",
    "Call",
];

/// Exhaustive, wildcard-free variant name table (compile-time guard).
fn stmt_variant_name(s: &StmtNode) -> &'static str {
    match s {
        StmtNode::LetStmt { .. } => "LetStmt",
        StmtNode::AttrStmt { .. } => "AttrStmt",
        StmtNode::Store { .. } => "Store",
        StmtNode::Allocate { .. } => "Allocate",
        StmtNode::For { .. } => "For",
        StmtNode::Seq(_) => "Seq",
        StmtNode::IfThenElse { .. } => "IfThenElse",
        StmtNode::Evaluate(_) => "Evaluate",
        StmtNode::Barrier => "Barrier",
        StmtNode::PushDep { .. } => "PushDep",
        StmtNode::PopDep { .. } => "PopDep",
    }
}

const ALL_STMT_VARIANTS: [&str; 11] = [
    "LetStmt",
    "AttrStmt",
    "Store",
    "Allocate",
    "For",
    "Seq",
    "IfThenElse",
    "Evaluate",
    "Barrier",
    "PushDep",
    "PopDep",
];

/// One expression containing every `ExprNode` variant at least once.
fn kitchen_sink_expr(buf: &Var) -> Expr {
    let x = Var::int("x");
    let letv = Var::int("lv");
    let f = DType::float32();
    let sel = Expr::int(1)
        .lt(Expr::int(2))
        .and(Expr::bool_(true))
        .or(Expr::int(3).ge(Expr::int(4)).not());
    let load = Expr::new(ExprNode::Load {
        buffer: buf.clone(),
        index: x.to_expr() % 4,
        predicate: Some(x.to_expr().lt(Expr::int(4))),
    });
    let ramp = Expr::new(ExprNode::Ramp {
        base: x.to_expr() * 2,
        stride: Expr::int(1),
        lanes: 4,
    });
    let bcast = Expr::new(ExprNode::Broadcast {
        value: Expr::f32(2.5),
        lanes: 4,
    });
    let call = Expr::new(ExprNode::Call {
        dtype: f,
        name: "exp".into(),
        args: vec![Expr::f32(1.0), Expr::new(ExprNode::StringImm("tag".into()))],
        kind: CallKind::PureIntrinsic,
    });
    let let_expr = Expr::new(ExprNode::Let {
        var: letv.clone(),
        value: x.clone() - 1,
        body: letv.to_expr() + 1,
    });
    Expr::select(
        sel,
        (load + call).cast(f) * bcast,
        Expr::new(ExprNode::Select {
            cond: Expr::bool_(false),
            then_case: ramp.cast(f),
            else_case: (let_expr / 2).cast(f),
        }),
    )
}

/// One statement containing every `StmtNode` variant at least once.
fn kitchen_sink_stmt() -> Stmt {
    let buf = Var::new("B", DType::float32());
    let out = Var::new("out", DType::float32());
    let i = Var::int("i");
    let lv = Var::int("l");
    let inner = Stmt::seq(vec![
        Stmt::new(StmtNode::PushDep {
            from: PipeStage::Load,
            to: PipeStage::Compute,
        }),
        Stmt::new(StmtNode::Store {
            buffer: out.clone(),
            index: i.to_expr(),
            value: kitchen_sink_expr(&buf),
            predicate: Some(i.to_expr().lt(Expr::int(4))),
        }),
        Stmt::new(StmtNode::Barrier),
        Stmt::new(StmtNode::IfThenElse {
            cond: i.to_expr().eq(Expr::int(0)),
            then_case: Stmt::evaluate(Expr::int(1)),
            else_case: Some(Stmt::evaluate(Expr::f32(0.0))),
        }),
        Stmt::new(StmtNode::PopDep {
            by: PipeStage::Compute,
            from: PipeStage::Load,
        }),
    ]);
    let letted = Stmt::new(StmtNode::LetStmt {
        var: lv.clone(),
        value: i.to_expr() + 1,
        body: Stmt::new(StmtNode::AttrStmt {
            key: "pragma".into(),
            value: lv.to_expr(),
            body: inner,
        }),
    });
    let looped = Stmt::loop_(&i, 0, 4, ForKind::Serial, letted);
    Stmt::allocate(&buf, DType::float32(), 4, MemScope::Global, looped)
}

#[test]
fn visitor_reaches_every_variant() {
    struct Recorder {
        exprs: HashSet<&'static str>,
        stmts: HashSet<&'static str>,
    }
    impl Visitor for Recorder {
        fn visit_expr(&mut self, e: &Expr) {
            self.exprs.insert(expr_variant_name(&e.0));
            self.walk_expr(e);
        }
        fn visit_stmt(&mut self, s: &Stmt) {
            self.stmts.insert(stmt_variant_name(&s.0));
            self.walk_stmt(s);
        }
    }
    let mut r = Recorder {
        exprs: HashSet::new(),
        stmts: HashSet::new(),
    };
    r.visit_stmt(&kitchen_sink_stmt());
    for v in ALL_EXPR_VARIANTS {
        assert!(r.exprs.contains(v), "Visitor never reached ExprNode::{v}");
    }
    for v in ALL_STMT_VARIANTS {
        assert!(r.stmts.contains(v), "Visitor never reached StmtNode::{v}");
    }
}

#[test]
fn identity_mutator_reproduces_every_variant() {
    struct Identity;
    impl Mutator for Identity {}
    let original = kitchen_sink_stmt();
    let rebuilt = Identity.mutate_stmt(&original);
    // The printer is itself an exhaustive walker; identical output means
    // every node survived the rebuild with its fields intact.
    assert_eq!(original.to_string(), rebuilt.to_string());
}
