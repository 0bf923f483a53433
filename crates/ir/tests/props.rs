//! Property tests on the IR: tree rewrites hand back the trees they do not
//! change, the simplifier is idempotent, and store rounding is idempotent.
//! The properties that need a concrete evaluator (the simplifier preserves
//! semantics, interval analysis is sound) check against the reference
//! walker in `tvm-verify`.

use std::collections::HashMap;
use std::sync::OnceLock;

use proptest::prelude::*;

use tvm_ir::{
    eval_interval, prove_cmp, simplify, simplify_stmt, simplify_with, substitute, substitute_stmt,
    BinOp, CmpOp, DType, Expr, ForKind, IdMap, Interval, MemScope, Mutator, Stmt, StmtNode, Value,
    Var,
};

/// A random integer expression over up to three variables.
fn arb_expr(vars: Vec<Var>, depth: u32) -> BoxedStrategy<Expr> {
    let leaf = prop_oneof![
        (-20i64..20).prop_map(Expr::int),
        (0..vars.len()).prop_map(move |i| vars[i].to_expr()),
    ];
    leaf.prop_recursive(depth, 64, 2, |inner| {
        (inner.clone(), inner, 0usize..7)
            .prop_map(|(a, b, op)| {
                let op = match op {
                    0 => BinOp::Add,
                    1 => BinOp::Sub,
                    2 => BinOp::Mul,
                    3 => BinOp::Min,
                    4 => BinOp::Max,
                    5 => BinOp::Div,
                    _ => BinOp::Mod,
                };
                // Guard division by making the divisor strictly positive.
                if matches!(op, BinOp::Div | BinOp::Mod) {
                    let b = Expr::binary(BinOp::Add, b.max(Expr::int(0)), Expr::int(1));
                    Expr::binary(op, a, b)
                } else {
                    Expr::binary(op, a, b)
                }
            })
            .boxed()
    })
    .boxed()
}

/// The variables random expressions and statements are built over; the
/// first two are also the loop variables of [`arb_stmt`].
fn corpus_vars() -> Vec<Var> {
    vec![Var::int("a"), Var::int("b"), Var::int("c")]
}

/// One set of corpus variables for the whole process, so that separately
/// generated expressions and the maps over them name the same variables.
fn shared_vars() -> Vec<Var> {
    static VARS: OnceLock<Vec<Var>> = OnceLock::new();
    VARS.get_or_init(corpus_vars).clone()
}

/// A random statement over `vars`: two nested loops on `vars[0]` and
/// `vars[1]` (unit, empty and ordinary extents; serial, unrolled and
/// vectorized) around an allocation, a sequence, a guarded store with an
/// else arm and an unguarded store of random index and value expressions.
fn arb_stmt(vars: Vec<Var>) -> BoxedStrategy<Stmt> {
    let e = || arb_expr(vars.clone(), 3);
    let exprs = (e(), e(), e(), e(), e());
    let shape = (0i64..4, 0i64..4, -2i64..3, 0usize..3);
    (exprs, shape)
        .prop_map(move |((i1, v1, i2, v2, c), (n0, n1, lo, kind))| {
            let buf = Var::new("buf", DType::int32());
            let tmp = Var::new("tmp", DType::int32());
            let guarded = Stmt::new(StmtNode::IfThenElse {
                cond: c.lt(Expr::int(3)),
                then_case: Stmt::store(&buf, i1, v1.clone()),
                else_case: Some(Stmt::store(&tmp, Expr::int(0), v1)),
            });
            let body = Stmt::seq(vec![guarded, Stmt::store(&buf, i2, v2)]);
            let body = Stmt::allocate(&tmp, DType::int32(), 4, MemScope::Local, body);
            let kind = [ForKind::Serial, ForKind::Unrolled, ForKind::Vectorized][kind];
            let inner = Stmt::loop_(&vars[1], lo, n1, kind, body);
            Stmt::for_(&vars[0], 0, n0, inner)
        })
        .boxed()
}

/// The mutator that overrides nothing.
struct Identity;
impl Mutator for Identity {}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A rewrite that changes nothing returns the tree it was given, not a
    /// copy: the identity mutator and a substitution of an absent variable.
    #[test]
    fn unchanged_trees_come_back_pointer_identical(
        e in arb_expr(corpus_vars(), 4),
        s in arb_stmt(corpus_vars()),
    ) {
        prop_assert!(Identity.mutate_expr(&e).same_as(&e), "identity copied {e}");
        prop_assert!(Identity.mutate_stmt(&s).same_as(&s), "identity copied\n{s}");
        let mut absent = HashMap::new();
        absent.insert(Var::int("absent").id(), Expr::int(7));
        prop_assert!(substitute(&e, &absent).same_as(&e), "substitute copied {e}");
        prop_assert!(substitute_stmt(&s, &absent).same_as(&s), "substitute copied\n{s}");
    }

    /// The simplifier is idempotent, and says so by identity: simplifying a
    /// simplified tree returns that very tree.
    #[test]
    fn simplifying_twice_returns_the_first_result(
        e in arb_expr(corpus_vars(), 4),
        s in arb_stmt(corpus_vars()),
    ) {
        let once = simplify(&e);
        prop_assert!(simplify(&once).same_as(&once), "{e}\nonce:  {once}\ntwice: {}", simplify(&once));
        let once = simplify_stmt(&s);
        let twice = simplify_stmt(&once);
        prop_assert!(twice.same_as(&once), "{s}\nonce:\n{once}\ntwice:\n{twice}");
    }

    /// The range and substitution helpers read a map the same whichever
    /// hasher built it: std's `RandomState` or the id hasher.
    #[test]
    fn id_maps_and_std_maps_give_the_same_answers(
        e in arb_expr(shared_vars(), 4),
        f in arb_expr(shared_vars(), 3),
        lo in prop::collection::vec(-8i64..8, 3),
        width in prop::collection::vec(0i64..6, 3),
        repl in arb_expr(shared_vars(), 2),
    ) {
        let vars = shared_vars();
        let mut std_bounds = HashMap::new();
        let mut id_bounds = IdMap::default();
        for (i, v) in vars.iter().enumerate() {
            let iv = Interval::new(lo[i], lo[i] + width[i]);
            std_bounds.insert(v.id(), iv);
            id_bounds.insert(v.id(), iv);
        }
        prop_assert_eq!(eval_interval(&e, &std_bounds), eval_interval(&e, &id_bounds));
        for op in [CmpOp::Lt, CmpOp::Le, CmpOp::Eq] {
            prop_assert_eq!(prove_cmp(op, &e, &f, &std_bounds), prove_cmp(op, &e, &f, &id_bounds));
        }
        prop_assert!(simplify_with(&e, &std_bounds).structural_eq(&simplify_with(&e, &id_bounds)));
        let std_sub = HashMap::from([(vars[1].id(), repl.clone())]);
        let id_sub: IdMap<_, _> = std_sub.clone().into_iter().collect();
        prop_assert!(substitute(&e, &std_sub).structural_eq(&substitute(&e, &id_sub)));
    }

    /// Quantization is idempotent and stays within the type's range.
    #[test]
    fn quantization_idempotent(v in any::<i64>(), bits in 1u8..16) {
        let dt = DType::uint(bits);
        let q1 = tvm_ir::interp::quantize(Value::Int(v), dt).expect("quantizes");
        let q2 = tvm_ir::interp::quantize(q1, dt).expect("quantizes");
        prop_assert_eq!(q1, q2);
        if let Value::Int(x) = q1 {
            prop_assert!(x >= 0 && x < (1 << bits));
        }
    }

    /// f16 rounding is idempotent and monotone on finite values.
    #[test]
    fn f16_round_idempotent_and_monotone(a in -1e4f64..1e4, b in -1e4f64..1e4) {
        let ra = tvm_ir::interp::round_f16(a);
        prop_assert_eq!(tvm_ir::interp::round_f16(ra), ra);
        let rb = tvm_ir::interp::round_f16(b);
        if a <= b {
            prop_assert!(ra <= rb, "round({a})={ra} > round({b})={rb}");
        }
    }
}
