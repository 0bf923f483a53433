//! `analyze` at the edges of its footprint rule. A loop range or index
//! width past `i64` is an unknown footprint, so it falls back to the trip
//! count, and nothing overflows (which used to panic in debug builds and
//! wrap in release builds). A loop that shadows an outer loop's variable
//! ranges at every depth it is inside.

use tvm_ir::{DType, Expr, LoweredFunc, Stmt, Var};
use tvm_sim::analysis::{analyze, AccessRecord};

/// `out[0] = in[index(i)]` inside the loops `nest` wraps around it: the
/// load's record.
fn load_record(nest: impl Fn(&Var, Stmt) -> Stmt, index: impl Fn(&Var) -> Expr) -> AccessRecord {
    let i = Var::int("i");
    let (src, out) = (
        Var::new("in", DType::int32()),
        Var::new("out", DType::int32()),
    );
    let store = Stmt::store(&out, Expr::int(0), Expr::load(&src, index(&i)));
    let f = LoweredFunc {
        name: "f".into(),
        params: vec![src, out],
        param_dtypes: vec![DType::int32(); 2],
        param_extents: vec![1, 1],
        body: nest(&i, store),
    };
    analyze(&f).accesses.remove(1)
}

#[test]
fn loop_range_past_i64_is_an_unknown_footprint() {
    let r = load_record(|i, s| Stmt::for_(i, i64::MAX - 2, 10, s), |i| i.to_expr());
    assert_eq!(r.footprint_at_depth, vec![10.0, 1.0]);
    assert_eq!(r.innermost_stride, 1);
}

#[test]
fn index_width_past_i64_is_an_unknown_footprint() {
    // `i * MAX` over [0, 9] saturates to [0, MAX]: one more than MAX wide.
    let r = load_record(|i, s| Stmt::for_(i, 0, 10, s), |i| i.clone() * i64::MAX);
    assert_eq!(r.footprint_at_depth, vec![10.0, 1.0]);
    assert_eq!(r.innermost_stride, i64::MAX);
}

#[test]
fn shadowing_loop_ranges_while_the_outer_one_is_pinned() {
    // for i in [0, 8) { for i in [0, 4) { in[i] } }: `i` is the inner loop's.
    let r = load_record(
        |i, s| Stmt::for_(i, 0, 8, Stmt::for_(i, 0, 4, s)),
        |i| i.to_expr(),
    );
    assert_eq!(r.footprint_at_depth, vec![4.0, 4.0, 1.0]);
    assert_eq!(r.innermost_stride, 1);
}
