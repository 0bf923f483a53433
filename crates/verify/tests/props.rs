//! Property tests that check a symbolic analysis against the reference
//! walker's concrete value ([`tvm_verify::reference::eval_int`]).

use std::collections::HashMap;

use proptest::prelude::*;

use tvm_ir::{eval_interval, Interval, Var, VarId};
use tvm_verify::reference::eval_int;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// eval_interval is a sound over-approximation: the concrete value of
    /// the expression always falls inside the computed interval.
    #[test]
    fn interval_analysis_is_sound(
        lo in -10i64..10,
        width in 0i64..10,
        at in 0i64..10,
        vals2 in prop::collection::vec(-9i64..9, 2),
    ) {
        let x = Var::int("x");
        let y = Var::int("y");
        let z = Var::int("z");
        // e = (x * c1 + y) and friends via a fixed compound shape.
        let e = (x.clone() * vals2[0] + y.clone()).max(x.clone() - vals2[1])
            + (z.clone() % 5);
        let mut bounds: HashMap<VarId, Interval> = HashMap::new();
        bounds.insert(x.id(), Interval::new(lo, lo + width));
        bounds.insert(y.id(), Interval::new(-3, 3));
        bounds.insert(z.id(), Interval::new(0, 9));
        let iv = eval_interval(&e, &bounds).expect("analyzable");
        // Pick a concrete point inside the bounds.
        let xv = lo + at.min(width);
        let yv = (vals2[0].rem_euclid(7)) - 3;
        let zv = at.rem_euclid(10);
        let got = eval_int(&e, &[(x, xv), (y, yv), (z, zv)]).expect("evaluates");
        prop_assert!(iv.min <= got && got <= iv.max, "{got} outside [{}, {}]", iv.min, iv.max);
    }
}
