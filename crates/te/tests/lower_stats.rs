//! te's process-wide lowering counters ([`lower_stats`]) count whether or
//! not the `tvm-obs` registry is recording. The perf ledger reads them with
//! the registry off, so gating them on its switch would silently zero the
//! ledger's exact `te.*` metrics.
//!
//! One test in its own binary: the counters are process-global, and no
//! other test may lower while this one reads them.

use tvm_ir::DType;
use tvm_te::{
    compute, create_schedule, emit_planned, lower, lower_stats, placeholder, plan_schedule,
    LowerOptions, PlanCache,
};

#[test]
fn lowering_counters_count_with_obs_off() {
    tvm_obs::set_enabled(false);
    let n = 32;
    let a = placeholder(&[n, n], DType::float32(), "A");
    let b = compute(&[n, n], "B", |i| a.at(&[i[1].clone(), i[0].clone()]) + 1);
    let s = create_schedule(std::slice::from_ref(&b));
    let args = [a.clone(), b.clone()];

    let before = lower_stats();
    lower(&s, &args, "copy").expect("lowers");
    assert_eq!(lower_stats().lowerings - before.lowerings, 1);

    // The same structure twice through one cache: the first build plans
    // (a miss), the second reuses that plan (a hit). Both emit.
    let cache = PlanCache::default();
    let build = || {
        let plan = cache.get_or_build(0, || plan_schedule(&s).expect("plans"));
        emit_planned(&s, &plan, &args, "copy", &LowerOptions::default()).expect("emits");
    };
    let first = lower_stats();
    build();
    let second = lower_stats();
    build();
    let third = lower_stats();
    let delta = |from: &tvm_te::LowerStats, to: &tvm_te::LowerStats| {
        (
            to.plan_misses - from.plan_misses,
            to.plan_hits - from.plan_hits,
            to.lowerings - from.lowerings,
        )
    };
    assert_eq!(delta(&first, &second), (1, 0, 1), "first build");
    assert_eq!(delta(&second, &third), (0, 1, 1), "second build");
    assert!(!tvm_obs::enabled());
    assert!(tvm_obs::Registry::global().events().is_empty());
}
