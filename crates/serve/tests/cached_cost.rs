//! A served batch is never simulated: `tvm::build` costed each kernel when
//! it lowered it, the artifact cache keeps the module, and the device pool
//! schedules that number. Once every module a window needs is cached, a
//! window makes no `tvm_sim::analyze` call at all.
//!
//! The cache is a memo: it compiles once per distinct (model, batch
//! bucket, version) it serves, and every other batch is a hit.
//!
//! Alone in its test binary: the count is process-global.

use std::collections::HashSet;

use tvm_serve::{
    generate, BatchPolicy, Model, ModelVersion, Request, ResponseRecord, Service, ServiceConfig,
    TenantConfig, TenantTraffic, TrafficSpec,
};
use tvm_sim::analysis::analyze_calls;

const WINDOW_MS: f64 = 60.0;

/// The (model, bucket, version) triples the responses were served at;
/// every request here runs its model's baseline version.
fn triples(responses: &[ResponseRecord]) -> HashSet<(Model, i64, u64)> {
    responses
        .iter()
        .filter(|r| r.bucket > 0)
        .map(|r| {
            let version = ModelVersion::baseline(r.model).fingerprint();
            (r.model, r.bucket, version)
        })
        .collect()
}

#[test]
fn a_window_whose_modules_are_cached_simulates_nothing() {
    let first: Vec<Request> = generate(&TrafficSpec {
        seed: 7,
        horizon_ms: WINDOW_MS,
        tenants: vec![TenantTraffic {
            tenant: "t".into(),
            rate_rps: 400.0,
            models: vec![Model::Mlp, Model::TinyCnn],
            bursts: vec![],
            deadline_budget_ms: None,
        }],
    });
    // The same arrivals one window later: the same batches, so the same
    // modules.
    let second: Vec<Request> = first
        .iter()
        .map(|r| Request {
            id: r.id + first.len() as u64,
            arrival_ms: r.arrival_ms + 2.0 * WINDOW_MS,
            ..r.clone()
        })
        .collect();
    let mut svc = Service::new(ServiceConfig {
        tenants: vec![TenantConfig::new("t").queue_cap(4096)],
        batch: BatchPolicy {
            max_batch: 4,
            max_delay_ms: 2.0,
            ..BatchPolicy::default()
        },
        keep_outputs: false,
        ..ServiceConfig::default()
    })
    .expect("service");

    let before = analyze_calls();
    let (cold_responses, cold) = svc.run(first);
    assert!(cold.cache.cold_builds > 0);
    assert_eq!(
        cold.cache.cold_builds,
        triples(&cold_responses).len() as u64,
        "one compile per distinct (model, bucket, version) served"
    );
    assert_eq!(cold.cache.hits + cold.cache.cold_builds, cold.batches);
    assert!(
        analyze_calls() > before,
        "building the modules costs their kernels"
    );

    let before = analyze_calls();
    let (responses, warm) = svc.run(second);
    assert_eq!(warm.cache.cold_builds, cold.cache.cold_builds);
    assert_eq!(warm.cache.hits + warm.cache.cold_builds, warm.batches);
    assert!(triples(&responses).is_subset(&triples(&cold_responses)));
    assert!(warm.batches > cold.batches && warm.pool.attempts > cold.pool.attempts);
    assert_eq!(warm.failed, 0);
    assert!(!responses.is_empty());
    assert_eq!(analyze_calls() - before, 0, "a cached kernel was simulated");
}
