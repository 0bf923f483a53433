//! Serving outcomes, pinned by digest across commits.
//!
//! The other suites compare two runs of one build (batched against
//! unbatched, one worker count against another). This one pins the bytes:
//! for each scenario it hashes every response (id, tenant, model, arrival
//! and completion bits, batch size, bucket, and the served digest or the
//! error's kind and text) and the `Debug` print of the run's statistics.
//! A refactor of the engine must leave all of them where they are; the
//! tracker's fault sequence follows the order the engine dispatches to the
//! pool (primary, hedge, canary candidate, canary cross-check), so moving
//! one dispatch moves every later fault.
//!
//! Every scenario but the first runs with chaos faults, forced hedging and
//! a canary on every batch. When a digest legitimately changes, the
//! failing test prints the whole table in source form.

use tvm_autotune::RetryPolicy;
use tvm_serve::service::serving_retry_policy;
use tvm_serve::{
    generate, AdmissionConfig, BatchPolicy, HedgePolicy, Model, ModelVersion, ResponseRecord,
    RolloutConfig, ServeOutcome, Service, ServiceConfig, ServiceStats, TenantConfig, TenantTraffic,
    TrafficSpec,
};
use tvm_sim::{FaultPlan, FaultRates};

/// FNV-1a, as in `tests/golden_lowering.rs`.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf29ce484222325)
    }
    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }
    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

fn digest(responses: &[ResponseRecord], stats: &ServiceStats) -> u64 {
    let mut h = Fnv::new();
    h.u64(responses.len() as u64);
    for r in responses {
        h.u64(r.id);
        h.str(&r.tenant);
        h.str(r.model.name());
        h.u64(r.arrival_ms.to_bits());
        h.u64(r.done_ms.to_bits());
        h.u64(r.batch_size as u64);
        h.u64(r.bucket as u64);
        match &r.outcome {
            ServeOutcome::Ok { digest, .. } => {
                h.str("ok");
                h.u64(u64::from(*digest));
            }
            ServeOutcome::DeadlineExceeded { deadline_ms } => {
                h.str("deadline");
                h.u64(deadline_ms.to_bits());
            }
            ServeOutcome::Rejected(e) => {
                h.str(e.kind());
                h.str(&e.to_string());
            }
        }
    }
    h.str(&format!("{stats:?}"));
    h.0
}

/// Retried, moderate chaos: every fault kind but crashes.
fn chaos(seed: u64) -> FaultPlan {
    FaultPlan::seeded(
        seed,
        FaultRates {
            crash: 0.0,
            hang: 0.03,
            transient: 0.06,
            noise: 0.10,
            noise_factor: 10.0,
        },
    )
}

/// Chaos that a single attempt often cannot survive.
fn harsh(seed: u64) -> FaultPlan {
    FaultPlan::seeded(
        seed,
        FaultRates {
            crash: 0.0,
            hang: 0.04,
            transient: 0.08,
            noise: 0.10,
            noise_factor: 10.0,
        },
    )
}

/// Hedges every batch once the window holds one sample.
fn forced_hedge() -> HedgePolicy {
    HedgePolicy {
        enabled: true,
        min_samples: 1,
        quantile: 0.0,
        factor: 0.0,
        min_threshold_ms: 0.0,
    }
}

fn config(faults: FaultPlan, retry: RetryPolicy) -> ServiceConfig {
    ServiceConfig {
        tenants: vec![TenantConfig::new("t").queue_cap(4096)],
        admission: AdmissionConfig {
            max_outstanding: 1 << 14,
            ..AdmissionConfig::default()
        },
        batch: BatchPolicy {
            max_batch: 4,
            max_delay_ms: 0.5,
            ..BatchPolicy::default()
        },
        devices: 3,
        retry,
        faults,
        hedge: forced_hedge(),
        rollout: RolloutConfig {
            canary_fraction: 1.0,
            window_ms: 1e9,
            min_canary_batches: 3,
            max_candidate_failures: 1000,
        },
        ..ServiceConfig::default()
    }
}

fn mlp_trace(seed: u64) -> Vec<tvm_serve::Request> {
    generate(&TrafficSpec {
        seed,
        horizon_ms: 200.0,
        tenants: vec![TenantTraffic {
            tenant: "t".into(),
            rate_rps: 400.0,
            models: vec![Model::Mlp],
            bursts: vec![],
            deadline_budget_ms: None,
        }],
    })
}

/// A candidate version of the MLP.
fn candidate(weights: u64, label: &str) -> ModelVersion {
    ModelVersion {
        model: Model::Mlp,
        weights,
        label: label.into(),
    }
}

/// Runs `mlp_trace(seed)` on `cfg`, rolling `candidate` out when given.
fn run(
    cfg: ServiceConfig,
    candidate: Option<&ModelVersion>,
    seed: u64,
) -> (Vec<ResponseRecord>, ServiceStats) {
    let mut svc = Service::new(cfg).expect("service");
    if let Some(v) = candidate {
        svc.begin_rollout(v.model, v.weights, &v.label)
            .expect("rollout");
    }
    svc.run(mlp_trace(seed))
}

/// `tests/tail.rs`'s full stack: two tenants, both models, deadlines,
/// brownout, chaos, adaptive hedging and a live same-weights rollout.
fn full_stack() -> (Vec<ResponseRecord>, ServiceStats) {
    let mut svc = Service::new(ServiceConfig {
        tenants: vec![
            TenantConfig::new("a").weight(2).queue_cap(512),
            TenantConfig::new("b").weight(1).queue_cap(512),
        ],
        admission: AdmissionConfig {
            max_outstanding: 256,
            brownout_watermark: 96,
        },
        batch: BatchPolicy {
            max_batch: 8,
            max_delay_ms: 2.0,
            ..BatchPolicy::default()
        },
        devices: 3,
        faults: FaultPlan::seeded(
            0xD15EA5E,
            FaultRates {
                crash: 0.0,
                hang: 0.02,
                transient: 0.04,
                noise: 0.10,
                noise_factor: 10.0,
            },
        ),
        hedge: HedgePolicy {
            enabled: true,
            min_samples: 8,
            quantile: 0.5,
            factor: 2.0,
            min_threshold_ms: 0.0,
        },
        rollout: RolloutConfig {
            canary_fraction: 0.5,
            window_ms: 30.0,
            min_canary_batches: 2,
            max_candidate_failures: 8,
        },
        ..ServiceConfig::default()
    })
    .expect("service");
    svc.begin_rollout(Model::Mlp, 0, "v1-retuned")
        .expect("rollout");
    svc.run(generate(&TrafficSpec {
        seed: 4242,
        horizon_ms: 250.0,
        tenants: vec![
            TenantTraffic {
                tenant: "a".into(),
                rate_rps: 400.0,
                models: vec![Model::Mlp, Model::TinyCnn],
                bursts: vec![],
                deadline_budget_ms: Some(8.0),
            },
            TenantTraffic {
                tenant: "b".into(),
                rate_rps: 2500.0,
                models: vec![Model::Mlp],
                bursts: vec![],
                deadline_budget_ms: None,
            },
        ],
    }))
}

fn rejected(responses: &[ResponseRecord], kind: &str) -> usize {
    responses
        .iter()
        .filter(|r| matches!(&r.outcome, ServeOutcome::Rejected(e) if e.kind() == kind))
        .count()
}

fn single_attempt() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 1,
        ..serving_retry_policy()
    }
}

/// Captured on the commit before the engine's pool dispatches were folded
/// into one replica path.
const GOLDEN: &[(&str, u64)] = &[
    ("full_stack", 0x4a020453f4b1fe09),
    ("hedge/stable_corrupt_on_one", 0x178d67410fa599c4),
    ("canary/new_weights/corrupt_on_one", 0x0511fdb9ddcf8b39),
    ("canary/new_weights/healthy", 0x7cc63c9087999a3c),
    ("canary/same_weights/corrupt_everywhere", 0x6d6d91fb135e8a71),
    ("canary/same_weights/healthy", 0x1757313fc9149ad4),
    ("harsh/new_weights", 0x9fb1da082a333326),
    ("harsh/same_weights", 0x0ae4cfc96d580950),
];

#[test]
fn serving_outcomes_are_byte_identical() {
    let mut actual: Vec<(&str, u64)> = Vec::new();

    let (rs, st) = full_stack();
    assert!(st.hedge.issued > 0 && st.rollout.canary_batches > 0);
    actual.push(("full_stack", digest(&rs, &st)));

    let mut faults = chaos(0x5EED_0001);
    faults.corrupt_version_on(ModelVersion::baseline(Model::Mlp).fingerprint(), 1, 777);
    let (rs, st) = run(config(faults, serving_retry_policy()), None, 5);
    assert!(st.hedge.divergences > 0, "{:?}", st.hedge);
    assert!(rejected(&rs, "silent_divergence") > 0);
    actual.push(("hedge/stable_corrupt_on_one", digest(&rs, &st)));

    let new = candidate(9, "v2-weights");
    let mut faults = chaos(0x5EED_0002);
    faults.corrupt_version_on(new.fingerprint(), 1, 0xBAD);
    let (rs, st) = run(config(faults, serving_retry_policy()), Some(&new), 7);
    assert_eq!(st.rollout.rollbacks, 1, "{:?}", st.rollout);
    actual.push(("canary/new_weights/corrupt_on_one", digest(&rs, &st)));

    let (rs, st) = run(
        config(chaos(0x5EED_0003), serving_retry_policy()),
        Some(&new),
        7,
    );
    assert_eq!(st.rollout.rollbacks, 0, "{:?}", st.rollout);
    actual.push(("canary/new_weights/healthy", digest(&rs, &st)));

    let same = candidate(0, "v1-retuned");
    let mut faults = chaos(0x5EED_0004);
    faults.corrupt_version(same.fingerprint(), 0x0BAD);
    let (rs, st) = run(config(faults, serving_retry_policy()), Some(&same), 11);
    assert_eq!(st.rollout.rollbacks, 1, "{:?}", st.rollout);
    actual.push(("canary/same_weights/corrupt_everywhere", digest(&rs, &st)));

    let (rs, st) = run(
        config(chaos(0x5EED_0005), serving_retry_policy()),
        Some(&same),
        11,
    );
    assert_eq!(st.rollout.rollbacks, 0, "{:?}", st.rollout);
    actual.push(("canary/same_weights/healthy", digest(&rs, &st)));

    for (name, cand, seed) in [
        ("harsh/new_weights", &new, 0x5EED_0006),
        ("harsh/same_weights", &same, 0x5EED_0007),
    ] {
        let (rs, st) = run(config(harsh(seed), single_attempt()), Some(cand), 13);
        assert!(
            rejected(&rs, "device_failure") > 0,
            "{name}: no primary failed"
        );
        assert!(
            st.rollout.candidate_failures > 0,
            "{name}: {:?}",
            st.rollout
        );
        actual.push((name, digest(&rs, &st)));
    }

    let golden = |name: &str| GOLDEN.iter().find(|(n, _)| *n == name).map(|(_, d)| *d);
    if actual.iter().any(|(name, d)| golden(name) != Some(*d)) {
        let table: String = actual
            .iter()
            .map(|(n, d)| format!("    (\"{n}\", 0x{d:016x}),\n"))
            .collect();
        panic!("serving outcome digests differ; this run produced:\n{table}");
    }
}
