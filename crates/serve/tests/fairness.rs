//! Fairness/starvation suite: a saturating aggressive tenant cannot
//! starve a well-behaved one.
//!
//! The polite tenant offers less than its DRR-weighted share of measured
//! capacity; the aggressive tenant offers several times total capacity.
//! Under weighted fair dispatch the polite tenant's requests must (a)
//! essentially all complete, (b) never wait unboundedly, while the
//! aggressive tenant absorbs the shedding — and the whole experiment is
//! bit-reproducible under a fixed seed at any worker count.

use tvm_serve::{
    generate, AdmissionConfig, BatchPolicy, Model, ResponseRecord, Service, ServiceConfig,
    ServiceStats, TenantConfig, TenantTraffic, TrafficSpec,
};

/// Measured capacity (requests per virtual second) of the configured
/// service: the offered rate is raised geometrically until admission
/// control sheds, then goodput at that saturating rate is the capacity.
/// The trace length shrinks as the rate grows so the request count (and
/// wall time) stays bounded.
fn measured_capacity_rps() -> f64 {
    let mut rate = 2000.0f64;
    loop {
        let horizon_ms = (1200.0 / rate * 1000.0).clamp(5.0, 500.0);
        let trace = generate(&TrafficSpec {
            seed: 5,
            horizon_ms,
            tenants: vec![TenantTraffic {
                tenant: "calib".into(),
                rate_rps: rate,
                models: vec![Model::Mlp],
                bursts: vec![],
                deadline_budget_ms: None,
            }],
        });
        let mut svc = Service::new(ServiceConfig {
            tenants: vec![TenantConfig::new("calib").queue_cap(64)],
            ..ServiceConfig::default()
        })
        .expect("service");
        let (_, stats) = svc.run(trace);
        assert!(stats.completed > 0, "calibration served nothing");
        if stats.shed > 0 {
            return stats.completed as f64 * 1000.0 / stats.horizon_ms.max(1e-9);
        }
        rate *= 4.0;
        assert!(rate < 1e12, "service never saturated during calibration");
    }
}

fn contended_run(seed: u64, capacity_rps: f64) -> (Vec<ResponseRecord>, ServiceStats) {
    let polite_rate = capacity_rps * 0.20;
    let aggressive_rate = capacity_rps * 4.0;
    // Bound the trace to a few thousand requests whatever the capacity.
    let horizon_ms = (3000.0 / (polite_rate + aggressive_rate) * 1000.0).clamp(5.0, 500.0);
    let trace = generate(&TrafficSpec {
        seed,
        horizon_ms,
        tenants: vec![
            TenantTraffic {
                tenant: "polite".into(),
                rate_rps: polite_rate,
                models: vec![Model::Mlp],
                bursts: vec![],
                deadline_budget_ms: None,
            },
            TenantTraffic {
                tenant: "aggressive".into(),
                rate_rps: aggressive_rate,
                models: vec![Model::Mlp],
                bursts: vec![],
                deadline_budget_ms: None,
            },
        ],
    });
    let mut svc = Service::new(ServiceConfig {
        tenants: vec![
            // Polite holds 3 of 4 dispatch shares; its queue is deep
            // enough to never overflow at 20% of capacity.
            TenantConfig::new("polite").weight(3).queue_cap(256),
            TenantConfig::new("aggressive").weight(1).queue_cap(64),
        ],
        admission: AdmissionConfig {
            max_outstanding: 512,
            ..AdmissionConfig::default()
        },
        batch: BatchPolicy {
            max_batch: 8,
            max_delay_ms: 2.0,
            ..BatchPolicy::default()
        },
        ..ServiceConfig::default()
    })
    .expect("service");
    svc.run(trace)
}

#[test]
fn polite_tenant_keeps_its_share_under_saturation() {
    let capacity = measured_capacity_rps();
    let (_responses, stats) = contended_run(42, capacity);

    let polite = &stats.per_tenant[0];
    let aggressive = &stats.per_tenant[1];
    assert_eq!(polite.name, "polite");
    let polite_total = polite.ok + polite.shed + polite.err;
    let aggressive_total = aggressive.ok + aggressive.shed + aggressive.err;
    assert!(polite_total > 20, "too few polite requests to judge");
    assert!(
        aggressive_total as f64 > polite_total as f64 * 5.0,
        "aggressive tenant is not saturating ({aggressive_total} vs {polite_total})"
    );

    // (a) The polite tenant's goodput stays within its weighted share:
    // offered 20% of capacity against a 75% share, nearly everything
    // must complete.
    let polite_goodput = polite.ok as f64 / polite_total as f64;
    assert!(
        polite_goodput >= 0.95,
        "polite tenant starved: goodput {polite_goodput:.3}"
    );
    // The aggressive tenant must actually be shedding.
    assert!(
        aggressive.shed > aggressive_total / 2,
        "aggressive tenant should shed most of its load ({} of {})",
        aggressive.shed,
        aggressive_total
    );

    // (b) No unbounded waits: the worst polite queue wait stays within a
    // small multiple of the batching delay plus service time.
    assert!(
        polite.max_wait_ms < 50.0,
        "polite max wait {} ms suggests starvation",
        polite.max_wait_ms
    );
}

/// The shedding machinery itself must stay fair: an aggressor with
/// tight deadlines saturating the service past the brownout watermark
/// may only hurt itself. The polite tenant (no deadlines, low rate,
/// high weight) keeps ≥95% goodput while deadline shedding and brownout
/// shares tear into the aggressor — and the whole storm is
/// bit-reproducible at any worker count.
fn shedding_storm_run(seed: u64, capacity_rps: f64) -> (Vec<ResponseRecord>, ServiceStats) {
    let polite_rate = capacity_rps * 0.10;
    let aggressive_rate = capacity_rps * 4.0;
    let horizon_ms = (4000.0 / (polite_rate + aggressive_rate) * 1000.0).clamp(5.0, 500.0);
    let trace = generate(&TrafficSpec {
        seed,
        horizon_ms,
        tenants: vec![
            TenantTraffic {
                tenant: "polite".into(),
                rate_rps: polite_rate,
                models: vec![Model::Mlp],
                bursts: vec![],
                deadline_budget_ms: None,
            },
            TenantTraffic {
                tenant: "aggressive".into(),
                rate_rps: aggressive_rate,
                models: vec![Model::Mlp],
                bursts: vec![],
                // Below the wait the brownout-capped queue (512 requests,
                // see `admission` below) still imposes at the measured
                // capacity, so both shedding paths (deadline + brownout
                // share) fire however fast the kernels are.
                deadline_budget_ms: Some(0.6 * 512.0 / capacity_rps * 1000.0),
            },
        ],
    });
    let mut svc = Service::new(ServiceConfig {
        tenants: vec![
            TenantConfig::new("polite").weight(3).queue_cap(512),
            TenantConfig::new("aggressive").weight(1).queue_cap(4096),
        ],
        // The aggressor's brownout share (1/4 of 2048) still admits a
        // queue deeper than its deadline budget can drain, so both the
        // deadline gate and the brownout share cap must fire.
        admission: AdmissionConfig {
            max_outstanding: 2048,
            brownout_watermark: 64,
        },
        batch: BatchPolicy {
            max_batch: 8,
            max_delay_ms: 2.0,
            ..BatchPolicy::default()
        },
        ..ServiceConfig::default()
    })
    .expect("service");
    svc.run(trace)
}

#[test]
fn polite_tenant_survives_deadline_and_brownout_storm() {
    let capacity = measured_capacity_rps();
    let (_responses, stats) = shedding_storm_run(4242, capacity);

    // The storm actually exercised both shedding paths.
    assert!(stats.brownout_ms > 0.0, "brownout never engaged: {stats:?}");
    assert!(stats.brownout_sheds > 0, "no brownout sheds: {stats:?}");
    assert!(
        stats.deadline_exceeded > 0,
        "no deadline sheds despite sub-queue budgets: {stats:?}"
    );

    let polite = &stats.per_tenant[0];
    let aggressive = &stats.per_tenant[1];
    assert_eq!(polite.name, "polite");
    let polite_total = polite.ok + polite.shed + polite.err + polite.deadline;
    assert!(polite_total > 20, "too few polite requests to judge");
    let polite_goodput = polite.ok as f64 / polite_total as f64;
    assert!(
        polite_goodput >= 0.95,
        "polite tenant starved under shedding storm: goodput {polite_goodput:.3}"
    );
    // The aggressor absorbs both kinds of shedding.
    assert!(aggressive.shed + aggressive.deadline > aggressive.ok);
}

#[test]
fn shedding_storm_is_deterministic_across_worker_counts() {
    let capacity = measured_capacity_rps();
    let mut fingerprints = Vec::new();
    for threads in [1usize, 3] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool");
        let (responses, stats) = pool.install(|| shedding_storm_run(4242, capacity));
        let fp: Vec<(u64, u64, &'static str)> = responses
            .iter()
            .map(|r| {
                let tag = match &r.outcome {
                    tvm_serve::ServeOutcome::Ok { .. } => "ok",
                    tvm_serve::ServeOutcome::DeadlineExceeded { .. } => "deadline",
                    tvm_serve::ServeOutcome::Rejected(e) => e.kind(),
                };
                (r.id, r.done_ms.to_bits(), tag)
            })
            .collect();
        fingerprints.push((
            fp,
            stats.completed,
            stats.shed,
            stats.deadline_exceeded,
            stats.brownout_sheds,
        ));
    }
    assert_eq!(
        fingerprints[0], fingerprints[1],
        "shedding storm must be bit-identical at any worker count"
    );
}

#[test]
fn contended_run_is_deterministic_across_worker_counts() {
    let capacity = measured_capacity_rps();
    let mut fingerprints = Vec::new();
    for threads in [1usize, 3] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool");
        let (responses, stats) = pool.install(|| contended_run(42, capacity));
        let fp: Vec<(u64, u64, &'static str)> = responses
            .iter()
            .map(|r| {
                let tag = match &r.outcome {
                    tvm_serve::ServeOutcome::Ok { .. } => "ok",
                    tvm_serve::ServeOutcome::DeadlineExceeded { .. } => "deadline",
                    tvm_serve::ServeOutcome::Rejected(e) => e.kind(),
                };
                (r.id, r.done_ms.to_bits(), tag)
            })
            .collect();
        fingerprints.push((fp, stats.completed, stats.shed));
    }
    assert_eq!(
        fingerprints[0], fingerprints[1],
        "same seed must be bit-identical at any worker count"
    );
}
