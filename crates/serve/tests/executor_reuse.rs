//! One executor per served version: the artifact cache builds a
//! `GraphExecutor` with the version's weights once per (model, bucket,
//! version) and every batch on that key binds its input into it and runs.
//! Reusing the executor must be invisible: every served bit equals what a
//! fresh executor per batch computes, executors are built only when a
//! module is, and a hedged batch's second run on the same executor agrees
//! with its first.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

use tvm_runtime::{GraphExecutor, Module};
use tvm_serve::batch::stack_rows;
use tvm_serve::{
    generate, AdmissionConfig, BatchPolicy, BurstSpec, HedgePolicy, Model, ModelVersion, Request,
    ResponseRecord, ServeOutcome, Service, ServiceConfig, ServiceStats, TenantConfig,
    TenantTraffic, TrafficSpec, ALL_MODELS,
};

/// 300 requests for both models: quiet stretches that flush batches of
/// one and two, and bursts that fill batches of four and eight.
fn trace() -> Vec<Request> {
    let burst = |start_ms: f64| BurstSpec {
        start_ms,
        end_ms: start_ms + 15.0,
        factor: 12.0,
    };
    let mut trace = generate(&TrafficSpec {
        seed: 29,
        horizon_ms: 1000.0,
        tenants: vec![TenantTraffic {
            tenant: "t".into(),
            rate_rps: 300.0,
            models: vec![Model::Mlp, Model::TinyCnn],
            bursts: vec![burst(60.0), burst(200.0), burst(340.0), burst(480.0)],
            deadline_budget_ms: None,
        }],
    });
    assert!(trace.len() >= 300, "trace has {} requests", trace.len());
    trace.truncate(300);
    trace
}

fn config(hedge: HedgePolicy) -> ServiceConfig {
    ServiceConfig {
        tenants: vec![TenantConfig::new("t").queue_cap(4096)],
        admission: AdmissionConfig {
            max_outstanding: 1 << 14,
            ..AdmissionConfig::default()
        },
        batch: BatchPolicy {
            max_batch: 8,
            max_delay_ms: 2.0,
            ..BatchPolicy::default()
        },
        devices: 2,
        keep_outputs: true,
        hedge,
        ..ServiceConfig::default()
    }
}

fn serve(hedge: HedgePolicy) -> (Service, Vec<ResponseRecord>, ServiceStats) {
    let mut svc = Service::new(config(hedge)).expect("service");
    let (responses, stats) = svc.run(trace());
    assert_eq!(responses.len(), 300);
    assert_eq!(stats.completed, 300, "{stats:?}");
    (svc, responses, stats)
}

/// id → output bits of every response.
fn served_bits(responses: &[ResponseRecord]) -> BTreeMap<u64, Vec<u32>> {
    responses
        .iter()
        .map(|r| match &r.outcome {
            ServeOutcome::Ok {
                output: Some(row), ..
            } => (r.id, row.iter().map(|v| v.to_bits()).collect()),
            other => panic!("request {} did not complete: {other:?}", r.id),
        })
        .collect()
}

/// The executed batches, in completion order: requests that share model,
/// completion time and bucket ran together, `batch_size` at a time.
fn batches(responses: &[ResponseRecord], trace: &[Request]) -> Vec<(Model, i64, Vec<Request>)> {
    let mut open: HashMap<(Model, u64, i64), Vec<Request>> = HashMap::new();
    let mut out = Vec::new();
    for r in responses {
        let key = (r.model, r.done_ms.to_bits(), r.bucket);
        let rows = open.entry(key).or_default();
        rows.push(trace[r.id as usize].clone());
        if rows.len() == r.batch_size {
            out.push((r.model, r.bucket, open.remove(&key).unwrap_or_default()));
        }
    }
    assert!(open.is_empty(), "responses left over: {open:?}");
    out
}

#[test]
fn reused_executors_serve_the_bits_of_a_fresh_executor_per_batch() {
    let (_, responses, _) = serve(HedgePolicy::default());
    let served = served_bits(&responses);
    let trace = trace();
    let batches = batches(&responses, &trace);

    // Every bucket recurs for both models, so every executor runs again.
    let mut runs: HashMap<(Model, i64), usize> = HashMap::new();
    for (model, bucket, _) in &batches {
        *runs.entry((*model, *bucket)).or_default() += 1;
    }
    for model in ALL_MODELS {
        for bucket in [1, 2, 4, 8] {
            let n = runs.get(&(model, bucket)).copied().unwrap_or(0);
            assert!(n >= 2, "{} at bucket {bucket} ran {n} times", model.name());
        }
    }

    // The oracle: modules built outside the service, and a new executor
    // with the baseline weights for every batch.
    let mut modules: HashMap<(Model, i64), Arc<Module>> = HashMap::new();
    for (model, bucket, rows) in &batches {
        let module = modules.entry((*model, *bucket)).or_insert_with(|| {
            let graph = model.build_graph(*bucket);
            let module = tvm::build(&graph, &tvm::target::arm_a53(), &Default::default());
            Arc::new(module.expect("serving models build"))
        });
        let mut ex = GraphExecutor::from_arc_with_weights(Arc::clone(module), 0);
        ex.set_input(
            model.input_name(),
            stack_rows(*model, *bucket, rows).expect("rows"),
        )
        .expect("binds");
        ex.run().expect("runs");
        let out = ex.get_output(0).expect("output");
        for (i, r) in rows.iter().enumerate() {
            let row = &out.data[i * model.out_row_len()..(i + 1) * model.out_row_len()];
            let want: Vec<u32> = row.iter().map(|v| v.to_bits()).collect();
            assert_eq!(
                served[&r.id],
                want,
                "request {} at {} bucket {bucket}",
                r.id,
                model.name()
            );
        }
    }
}

#[test]
fn executors_are_built_once_per_served_key() {
    let (svc, responses, stats) = serve(HedgePolicy::default());
    let served: HashSet<(Model, i64, u64)> = responses
        .iter()
        .map(|r| {
            let version = ModelVersion::baseline(r.model).fingerprint();
            (r.model, r.bucket, version)
        })
        .collect();
    assert_eq!(stats.cache.cold_builds, served.len() as u64);
    assert_eq!(stats.cache.hits + stats.cache.cold_builds, stats.batches);
    assert!(
        stats.cache.hits > stats.cache.cold_builds,
        "{:?}",
        stats.cache
    );
    let held: HashSet<(Model, i64, u64)> = svc.cache().keys().collect();
    assert_eq!(
        held, served,
        "one cache entry, and so one executor, per key"
    );
}

#[test]
fn a_hedged_batch_reruns_its_executor_to_the_same_bits() {
    // `tail.rs`'s forced hedge: once a model has a latency sample, every
    // batch of it issues a second replica, which runs the same cached
    // executor once more.
    let force_hedge = HedgePolicy {
        enabled: true,
        min_samples: 1,
        quantile: 0.0,
        factor: 0.0,
        min_threshold_ms: 0.0,
    };
    let (_, hedged, stats) = serve(force_hedge);
    assert!(
        stats.hedge.issued + ALL_MODELS.len() as u64 >= stats.batches,
        "only {} hedges over {} batches",
        stats.hedge.issued,
        stats.batches
    );
    assert_eq!(stats.hedge.divergences, 0, "replicas disagreed");
    let (_, unhedged, _) = serve(HedgePolicy::default());
    assert_eq!(served_bits(&hedged), served_bits(&unhedged));
}
