//! Batching-equivalence property: batched execution returns bit-identical
//! outputs to one-at-a-time execution, for every coalescing policy, batch
//! size, and worker count.
//!
//! This is the core correctness claim of the dynamic batcher: coalescing
//! is purely a throughput decision and can never change a single bit of
//! any response. It holds because every zoo model's per-row computation
//! is row-independent and the CPU schedule templates keep the reduction
//! accumulation order row-invariant under any tiling.

use std::collections::BTreeMap;
use std::sync::Arc;

use tvm_serve::{
    generate, AdmissionConfig, BatchPolicy, Model, Request, ServeOutcome, Service, ServiceConfig,
    TenantConfig, TenantTraffic, TrafficSpec,
};

fn low_load_trace(seed: u64) -> Vec<Request> {
    generate(&TrafficSpec {
        seed,
        horizon_ms: 400.0,
        tenants: vec![
            TenantTraffic {
                tenant: "alpha".into(),
                rate_rps: 150.0,
                models: vec![Model::Mlp, Model::TinyCnn],
                bursts: vec![],
                deadline_budget_ms: None,
            },
            TenantTraffic {
                tenant: "beta".into(),
                rate_rps: 100.0,
                models: vec![Model::Mlp],
                bursts: vec![],
                deadline_budget_ms: None,
            },
        ],
    })
}

fn config(batch: BatchPolicy) -> ServiceConfig {
    ServiceConfig {
        tenants: vec![
            TenantConfig::new("alpha").queue_cap(4096),
            TenantConfig::new("beta").queue_cap(4096),
        ],
        admission: AdmissionConfig {
            max_outstanding: 1 << 14,
            ..AdmissionConfig::default()
        },
        batch,
        devices: 2,
        keep_outputs: true,
        ..ServiceConfig::default()
    }
}

/// id → (digest, output bits) for every completed request; panics if any
/// request was shed (equivalence traces are sized to never shed).
fn outputs_of(batch: BatchPolicy, trace: &[Request]) -> BTreeMap<u64, (u32, Vec<u32>)> {
    let mut svc = Service::new(config(batch)).expect("service");
    let (responses, stats) = svc.run(trace.to_vec());
    assert_eq!(stats.shed, 0, "equivalence trace must not shed");
    assert_eq!(stats.failed, 0, "equivalence trace must not fail");
    responses
        .into_iter()
        .map(|r| match r.outcome {
            ServeOutcome::Ok { digest, output } => {
                let bits = output
                    .expect("keep_outputs")
                    .iter()
                    .map(|v| v.to_bits())
                    .collect();
                (r.id, (digest, bits))
            }
            ServeOutcome::Rejected(e) => panic!("request {} rejected: {e}", r.id),
            ServeOutcome::DeadlineExceeded { .. } => {
                panic!("request {} expired without a deadline", r.id)
            }
        })
        .collect()
}

#[test]
fn batched_matches_one_at_a_time_across_policies() {
    let trace = low_load_trace(1234);
    assert!(trace.len() > 50, "trace too small to be meaningful");
    let reference = outputs_of(BatchPolicy::unbatched(), &trace);
    assert_eq!(reference.len(), trace.len());
    for max_batch in [2usize, 4, 8] {
        for max_delay_ms in [0.5f64, 2.0, 8.0] {
            let got = outputs_of(
                BatchPolicy {
                    max_batch,
                    max_delay_ms,
                    ..BatchPolicy::default()
                },
                &trace,
            );
            assert_eq!(got.len(), reference.len());
            for (id, (digest, bits)) in &reference {
                let (gd, gb) = &got[id];
                assert_eq!(
                    bits, gb,
                    "request {id} differs under max_batch={max_batch} delay={max_delay_ms}"
                );
                assert_eq!(digest, gd);
            }
        }
    }
}

#[test]
fn batched_matches_standalone_executor_oracle() {
    // Independent of the serving path entirely: compile each model at
    // batch 1 and execute a sample of requests by hand.
    let trace = low_load_trace(99);
    let batched = outputs_of(
        BatchPolicy {
            max_batch: 8,
            max_delay_ms: 4.0,
            ..BatchPolicy::default()
        },
        &trace,
    );
    let mut cache = tvm_serve::ArtifactCache::new(tvm::target::arm_a53(), None);
    for req in trace.iter().take(40) {
        let baseline = tvm_serve::ModelVersion::baseline(req.model);
        let module = cache
            .get_or_build(req.model, 1, &baseline)
            .expect("compile");
        let mut ex = tvm_runtime::GraphExecutor::from_arc(Arc::clone(&module));
        ex.set_input(
            req.model.input_name(),
            tvm_runtime::NDArray::try_new(&req.model.input_shape(1), req.payload.clone())
                .expect("payload"),
        )
        .expect("set_input");
        ex.run().expect("run");
        let out = ex.get_output(0).expect("output");
        let oracle: Vec<u32> = out.data.iter().map(|v| v.to_bits()).collect();
        assert_eq!(
            batched[&req.id].1, oracle,
            "served bits differ from standalone executor for request {}",
            req.id
        );
    }
}

#[test]
fn deterministic_at_multiple_worker_counts() {
    let trace = low_load_trace(77);
    let policy = BatchPolicy {
        max_batch: 8,
        max_delay_ms: 2.0,
        ..BatchPolicy::default()
    };
    let mut runs = Vec::new();
    for threads in [1usize, 2, 4] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool");
        let trace = trace.clone();
        let result = pool.install(move || outputs_of(policy, &trace));
        runs.push(result);
    }
    assert_eq!(runs[0], runs[1], "1 vs 2 workers diverged");
    assert_eq!(runs[0], runs[2], "1 vs 4 workers diverged");
}

#[test]
fn flat_engine_matches_the_walker_on_every_serving_kernel() {
    // Every kernel of both serving models, batch 1 and 8, CPU- and
    // GPU-scheduled, on the activations a real inference feeds it: the flat
    // engine the executor runs and the reference tree walker must leave
    // bit-identical buffers and count the same stores.
    use tvm_runtime::NDArray;
    let mut kernels = 0;
    for model in tvm_serve::ALL_MODELS {
        for batch in [1i64, 8] {
            for target in [tvm::target::arm_a53(), tvm::target::titanx()] {
                let graph = model.build_graph(batch);
                let module = tvm::build(&graph, &target, &tvm::BuildOptions::default())
                    .expect("serving models build");
                // The values each kernel sees, taken from a flat run.
                let mut values: BTreeMap<usize, Vec<f32>> = graph
                    .nodes
                    .iter()
                    .map(|n| (n.id.0, NDArray::seeded(&n.shape, n.id.0 as u64 + 7).data))
                    .collect();
                for k in &module.kernels {
                    let what = format!("{} b{batch} {} `{}`", model.name(), target.name(), k.name);
                    let mut arrays: Vec<Vec<f32>> =
                        k.args.iter().map(|a| values[&a.0].clone()).collect();
                    arrays.last_mut().expect("output").fill(0.0);
                    let run =
                        tvm_verify::run_both(&k.func, tvm_verify::f32_buffers(arrays), |_| {})
                            .unwrap_or_else(|diff| panic!("{what}: {diff}"));
                    run.result.unwrap_or_else(|e| panic!("{what}: {e}"));
                    let out = k.args.last().expect("output").0;
                    values.insert(out, run.buffers.last().expect("output").to_f32());
                    kernels += 1;
                }
            }
        }
    }
    assert!(kernels >= 24, "only {kernels} kernels compared");
}

#[test]
fn batch_8_models_run_on_titanx_and_agree_with_arm_a53() {
    // The ledger left these two out at 8 s an inference, and `Mlp` batch 8
    // once faulted on `titanx` ("barrier count diverges across branches").
    use tvm_runtime::{GraphExecutor, NDArray};
    for model in tvm_serve::ALL_MODELS {
        let graph = model.build_graph(8);
        let input = NDArray::seeded(&model.input_shape(8), 3);
        let infer = |target: tvm::target::Target| -> Vec<f32> {
            let module = tvm::build(&graph, &target, &tvm::BuildOptions::default())
                .unwrap_or_else(|e| panic!("{} b8 {}: {e}", model.name(), target.name()));
            let mut ex = GraphExecutor::new(module);
            ex.set_input(model.input_name(), input.clone())
                .expect("binds");
            ex.run()
                .unwrap_or_else(|e| panic!("{} b8 {}: {e}", model.name(), target.name()));
            ex.get_output(0).expect("output").data.clone()
        };
        let got = infer(tvm::target::titanx());
        let want = infer(tvm::target::arm_a53());
        assert_eq!(got.len(), 8 * model.out_row_len());
        for (i, (a, b)) in got.iter().zip(&want).enumerate() {
            assert!(
                (a - b).abs() <= 1e-3 * b.abs().max(1.0),
                "{} b8 output {i}: titanx {a} vs arm_a53 {b}",
                model.name()
            );
        }
    }
}
