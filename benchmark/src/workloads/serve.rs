//! `serve_mix` / `serve_engine` — op = one request; the timed call is
//! `Service::run` on one window of a seeded open-loop trace.
//!
//! Arrivals are scheduled ahead of time (open loop), so the virtual
//! latencies include the queueing a slow batch imposes on later requests.
//! The benchmark draws its own trace instead of `tvm_serve::generate`: a
//! Poisson draw of a hundred requests changes the offered work by ten
//! percent from seed to seed, which would drown any change in the code.
//! Every pass replays the same trace on a fresh `Service`, which
//! makes every pass the same virtual-time history: responses, digests and
//! virtual latencies must repeat bit for bit.
//!
//! `serve_mix` is serving end to end: two tenants, both models, batches of up
//! to 8, chaos faults on the device pool; nearly all host time is the
//! interpreter on batched kernels. `serve_engine` is the `serve` layer
//! itself: one tiny model at batch 1, so admission, DRR dispatch, deadline
//! checks, the artifact cache, the pool re-simulating every kernel and
//! executor construction are a large share of each request.

use std::collections::HashMap;
use std::marker::PhantomData;
use std::path::Path;
use std::sync::Arc;

use tvm_autotune::Tracker;
use tvm_runtime::{GraphExecutor, Module};
use tvm_serve::batch::stack_rows;
use tvm_serve::service::serving_retry_policy;
use tvm_serve::{
    row_digest, AdmissionConfig, BatchPolicy, Model, Request, ServeOutcome, Service, ServiceConfig,
    ServiceStats, TenantConfig,
};
use tvm_sim::{arm_a53, FaultPlan, FaultRates};

use super::{add, compile_probes, CompileJob};
use crate::harness::{geomean, median, percentile, Metrics, Outcome, Rng, Workload};
use crate::trace::Recorder;

/// Requests one tenant sends for one model inside one window.
pub struct Load {
    tenant: &'static str,
    model: Model,
    count: usize,
    /// Latency budget stamped on every request, if any.
    deadline_budget_ms: Option<f64>,
}

pub trait Spec {
    const NAME: &'static str;
    const TAIL_Q: f64;
    /// Virtual width of one window: arrivals are drawn uniformly inside it.
    const WINDOW_MS: f64;
    /// Times the probes run the trace through the service and a bare
    /// executor; the medians are reported.
    const PROBE_ROUNDS: usize;
    fn config(seed: u64) -> ServiceConfig;
    /// What arrives in each window. The counts are fixed, so every seed
    /// offers the same work; the seed draws arrival times and payloads.
    fn windows() -> Vec<Vec<Load>>;
}

pub struct MixSpec;
impl Spec for MixSpec {
    const NAME: &'static str = "serve_mix";
    const TAIL_Q: f64 = 0.75;
    const WINDOW_MS: f64 = 0.5;
    const PROBE_ROUNDS: usize = 1;

    /// `tvm-serve-bench`'s service with its chaos rates minus device
    /// crashes, and a retry budget deep enough that no batch is lost: faults
    /// cost retries and virtual latency here, never an answer.
    fn config(seed: u64) -> ServiceConfig {
        let rates = FaultRates {
            crash: 0.0,
            hang: 0.04,
            transient: 0.06,
            noise: 0.10,
            noise_factor: 2.5,
        };
        ServiceConfig {
            tenants: vec![
                TenantConfig::new("mobile").weight(2).queue_cap(128),
                TenantConfig::new("batchjob").weight(1).queue_cap(128),
            ],
            admission: AdmissionConfig {
                max_outstanding: 384,
                ..AdmissionConfig::default()
            },
            batch: BatchPolicy {
                max_batch: 8,
                max_delay_ms: 2.0,
                ..BatchPolicy::default()
            },
            devices: 3,
            retry: tvm_autotune::RetryPolicy {
                max_attempts: 8,
                ..serving_retry_policy()
            },
            faults: FaultPlan::seeded(seed ^ 0xC4A0, rates),
            ..ServiceConfig::default()
        }
    }

    /// Eight windows of 24 requests in half a virtual millisecond each,
    /// 48 000 requests per virtual second, several times what the three
    /// devices serve: queues build, so the batcher fills every batch (two of
    /// `Mlp`, one of `TinyCnn` per window) whatever the arrival order, and
    /// host work does not depend on the seed.
    fn windows() -> Vec<Vec<Load>> {
        let load = |tenant, model, count| Load {
            tenant,
            model,
            count,
            deadline_budget_ms: None,
        };
        (0..8)
            .map(|_| {
                vec![
                    load("mobile", Model::Mlp, 8),
                    load("mobile", Model::TinyCnn, 8),
                    load("batchjob", Model::Mlp, 8),
                ]
            })
            .collect()
    }
}

pub struct EngineSpec;
impl Spec for EngineSpec {
    const NAME: &'static str = "serve_engine";
    const TAIL_Q: f64 = 0.90;
    const WINDOW_MS: f64 = 0.2;
    const PROBE_ROUNDS: usize = 3;

    fn config(_seed: u64) -> ServiceConfig {
        ServiceConfig {
            tenants: vec![
                TenantConfig::new("steady").weight(2).queue_cap(512),
                TenantConfig::new("aggressor").weight(1).queue_cap(512),
            ],
            admission: AdmissionConfig {
                max_outstanding: 2048,
                ..AdmissionConfig::default()
            },
            batch: BatchPolicy::unbatched(),
            devices: 3,
            faults: FaultPlan::none(),
            ..ServiceConfig::default()
        }
    }

    /// Three devices serve about 200 000 batch-1 `Mlp` requests per virtual
    /// second, 40 per window. The steady tenant offers 24 per window; the
    /// aggressor offers 8 with a deadline on each, and 32 in three windows
    /// out of fifteen, which overloads the pool and builds a queue the DRR
    /// scheduler shares out. The deadline budget is wide enough that the
    /// deadline path is taken and nothing is shed.
    fn windows() -> Vec<Vec<Load>> {
        (0..15)
            .map(|w| {
                let burst = (6..9).contains(&w);
                vec![
                    Load {
                        tenant: "steady",
                        model: Model::Mlp,
                        count: 24,
                        deadline_budget_ms: None,
                    },
                    Load {
                        tenant: "aggressor",
                        model: Model::Mlp,
                        count: if burst { 32 } else { 8 },
                        deadline_budget_ms: Some(2.0),
                    },
                ]
            })
            .collect()
    }
}

pub type Mix = Serve<MixSpec>;
pub type Engine = Serve<EngineSpec>;

/// What one response must repeat: outcome, digest, virtual timing, batching.
#[derive(Clone, PartialEq, Debug)]
struct Answer {
    id: u64,
    model: Model,
    digest: Option<u32>,
    latency_bits: u64,
    done_bits: u64,
    batch_size: usize,
    bucket: i64,
}

struct PassRecord {
    answers: Vec<Answer>,
    stats: ServiceStats,
}

pub struct Serve<S: Spec> {
    cfg: ServiceConfig,
    /// Every request of the trace, indexed by id.
    trace: Vec<Request>,
    windows: Vec<Vec<Request>>,
    first: Option<PassRecord>,
    spec: PhantomData<S>,
}

fn module_for(model: Model, bucket: i64) -> (CompileJob, Arc<Module>) {
    let job = CompileJob::new(
        format!("{}/b{bucket}", model.name()),
        model.build_graph(bucket),
        &arm_a53(),
        false,
    );
    let (module, _) = job
        .build()
        .unwrap_or_else(|e| panic!("{}: build: {e}", job.key));
    (job, Arc::new(module))
}

impl<S: Spec> Serve<S> {
    /// Replays the first `windows` windows of the trace on a fresh service,
    /// one timed call per window; `after_window` is called with the window's
    /// index right after its call, untimed.
    fn replay(
        &self,
        windows: usize,
        pass: usize,
        rec: &mut Recorder,
        calls: &mut Vec<f64>,
        mut after_window: impl FnMut(usize, &mut Recorder),
    ) -> PassRecord {
        let mut svc = Service::new(self.cfg.clone()).expect("in-memory service");
        let mut answers = Vec::with_capacity(self.trace.len());
        let mut stats = ServiceStats::default();
        for (wi, window) in self.windows.iter().take(windows).enumerate() {
            let requests = window.clone();
            let op = (pass * 100 + wi) as u64;
            let ((responses, s), wall) = rec.time("call.serve_window", op, || svc.run(requests));
            calls.push(wall);
            stats = s;
            answers.extend(responses.iter().map(|r| Answer {
                id: r.id,
                model: r.model,
                digest: match &r.outcome {
                    ServeOutcome::Ok { digest, .. } => Some(*digest),
                    _ => None,
                },
                latency_bits: r.latency_ms().to_bits(),
                done_bits: r.done_ms.to_bits(),
                batch_size: r.batch_size,
                bucket: r.bucket,
            }));
            after_window(wi, rec);
        }
        PassRecord { answers, stats }
    }

    /// The executed batches behind some answers, in completion order:
    /// requests that share model, completion time and bucket ran together.
    fn batches(&self, answers: &[Answer]) -> Vec<(Model, i64, Vec<Request>)> {
        let mut open: HashMap<(Model, u64, i64), Vec<Request>> = HashMap::new();
        let mut out = Vec::new();
        for a in answers.iter().filter(|a| a.digest.is_some()) {
            let key = (a.model, a.done_bits, a.bucket);
            let rows = open.entry(key).or_default();
            rows.push(self.trace[a.id as usize].clone());
            if rows.len() == a.batch_size {
                out.push((a.model, a.bucket, open.remove(&key).expect("just filled")));
            }
        }
        out
    }
}

impl<S: Spec> Workload for Serve<S> {
    const NAME: &'static str = S::NAME;
    const TAIL_Q: f64 = S::TAIL_Q;
    const FIXED_PASSES: usize = 2;

    fn setup(seed: u64) -> Self {
        let mut rng = Rng::derive(seed, 3);
        let mut trace: Vec<Request> = Vec::new();
        let mut windows = Vec::new();
        for (wi, loads) in S::windows().iter().enumerate() {
            let mut window: Vec<Request> = Vec::new();
            for load in loads {
                for _ in 0..load.count {
                    let unit = |r: &mut Rng| (r.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
                    let arrival_ms = (wi as f64 + unit(&mut rng)) * S::WINDOW_MS;
                    window.push(Request {
                        id: 0,
                        tenant: load.tenant.to_string(),
                        model: load.model,
                        payload: (0..load.model.row_len())
                            .map(|_| (unit(&mut rng) * 2.0 - 1.0) as f32)
                            .collect(),
                        arrival_ms,
                        deadline_ms: load
                            .deadline_budget_ms
                            .map_or(f64::INFINITY, |b| arrival_ms + b),
                    });
                }
            }
            window.sort_by(|a, b| a.arrival_ms.total_cmp(&b.arrival_ms));
            for r in &mut window {
                r.id = trace.len() as u64;
                trace.push(r.clone());
            }
            windows.push(window);
        }
        let w = Serve {
            cfg: S::config(seed),
            trace,
            windows,
            first: None,
            spec: PhantomData,
        };
        // Warm-up: a quarter of a pass, untimed.
        w.replay(
            w.windows.len() / 4,
            0,
            &mut Recorder::new(false),
            &mut Vec::new(),
            |_, _| {},
        );
        w
    }

    fn ops_per_pass(&self) -> u64 {
        self.trace.len() as u64
    }

    fn pass(&mut self, idx: usize, rec: &mut Recorder, calls: &mut Vec<f64>, out: &mut Outcome) {
        let pass = self.replay(self.windows.len(), idx, rec, calls, |_, _| {});
        out.failed += pass.answers.iter().filter(|a| a.digest.is_none()).count() as u64;
        out.check(pass.answers.len() == self.trace.len(), || {
            format!(
                "{} responses for {} requests",
                pass.answers.len(),
                self.trace.len()
            )
        });
        match &self.first {
            None => self.first = Some(pass),
            Some(first) => {
                let same = first.answers == pass.answers;
                out.check(same, || {
                    format!("pass {idx} answered differently from pass 0")
                });
            }
        }
    }

    /// Served digests against an unbatched bare executor on the same
    /// payload: every `Mlp` answer and every eighth `TinyCnn` answer.
    fn finish(&mut self, out: &mut Outcome) {
        let first = self.first.as_ref().expect("FIXED_PASSES > 0");
        let mut bare: HashMap<Model, GraphExecutor> = HashMap::new();
        let mut cnn_seen = 0usize;
        for a in &first.answers {
            let Some(digest) = a.digest else { continue };
            if a.model == Model::TinyCnn {
                cnn_seen += 1;
                if cnn_seen % 8 != 1 {
                    continue;
                }
            }
            let ex = bare
                .entry(a.model)
                .or_insert_with(|| GraphExecutor::from_arc(module_for(a.model, 1).1));
            let req = &self.trace[a.id as usize];
            let want = stack_rows(a.model, 1, std::slice::from_ref(req))
                .map_err(|e| e.to_string())
                .and_then(|x| {
                    ex.set_input(a.model.input_name(), x)
                        .map_err(|e| e.to_string())
                })
                .and_then(|()| ex.run().map_err(|e| e.to_string()))
                .and_then(|_| ex.get_output(0).map_err(|e| e.to_string()))
                .map(|o| row_digest(&o.data));
            out.check(want == Ok(digest), || {
                format!(
                    "request {}: served digest {digest:#x}, bare executor {want:?}",
                    a.id
                )
            });
        }
    }

    fn probes(
        &mut self,
        rec: &mut Recorder,
        layer: &mut Metrics,
        out: &mut Outcome,
        _scratch: &Path,
    ) {
        let first = self.first.as_ref().expect("FIXED_PASSES > 0");
        // The batches each window executes, known from pass 0 (every pass is
        // the same history), and the module behind each.
        let mut start = 0;
        let window_batches: Vec<_> = self
            .windows
            .iter()
            .map(|w| {
                let answers = &first.answers[start..start + w.len()];
                start += w.len();
                self.batches(answers)
            })
            .collect();
        let mut modules: HashMap<(Model, i64), (CompileJob, Arc<Module>)> = HashMap::new();
        for (model, bucket, _) in window_batches.iter().flatten() {
            modules
                .entry((*model, *bucket))
                .or_insert_with(|| module_for(*model, *bucket));
        }
        // Each window through the service and, next to it in time, its
        // batches on a bare executor and a bare device pool — after the
        // service for even windows, before it for odd ones, so neither the
        // host's drift nor warm caches favour one side. What `Service::run`
        // spends beyond the bare executor is the serve layer.
        let target = arm_a53();
        let mut rounds = Vec::new();
        for round in 0..S::PROBE_ROUNDS {
            let mut pool = Tracker::new(vec![target.clone(); self.cfg.devices]);
            pool.set_retry_policy(self.cfg.retry.clone());
            let (mut new_s, mut run_s, mut pool_s) = (0.0, 0.0, 0.0);
            let mut failures = Vec::new();
            let mut bare = |window: usize, rec: &mut Recorder| {
                for (i, (model, bucket, rows)) in window_batches[window].iter().enumerate() {
                    let op = i as u64;
                    let module = &modules[&(*model, *bucket)].1;
                    let input = stack_rows(*model, *bucket, rows).expect("payloads fit the model");
                    let (mut ex, wall) = rec.time("runtime.exec_new", op, || {
                        GraphExecutor::from_arc_with_weights(Arc::clone(module), 0)
                    });
                    new_s += wall;
                    let (ran, wall) = rec.time("runtime.run", op, || {
                        ex.set_input(model.input_name(), input)?;
                        ex.run()?;
                        ex.get_output(0).map(|o| o.data.len())
                    });
                    run_s += wall;
                    if let Err(e) = ran {
                        failures.push(format!("bare replay of a {} batch: {e}", model.name()));
                    }
                    let funcs: Vec<&tvm_ir::LoweredFunc> =
                        module.kernels.iter().map(|k| &k.func).collect();
                    let (timings, wall) = rec.time("autotune.pool_batch", op, || {
                        pool.run_batch(target.name(), &funcs)
                    });
                    pool_s += wall;
                    std::hint::black_box(timings);
                }
            };
            let mut serve_calls = Vec::new();
            let windows = self.windows.len();
            let again = self.replay(windows, round, rec, &mut serve_calls, |wi, rec| {
                if wi % 2 == 0 {
                    bare(wi, rec);
                    if wi + 1 < windows {
                        bare(wi + 1, rec);
                    }
                }
            });
            out.check(again.answers == first.answers, || {
                "probe replay answered differently".into()
            });
            for f in failures {
                out.check(false, || f);
            }
            rounds.push([serve_calls.iter().sum(), new_s, run_s, pool_s]);
        }
        let mid = |f: &dyn Fn(&[f64; 4]) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
        add(layer, "serve.run_s", mid(&|r| r[0]));
        add(layer, "serve.engine_s", mid(&|r| r[0] - r[1] - r[2]));
        add(
            layer,
            "serve.engine_share",
            mid(&|r| (r[0] - r[1] - r[2]) / r[0]),
        );
        add(layer, "runtime.exec_new_s", mid(&|r| r[1]));
        add(layer, "runtime.run_s", mid(&|r| r[2]));
        add(layer, "autotune.pool_batch_s", mid(&|r| r[3]));

        let s = &first.stats;
        add(layer, "serve.batches", s.batches as f64);
        add(
            layer,
            "serve.mean_batch",
            s.batch_size_sum as f64 / s.batches.max(1) as f64,
        );
        add(layer, "serve.cache_cold_builds", s.cache.cold_builds as f64);
        add(layer, "serve.cache_hits", s.cache.hits as f64);
        add(layer, "serve.pool_attempts", s.pool.attempts as f64);
        add(layer, "serve.pool_retries", s.pool.retries as f64);
        add(
            layer,
            "serve.shed",
            (s.shed + s.deadline_exceeded + s.failed) as f64,
        );
        add(
            layer,
            "serve.virt_goodput_rps",
            s.completed as f64 * 1000.0 / s.horizon_ms,
        );
        let mut latencies: Vec<f64> = first
            .answers
            .iter()
            .filter(|a| a.digest.is_some())
            .map(|a| f64::from_bits(a.latency_bits))
            .collect();
        latencies.sort_by(f64::total_cmp);
        add(layer, "serve.virt_p50_ms", percentile(&latencies, 0.5));
        add(layer, "serve.virt_p99_ms", percentile(&latencies, 0.99));

        let mut used: Vec<&(CompileJob, Arc<Module>)> = modules.values().collect();
        used.sort_by(|a, b| a.0.key.cmp(&b.0.key));
        let jobs: Vec<&CompileJob> = used.iter().map(|(job, _)| job).collect();
        compile_probes(&jobs, rec, layer, out);
        let sim: Vec<f64> = used.iter().map(|(_, m)| m.total_ms()).collect();
        add(layer, "sim.op_ms", geomean(&sim));
    }
}
