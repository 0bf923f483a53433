//! `infer_cpu_sched` / `infer_gpu_sched` — op = `set_input` +
//! `GraphExecutor::run` + `get_output`.
//!
//! `runtime` and the `ir` interpreter do all the work; the compiler and the
//! tuner do none. The two workloads drive the same interpreter through
//! different code: CPU schedules are serial and vectorized loop nests, GPU
//! schedules are thread nests with barrier phases, per-thread buffers and
//! shared staging, so a change that helps one and hurts the other shows.

use std::collections::HashMap;
use std::marker::PhantomData;
use std::path::Path;
use std::sync::Arc;

use tvm_graph::Graph;
use tvm_ir::Interp;
use tvm_runtime::{GraphExecutor, Module, NDArray, RuntimeError};
use tvm_serve::Model;
use tvm_sim::{arm_a53, titanx, Target};
use tvm_topi::Conv2dWorkload;

use super::{add, compile_probes, CompileJob};
use crate::harness::{geomean, Metrics, Outcome, Rng, Workload};
use crate::reference;
use crate::trace::Recorder;

/// Distinct seeded inputs per model; passes cycle through them, so every
/// (model, input) pair recurs and must give the same bits.
const INPUTS: usize = 4;
/// Executors constructed per model by the `runtime.exec_new` probe.
const EXEC_NEW_REPS: usize = 20;

/// The conv-bn-relu-residual CNN of `tests/end_to_end.rs` on a
/// `size`x`size` image.
fn residual_cnn(size: i64) -> Graph {
    let conv = |in_c| Conv2dWorkload {
        batch: 1,
        size,
        in_c,
        out_c: 8,
        kernel: 3,
        stride: 1,
        pad: 1,
    };
    let mut g = Graph::new();
    let x = g.input(&[1, 3, size, size], "data");
    let c1 = g.conv2d(x, conv(3), "c1");
    let b1 = g.batch_norm(c1, "b1");
    let r1 = g.relu(b1, "r1");
    let c2 = g.conv2d(r1, conv(8), "c2");
    let res = g.add_op(c2, r1, "res");
    let out = g.relu(res, "out");
    g.outputs.push(out);
    g
}

pub trait Spec {
    const NAME: &'static str;
    const TAIL_Q: f64;
    fn target() -> Target;
    fn models() -> Vec<(&'static str, Graph)>;
}

pub struct Cpu;
impl Spec for Cpu {
    const NAME: &'static str = "infer_cpu_sched";
    const TAIL_Q: f64 = 0.75;
    fn target() -> Target {
        arm_a53()
    }
    fn models() -> Vec<(&'static str, Graph)> {
        vec![
            ("mlp_b1", Model::Mlp.build_graph(1)),
            ("mlp_b8", Model::Mlp.build_graph(8)),
            ("tiny_cnn_b1", Model::TinyCnn.build_graph(1)),
            ("tiny_cnn_b8", Model::TinyCnn.build_graph(8)),
            ("residual_cnn16", residual_cnn(16)),
        ]
    }
}

pub struct Gpu;
impl Spec for Gpu {
    const NAME: &'static str = "infer_gpu_sched";
    const TAIL_Q: f64 = 0.75;
    fn target() -> Target {
        titanx()
    }
    /// Thread-nest code is 10-50x slower to interpret, so the CNN is the 8x8
    /// one; the batch-8 models are excluded (see README, "Inputs left out").
    fn models() -> Vec<(&'static str, Graph)> {
        vec![
            ("mlp_b1", Model::Mlp.build_graph(1)),
            ("tiny_cnn_b1", Model::TinyCnn.build_graph(1)),
            ("residual_cnn8", residual_cnn(8)),
        ]
    }
}

pub type CpuSched = Infer<Cpu>;
pub type GpuSched = Infer<Gpu>;

struct Deployed {
    job: CompileJob,
    module: Arc<Module>,
    exec: GraphExecutor,
    inputs: Vec<NDArray>,
}

pub struct Infer<S: Spec> {
    seed: u64,
    models: Vec<Deployed>,
    /// First output seen per (model, input).
    outputs: HashMap<(usize, usize), Vec<f32>>,
    /// `GraphExecutor::run()` returns of the fixed passes.
    sim_ms: Vec<f64>,
    spec: PhantomData<S>,
}

impl<S: Spec> Infer<S> {
    /// One inference: the timed call. Returns the simulated ms and the output.
    fn infer(
        m: &mut Deployed,
        input: usize,
        op: u64,
        rec: &mut Recorder,
    ) -> (Result<(f64, Vec<f32>), String>, f64) {
        let x = m.inputs[input].clone();
        let exec = &mut m.exec;
        let (ms, wall) = rec.time("call.infer", op, || -> Result<f64, RuntimeError> {
            exec.set_input("data", x)?;
            let ms = exec.run()?;
            std::hint::black_box(exec.get_output(0)?);
            Ok(ms)
        });
        let res = ms
            .and_then(|ms| Ok((ms, exec.get_output(0)?.data.clone())))
            .map_err(|e| e.to_string());
        (res, wall)
    }
}

impl<S: Spec> Workload for Infer<S> {
    const NAME: &'static str = S::NAME;
    const TAIL_Q: f64 = S::TAIL_Q;
    const FIXED_PASSES: usize = INPUTS;

    fn setup(seed: u64) -> Self {
        let target = S::target();
        let mut rng = Rng::derive(seed, 2);
        let models = S::models()
            .into_iter()
            .map(|(name, graph)| {
                let job = CompileJob::new(name, graph, &target, false);
                let (module, _) = job.build().unwrap_or_else(|e| panic!("{name}: build: {e}"));
                let module = Arc::new(module);
                let shape = job.graph.nodes[0].shape.clone();
                Deployed {
                    exec: GraphExecutor::from_arc(Arc::clone(&module)),
                    inputs: (0..INPUTS)
                        .map(|_| NDArray::seeded(&shape, rng.next_u64()))
                        .collect(),
                    job,
                    module,
                }
            })
            .collect();
        let mut w = Infer {
            seed,
            models,
            outputs: HashMap::new(),
            sim_ms: Vec::new(),
            spec: PhantomData,
        };
        // Warm-up: one untimed pass.
        let mut rec = Recorder::new(false);
        for m in &mut w.models {
            let (res, _) = Self::infer(m, 0, 0, &mut rec);
            res.unwrap_or_else(|e| panic!("{}: warm-up inference: {e}", m.job.key));
        }
        w
    }

    fn ops_per_pass(&self) -> u64 {
        self.models.len() as u64
    }

    fn pass(&mut self, idx: usize, rec: &mut Recorder, calls: &mut Vec<f64>, out: &mut Outcome) {
        let mut order: Vec<usize> = (0..self.models.len()).collect();
        Rng::derive(self.seed, 0x100 + idx as u64).shuffle(&mut order);
        for k in order {
            let input = (idx + k) % INPUTS;
            let op = (idx * 100 + k) as u64;
            let (res, wall) = Self::infer(&mut self.models[k], input, op, rec);
            calls.push(wall);
            let key = &self.models[k].job.key;
            match res {
                Ok((ms, data)) => {
                    if idx < Self::FIXED_PASSES {
                        self.sim_ms.push(ms);
                    }
                    let first = self
                        .outputs
                        .entry((k, input))
                        .or_insert_with(|| data.clone());
                    out.check(*first == data, || {
                        format!("{key} input {input}: output changed")
                    });
                }
                Err(e) => out.check(false, || format!("{key}: inference failed: {e}")),
            }
        }
    }

    /// Every distinct output against the reference evaluator.
    fn finish(&mut self, out: &mut Outcome) {
        for (&(k, input), got) in &self.outputs {
            let m = &self.models[k];
            let verdict = reference::eval(&m.job.graph, &[("data", &m.inputs[input].data)])
                .map(|want| reference::first_mismatch(got, &want[0], 1e-4));
            match verdict {
                Ok(None) => {}
                Ok(Some(diff)) => {
                    out.check(false, || format!("{} input {input}: {diff}", m.job.key))
                }
                Err(e) => out.check(false, || format!("{}: reference: {e}", m.job.key)),
            }
        }
    }

    fn probes(
        &mut self,
        rec: &mut Recorder,
        layer: &mut Metrics,
        out: &mut Outcome,
        _scratch: &Path,
    ) {
        let jobs: Vec<&CompileJob> = self.models.iter().map(|m| &m.job).collect();
        compile_probes(&jobs, rec, layer, out);

        let mut stores = 0u64;
        for (k, m) in self.models.iter_mut().enumerate() {
            let op = k as u64;
            for _ in 0..EXEC_NEW_REPS {
                let module = Arc::clone(&m.module);
                let (ex, _) = rec.time("runtime.exec_new", op, || {
                    GraphExecutor::from_arc_with_weights(module, 0)
                });
                std::hint::black_box(ex);
            }
            // The whole inference, then its kernels alone in the interpreter
            // on the same values; the difference is the runtime's own cost.
            let tok = rec.begin("runtime.run", op);
            let (res, _) = Self::infer(m, 0, op, rec);
            rec.end(tok);
            out.check(res.is_ok(), || {
                format!("{}: probe inference failed", m.job.key)
            });
            let vals = match reference::eval_all(&m.job.graph, &[("data", &m.inputs[0].data)]) {
                Ok(v) => v,
                Err(e) => {
                    out.check(false, || format!("{}: reference: {e}", m.job.key));
                    continue;
                }
            };
            for kernel in &m.module.kernels {
                let mut bufs: Vec<Vec<f32>> =
                    kernel.args.iter().map(|a| vals[a.0].clone()).collect();
                if let Some(last) = bufs.last_mut() {
                    last.fill(0.0);
                }
                let mut it = Interp::new();
                let (res, _) = rec.time("ir.interp", op, || it.run_f32(&kernel.func, &mut bufs));
                out.check(res.is_ok(), || {
                    format!("{}: kernel `{}` faulted", m.job.key, kernel.name)
                });
                stores += it.store_count();
            }
        }
        let (run_s, interp_s) = (rec.total_s("runtime.run"), rec.total_s("ir.interp"));
        add(layer, "runtime.exec_new_s", rec.total_s("runtime.exec_new"));
        add(layer, "runtime.run_s", run_s);
        add(layer, "ir.interp_s", interp_s);
        add(layer, "runtime.overhead_s", run_s - interp_s);
        add(layer, "ir.stores", stores as f64);
        add(layer, "ir.stores_per_s", stores as f64 / interp_s);
        add(layer, "sim.op_ms", geomean(&self.sim_ms));
    }
}
