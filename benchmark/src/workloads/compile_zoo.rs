//! `compile_zoo` — op = one `tvm::build`.
//!
//! The compiler path with no tuner and no interpreter: `graph` passes, one
//! `te` plan+emit per kernel, `sim::estimate`, and `core`'s choice between
//! candidate group schedules. A pass builds the model zoo for three targets;
//! the image size changes from pass to pass so a memo across builds cannot
//! turn later passes into no-ops.

use std::collections::HashMap;
use std::path::Path;

use tvm_sim::{arm_a53, mali_t860, titanx};

use super::{add, compile_probes, CompileJob};
use crate::harness::{geomean, Metrics, Outcome, Rng, Workload};
use crate::trace::Recorder;

const SIZES: [i64; 5] = [224, 192, 160, 128, 96];
/// LSTM widths the seed draws from: a few percent around the paper's 128, so
/// the simulated clock depends on the seed while build time does not.
const LSTM_HIDDEN: [i64; 5] = [112, 120, 128, 136, 144];

pub struct CompileZoo {
    seed: u64,
    /// Jobs whose graph depends on the pass's image size, by size.
    sized: Vec<Vec<CompileJob>>,
    fixed: Vec<CompileJob>,
    /// Seeded order in which passes walk [`SIZES`].
    size_order: Vec<usize>,
    /// Simulated ms and kernel count of every job built so far.
    seen: HashMap<String, (u64, usize)>,
    /// `Module::total_ms()` of the builds of the fixed passes.
    sim_ms: Vec<f64>,
}

impl CompileZoo {
    fn jobs_of(&self, pass: usize) -> Vec<&CompileJob> {
        let size = self.size_order[pass % SIZES.len()];
        let mut jobs: Vec<&CompileJob> = self.sized[size].iter().chain(&self.fixed).collect();
        Rng::derive(self.seed, 0x100 + pass as u64).shuffle(&mut jobs);
        jobs
    }
}

impl Workload for CompileZoo {
    const NAME: &'static str = "compile_zoo";
    const TAIL_Q: f64 = 0.95;
    /// One pass per image size.
    const FIXED_PASSES: usize = SIZES.len();

    fn setup(seed: u64) -> Self {
        let targets = [
            ("titanx", titanx()),
            ("arm_a53", arm_a53()),
            ("mali_t860", mali_t860()),
        ];
        let mut rng = Rng::derive(seed, 1);
        let hidden = LSTM_HIDDEN[rng.below(LSTM_HIDDEN.len())];
        let mut size_order: Vec<usize> = (0..SIZES.len()).collect();
        rng.shuffle(&mut size_order);

        let mut sized = Vec::new();
        for size in SIZES {
            let mut jobs = Vec::new();
            for (tn, t) in &targets {
                for no_fusion in [false, true] {
                    let tag = if no_fusion { "-nofuse" } else { "" };
                    jobs.push(CompileJob::new(
                        format!("resnet18@{size}/{tn}{tag}"),
                        tvm_models::resnet18(size),
                        t,
                        no_fusion,
                    ));
                    jobs.push(CompileJob::new(
                        format!("mobilenet@{size}/{tn}{tag}"),
                        tvm_models::mobilenet(size),
                        t,
                        no_fusion,
                    ));
                }
            }
            sized.push(jobs);
        }
        let mut fixed = Vec::new();
        for (tn, t) in &targets {
            fixed.push(CompileJob::new(
                format!("dqn/{tn}"),
                tvm_models::dqn(),
                t,
                false,
            ));
            fixed.push(CompileJob::new(
                format!("dcgan/{tn}"),
                tvm_models::dcgan_generator(),
                t,
                false,
            ));
            fixed.push(CompileJob::new(
                format!("lstm{hidden}/{tn}"),
                tvm_models::lstm_lm(hidden, 4),
                t,
                false,
            ));
        }
        let w = CompileZoo {
            seed,
            sized,
            fixed,
            size_order,
            seen: HashMap::new(),
            sim_ms: Vec::new(),
        };
        // Warm-up: one untimed pass.
        for job in w.jobs_of(0) {
            std::hint::black_box(job.build().is_ok());
        }
        w
    }

    fn ops_per_pass(&self) -> u64 {
        (self.sized[0].len() + self.fixed.len()) as u64
    }

    fn pass(&mut self, idx: usize, rec: &mut Recorder, calls: &mut Vec<f64>, out: &mut Outcome) {
        let mut built = Vec::new();
        for (k, job) in self.jobs_of(idx).into_iter().enumerate() {
            let op = (idx * 100 + k) as u64;
            let (res, wall) = rec.time("call.build", op, || job.build());
            calls.push(wall);
            match res {
                Ok((module, _)) => {
                    let report = module.verify();
                    out.check(!report.has_errors(), || {
                        format!("{}: Module::verify: {}", job.key, report.render())
                    });
                    built.push((job.key.clone(), module.total_ms(), module.kernels.len()));
                }
                Err(e) => out.check(false, || format!("{}: build failed: {e}", job.key)),
            }
        }
        for (key, ms, kernels) in built {
            if idx < Self::FIXED_PASSES {
                self.sim_ms.push(ms);
            }
            let now = (ms.to_bits(), kernels);
            let first = *self.seen.entry(key.clone()).or_insert(now);
            out.check(first == now, || {
                format!("{key}: rebuilt module differs ({now:?} vs {first:?})")
            });
        }
    }

    fn finish(&mut self, _out: &mut Outcome) {}

    fn probes(
        &mut self,
        rec: &mut Recorder,
        layer: &mut Metrics,
        out: &mut Outcome,
        _scratch: &Path,
    ) {
        let jobs = self.jobs_of(0);
        compile_probes(&jobs, rec, layer, out);
        add(layer, "sim.op_ms", geomean(&self.sim_ms));
    }
}
