//! The six workloads, and the compiler-path probes three of them share.

pub mod compile_zoo;
pub mod infer;
pub mod serve;
pub mod tune_ops;

use tvm::{build_with_report, BuildOptions, GroupDecision};
use tvm_autotune::{ConfigEntity, ConfigSpace};
use tvm_graph::{Graph, OpType};
use tvm_ir::LoweredFunc;
use tvm_runtime::Module;
use tvm_sim::{SimOptions, Target};
use tvm_te::{
    create_schedule, emit_planned, plan_schedule, LowerOptions, Schedule, TeError, Tensor,
};
use tvm_topi as topi;

use crate::harness::{Metrics, Outcome};
use crate::trace::Recorder;

/// One `tvm::build` input.
pub struct CompileJob {
    /// Identifies the job across passes (model, size, target, fusion).
    pub key: String,
    pub graph: Graph,
    pub target: Target,
    pub no_fusion: bool,
}

impl CompileJob {
    pub fn new(key: impl Into<String>, graph: Graph, target: &Target, no_fusion: bool) -> Self {
        CompileJob {
            key: key.into(),
            graph,
            target: target.clone(),
            no_fusion,
        }
    }

    pub fn build(&self) -> Result<(Module, tvm::BuildReport), TeError> {
        let opts = BuildOptions {
            no_fusion: self.no_fusion,
            ..BuildOptions::default()
        };
        build_with_report(&self.graph, &self.target, &opts)
    }
}

pub fn add(layer: &mut Metrics, name: &'static str, v: f64) {
    *layer.entry(name).or_insert(0.0) += v;
}

/// A schedulable operator with its template: what `tvm::build` and the tuner
/// both lower, reachable through `topi`'s public functions.
pub enum Templated {
    Conv(topi::Conv2dOp, bool),
    Dense(Tensor, Tensor, Tensor),
}

impl Templated {
    /// The templated operator behind a graph node, with its schedule space.
    pub fn of_node(op: &OpType, target: &Target) -> Option<(Templated, ConfigSpace)> {
        let f32t = tvm_ir::DType::float32();
        match op {
            OpType::Conv2d(w) => Some((
                Templated::Conv(topi::conv2d(w, f32t), false),
                topi::conv2d_space(w, target),
            )),
            OpType::DepthwiseConv2d(w) => Some((
                Templated::Conv(topi::depthwise_conv2d(w, f32t), true),
                topi::depthwise_space(w, target),
            )),
            OpType::Dense(w) => {
                let (d, wt, out) = topi::dense(w);
                Some((Templated::Dense(d, wt, out), topi::dense_space(w, target)))
            }
            _ => None,
        }
    }

    fn out(&self) -> &Tensor {
        match self {
            Templated::Conv(op, _) => &op.out,
            Templated::Dense(_, _, out) => out,
        }
    }

    fn args(&self) -> Vec<Tensor> {
        match self {
            Templated::Conv(op, _) => vec![op.data.clone(), op.weight.clone(), op.out.clone()],
            Templated::Dense(d, w, out) => vec![d.clone(), w.clone(), out.clone()],
        }
    }

    fn schedule(&self, target: &Target, cfg: &ConfigEntity) -> Result<Schedule, TeError> {
        let mut s = create_schedule(std::slice::from_ref(self.out()));
        match self {
            Templated::Conv(op, false) => topi::apply_conv2d_schedule(&mut s, op, target, cfg)?,
            Templated::Conv(op, true) => topi::apply_depthwise_schedule(&mut s, op, target, cfg)?,
            Templated::Dense(d, w, out) => {
                topi::apply_dense_schedule(&mut s, d, w, out, target, cfg)?
            }
        }
        Ok(s)
    }

    /// Schedules, plans and emits one configuration under the spans
    /// `topi.schedule`, `te.plan` and `te.emit`.
    pub fn lower(
        &self,
        target: &Target,
        cfg: &ConfigEntity,
        rec: &mut Recorder,
    ) -> Result<LoweredFunc, TeError> {
        let (s, _) = rec.time("topi.schedule", cfg.index, || self.schedule(target, cfg));
        let s = s?;
        let (plan, _) = rec.time("te.plan", cfg.index, || plan_schedule(&s));
        let plan = plan?;
        let args = self.args();
        rec.time("te.emit", cfg.index, || {
            emit_planned(&s, &plan, &args, "probe", &LowerOptions::default())
        })
        .0
    }
}

/// `sim::analyze`, `estimate_analysis` and the static verifier over lowered
/// kernels, under the spans `sim.analyze`, `sim.cost`, `analysis.check`.
pub fn kernel_probes<'a>(
    funcs: impl Iterator<Item = &'a LoweredFunc>,
    target: &Target,
    rec: &mut Recorder,
    layer: &mut Metrics,
) {
    let opts = SimOptions::default();
    for (i, f) in funcs.enumerate() {
        let (an, _) = rec.time("sim.analyze", i as u64, || tvm_sim::analyze(f));
        let (cost, _) = rec.time("sim.cost", i as u64, || {
            tvm_sim::estimate_analysis(&an, target, &opts)
        });
        std::hint::black_box(cost);
        // The passes the lowering validation hook runs when it is on. A
        // rejection is a count, not a failed check: the hook is off in
        // release builds and the kernel's outputs are checked elsewhere.
        let hook = tvm_analysis::AnalysisOptions::lowering_hook();
        let (report, _) = rec.time("analysis.check", i as u64, || {
            tvm_analysis::analyze_func_with(f, &hook)
        });
        add(
            layer,
            "analysis.rejected",
            f64::from(u8::from(report.has_errors())),
        );
        add(layer, "sim.kernels", 1.0);
    }
}

/// Probes the compiler path on `jobs`: graph passes, `tvm::build`, the
/// templates of every convolution and dense node at their default
/// configuration, and the simulator and verifier over the built kernels.
/// `core.resid_s` is what `build` spends beyond those probes.
pub fn compile_probes(
    jobs: &[&CompileJob],
    rec: &mut Recorder,
    layer: &mut Metrics,
    out: &mut Outcome,
) {
    for (i, job) in jobs.iter().enumerate() {
        let op = i as u64;
        let g = &job.graph;
        let (fused, _) = rec.time("graph.fuse", op, || tvm_graph::fuse(g, !job.no_fusion));
        let (plan, _) = rec.time("graph.plan_memory", op, || {
            tvm_graph::plan_memory(g, &fused)
        });
        let (report, _) = rec.time("graph.verify", op, || {
            tvm_graph::verify_graph(g, &fused, &plan)
        });
        out.check(!report.has_errors(), || {
            format!("{}: graph verifier reports errors", job.key)
        });
        let prefer = tvm_graph::cpu_preference(4);
        let (laid_out, _) = rec.time("graph.layout", op, || {
            tvm_graph::transform_layouts(g, &prefer)
        });
        std::hint::black_box(laid_out);
        add(layer, "graph.groups", fused.groups.len() as f64);
        add(layer, "graph.arena_bytes", plan.arena_bytes() as f64);
    }

    let before = tvm_te::lower_stats();
    let mut modules = Vec::new();
    let (mut attach, mut groups) = (0usize, 0usize);
    for (i, job) in jobs.iter().enumerate() {
        match rec.time("core.build", i as u64, || job.build()).0 {
            Ok((m, report)) => {
                groups += report.decisions.len();
                attach += report
                    .decisions
                    .iter()
                    .filter(|d| **d == GroupDecision::Attach)
                    .count();
                add(layer, "core.kernels", m.kernels.len() as f64);
                modules.push((m, &job.target));
            }
            Err(e) => out.check(false, || format!("{}: build failed: {e}", job.key)),
        }
    }
    let after = tvm_te::lower_stats();
    add(
        layer,
        "te.lowerings",
        (after.lowerings - before.lowerings) as f64,
    );
    add(
        layer,
        "te.plan_hits",
        (after.plan_hits - before.plan_hits) as f64,
    );
    add(
        layer,
        "te.plan_misses",
        (after.plan_misses - before.plan_misses) as f64,
    );
    add(
        layer,
        "te.lock_wait_ns",
        (after.lock_wait_ns - before.lock_wait_ns) as f64,
    );
    add(
        layer,
        "core.attach_share",
        attach as f64 / groups.max(1) as f64,
    );

    let (mut templates, mut invalid) = (0usize, 0usize);
    for job in jobs {
        for node in &job.graph.nodes {
            if let Some((t, space)) = Templated::of_node(&node.op, &job.target) {
                templates += 1;
                let cfg = topi::default_config(&space);
                invalid += usize::from(t.lower(&job.target, &cfg, rec).is_err());
            }
        }
    }
    add(
        layer,
        "topi.invalid_share",
        invalid as f64 / templates.max(1) as f64,
    );

    for (m, target) in &modules {
        kernel_probes(m.kernels.iter().map(|k| &k.func), target, rec, layer);
    }

    let spans: [(&'static str, &str); 11] = [
        ("graph.fuse_s", "graph.fuse"),
        ("graph.plan_memory_s", "graph.plan_memory"),
        ("graph.verify_s", "graph.verify"),
        ("graph.layout_s", "graph.layout"),
        ("core.build_s", "core.build"),
        ("topi.schedule_s", "topi.schedule"),
        ("te.plan_s", "te.plan"),
        ("te.emit_s", "te.emit"),
        ("sim.analyze_s", "sim.analyze"),
        ("sim.cost_s", "sim.cost"),
        ("analysis.check_s", "analysis.check"),
    ];
    for (metric, span) in spans {
        add(layer, metric, rec.total_s(span));
    }
    // What a release build runs: fuse, plan_memory, then per group the
    // template, the lowering and the simulator. Verification and layout are
    // not on its path.
    let accounted: f64 = [
        "graph.fuse_s",
        "graph.plan_memory_s",
        "topi.schedule_s",
        "te.plan_s",
        "te.emit_s",
        "sim.analyze_s",
        "sim.cost_s",
    ]
    .iter()
    .map(|m| layer[m])
    .sum();
    add(layer, "core.resid_s", layer["core.build_s"] - accounted);
}
