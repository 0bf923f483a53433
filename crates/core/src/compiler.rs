//! The end-to-end compiler (§2): computational graph in, deployable
//! [`Module`] out.
//!
//! `build` runs the §3 graph passes (fusion, memory planning), then
//! generates one kernel per fused group: member operators become tensor
//! expressions, injective members are inlined into the group output, and
//! the group is scheduled — either with the operator's (optionally tuned)
//! schedule template, or with the fused-group schedule that nests the
//! complex master inside the element-wise output's loops so intermediates
//! never touch DRAM.

use std::collections::hash_map::{Entry, HashMap};
use std::sync::Arc;

use tvm_autotune::Database;
use tvm_graph::{fuse, plan_memory, Graph, Group, GroupKey, NodeId, OpType, Pattern};
use tvm_ir::MemScope;
use tvm_runtime::{CompiledGroup, Module};
use tvm_sim::{estimate, Target};
use tvm_te::{compute, create_schedule, lower, placeholder, Schedule, TeError, Tensor};
use tvm_topi as topi;

/// Build configuration.
#[derive(Default)]
pub struct BuildOptions<'a> {
    /// Disable operator fusion (the "TVM w/o graph opt" baselines).
    pub no_fusion: bool,
    /// Tuning-log database consulted for operator configurations.
    pub db: Option<&'a Database>,
    /// Forced per-group schedule strategies (index-aligned with the fused
    /// groups). A serving-layer artifact cache journals the decisions a
    /// build made so a restart can replay them: each group builds exactly
    /// once along the recorded path instead of enumerating and
    /// cost-comparing candidates. Missing entries fall back to the normal
    /// candidate search.
    pub decisions: Option<&'a [GroupDecision]>,
}

/// The schedule strategy a fused group was built with — the part of a
/// compile that is *searched* rather than derived, and therefore the part
/// worth journaling in a build cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum GroupDecision {
    /// Master nested inside the element-wise output's loops.
    Attach,
    /// Master kept at root under its operator template.
    TemplateRoot,
}

/// What a build decided, group by group (replayable via
/// [`BuildOptions::decisions`]).
#[derive(Clone, Debug, Default)]
pub struct BuildReport {
    /// Strategy chosen for each fused group, in group order.
    pub decisions: Vec<GroupDecision>,
    /// Kernels actually scheduled, lowered and costed; every other group
    /// was a structural repeat of one of them.
    pub distinct_kernels: usize,
}

/// Compiles a graph for a target — `t.compiler.build(graph, target, params)`
/// in the paper's end-user example.
pub fn build(graph: &Graph, target: &Target, opts: &BuildOptions) -> Result<Module, TeError> {
    build_with_report(graph, target, opts).map(|(m, _)| m)
}

/// [`build`], also returning the per-group schedule decisions so callers
/// (the serving artifact cache) can journal and later replay them.
pub fn build_with_report(
    graph: &Graph,
    target: &Target,
    opts: &BuildOptions,
) -> Result<(Module, BuildReport), TeError> {
    let fused = fuse(graph, !opts.no_fusion);
    let plan = plan_memory(graph, &fused);
    let mut kernels: Vec<CompiledGroup> = Vec::with_capacity(fused.groups.len());
    let mut report = BuildReport::default();
    // Index of the first kernel built for each group structure. It lives
    // for this one call: target and database are fixed within it, which is
    // what lets the key leave them out.
    let mut first_built: HashMap<(GroupKey, Option<GroupDecision>), usize> = HashMap::new();
    for (gi, group) in fused.groups.iter().enumerate() {
        let forced = opts.decisions.and_then(|d| d.get(gi)).copied();
        let (key, args) = GroupKey::of(graph, group);
        let (kernel, decision) = match first_built.entry((key, forced)) {
            Entry::Occupied(first) => {
                let k = &kernels[*first.get()];
                let repeat = CompiledGroup {
                    func: k.func.clone(),
                    args,
                    est_ms: k.est_ms,
                    cost: k.cost,
                    name: k.name.clone(),
                    program: Arc::clone(&k.program),
                };
                (repeat, report.decisions[*first.get()])
            }
            Entry::Vacant(slot) => {
                slot.insert(gi);
                let (kernel, decision) = build_group(graph, group, target, opts, forced)?;
                debug_assert_eq!(kernel.args, args, "key walk and codegen disagree on args");
                (kernel, decision)
            }
        };
        kernels.push(kernel);
        report.decisions.push(decision);
    }
    report.distinct_kernels = first_built.len();
    let module = Module {
        graph: graph.clone(),
        fused,
        kernels,
        plan,
        target_name: target.name().to_string(),
    };
    validate_graph(&module)?;
    Ok((module, report))
}

/// Runs the graph-layer static verifiers (`tvm_graph::verify`: memory-plan
/// safety, fusion legality, cross-layer slot contracts) on every freshly
/// built module, turning error findings into a `TeError`. Enabled in debug
/// builds; override with `TVM_VALIDATE_GRAPH=1` / `=0` — the graph-level
/// twin of `te::lower`'s `TVM_VALIDATE_LOWER` hook.
fn validate_graph(module: &Module) -> Result<(), TeError> {
    let enabled = match std::env::var("TVM_VALIDATE_GRAPH") {
        Ok(v) => v != "0",
        Err(_) => cfg!(debug_assertions),
    };
    if !enabled {
        return Ok(());
    }
    let report = module.verify();
    if report.has_errors() {
        let msgs: Vec<String> = report.errors().map(|d| d.to_string()).collect();
        return Err(TeError::msg(format!(
            "graph validation failed after building for `{}`: {}",
            module.target_name,
            msgs.join("; ")
        )));
    }
    Ok(())
}

struct GroupBuild {
    tensors: HashMap<NodeId, Tensor>,
    inputs: Vec<(NodeId, Tensor)>,
    pads: Vec<Tensor>,
}

impl GroupBuild {
    fn input_tensor(&mut self, g: &Graph, id: NodeId) -> Tensor {
        if let Some(t) = self.tensors.get(&id) {
            return t.clone();
        }
        let node = g.node(id);
        let t = placeholder(&node.shape, node.dtype, &node.name);
        self.tensors.insert(id, t.clone());
        self.inputs.push((id, t.clone()));
        t
    }
}

fn emit_compute(g: &Graph, gb: &mut GroupBuild, id: NodeId, member_ids: &[NodeId]) -> Tensor {
    let node = g.node(id);
    let arg = |gb: &mut GroupBuild, i: usize| -> Tensor {
        let inp = node.inputs[i];
        if member_ids.contains(&inp) {
            gb.tensors
                .get(&inp)
                .expect("members emitted in topo order")
                .clone()
        } else {
            gb.input_tensor(g, inp)
        }
    };
    let out = match &node.op {
        OpType::Conv2d(w) => {
            let data = arg(gb, 0);
            let weight = arg(gb, 1);
            let op = topi::conv2d_compute(&data, &weight, w);
            gb.pads.extend(op.pad.clone());
            op.out
        }
        OpType::DepthwiseConv2d(w) => {
            let data = arg(gb, 0);
            let weight = arg(gb, 1);
            let op = topi::depthwise_conv2d_compute(&data, &weight, w);
            gb.pads.extend(op.pad.clone());
            op.out
        }
        OpType::Dense(w) => {
            let data = arg(gb, 0);
            let weight = arg(gb, 1);
            topi::dense_compute(&data, &weight, w)
        }
        OpType::Conv2dTranspose {
            in_c,
            in_size,
            out_c,
            kernel,
            stride,
            out_pad,
        } => {
            let data = arg(gb, 0);
            let weight = arg(gb, 1);
            let op = topi::conv2d_transpose_compute(
                &data, &weight, 1, *in_c, *in_size, *out_c, *kernel, *stride, *out_pad,
            );
            gb.pads.extend(op.pad.clone());
            op.out
        }
        OpType::Relu => topi::relu(&arg(gb, 0)),
        OpType::BiasAdd => {
            let x = arg(gb, 0);
            let b = arg(gb, 1);
            topi::bias_add(&x, &b)
        }
        OpType::BatchNorm => {
            let x = arg(gb, 0);
            let sc = arg(gb, 1);
            let sh = arg(gb, 2);
            topi::batch_norm(&x, &sc, &sh)
        }
        OpType::Add => {
            let a = arg(gb, 0);
            let b = arg(gb, 1);
            topi::add(&a, &b)
        }
        OpType::Multiply => {
            let a = arg(gb, 0);
            let b = arg(gb, 1);
            topi::multiply(&a, &b)
        }
        OpType::Tanh => topi::tanh_t(&arg(gb, 0)),
        OpType::Sigmoid => topi::sigmoid_t(&arg(gb, 0)),
        OpType::Softmax => topi::softmax(&arg(gb, 0)),
        OpType::MaxPool2d {
            window,
            stride,
            pad,
        } => {
            let x = arg(gb, 0);
            topi::max_pool2d(&x, *window, *stride, *pad)
        }
        OpType::GlobalAvgPool => topi::global_avg_pool(&arg(gb, 0)),
        OpType::Flatten => topi::flatten(&arg(gb, 0)),
        OpType::Reshape => topi::reshape(&arg(gb, 0), &node.shape),
        OpType::LayoutTransform { .. } => {
            // Semantically an identity copy that marks the layout boundary;
            // it pays the copy cost the transform would.
            let x = arg(gb, 0);
            let xs = x.clone();
            compute(&node.shape, format!("{}_copy", node.name), |i| xs.at(i))
        }
        OpType::Input | OpType::Param => unreachable!("inputs are not group members"),
    };
    gb.tensors.insert(id, out.clone());
    out
}

/// Looks up the tuned configuration for an operator workload (its
/// `describe()`) on `target`, if any.
fn tuned_config(
    db: Option<&Database>,
    workload: &str,
    target: &Target,
    space: &tvm_autotune::ConfigSpace,
) -> tvm_autotune::ConfigEntity {
    if let Some(rec) = db.and_then(|db| db.best(&topi::task_name(workload, target))) {
        return space.get(rec.config_index);
    }
    topi::default_config(space)
}

/// How a fused group with a complex master is scheduled.
#[derive(Clone, Copy, PartialEq, Eq)]
enum FuseStrategy {
    /// Nest the master inside the element-wise output's thread loops so
    /// the intermediate lives in registers.
    Attach,
    /// Keep the master at root with its (tuned) operator template; the
    /// output tail is scheduled injectively in the same kernel.
    TemplateRoot,
}

fn schedule_group(
    s: &mut Schedule,
    g: &Graph,
    group: &Group,
    gb: &GroupBuild,
    target: &Target,
    db: Option<&Database>,
    strategy: FuseStrategy,
) -> Result<(), TeError> {
    // Inline padding stages and all injective members except the output.
    for p in &gb.pads {
        s.compute_inline(p)?;
    }
    for &m in &group.nodes {
        if m != group.output && m != group.master && g.node(m).op.pattern() == Pattern::Injective {
            s.compute_inline(&gb.tensors[&m])?;
        }
    }
    let master_t = gb.tensors[&group.master].clone();
    let out_t = gb.tensors[&group.output].clone();
    let master_is_complex = g.node(group.master).op.pattern() == Pattern::ComplexOutFusable;

    if group.master == group.output || (master_is_complex && strategy == FuseStrategy::TemplateRoot)
    {
        // Use the operator's schedule template on the master; when the
        // group has an element-wise tail it is scheduled injectively in
        // the same kernel (the intermediate stays function-local).
        let master_out = master_t.clone();
        if group.master != group.output {
            topi::schedule_injective(s, &out_t, target)?;
        }
        match &g.node(group.master).op {
            OpType::Conv2d(w) => {
                let cfg = tuned_config(db, &w.describe(), target, &topi::conv2d_space(w, target));
                let op = topi::Conv2dOp {
                    data: gb.tensors[&g.node(group.master).inputs[0]].clone(),
                    weight: gb.tensors[&g.node(group.master).inputs[1]].clone(),
                    pad: None, // already inlined above
                    out: master_out,
                };
                topi::apply_conv2d_schedule(s, &op, target, &cfg)?;
            }
            OpType::DepthwiseConv2d(w) => {
                let space = topi::depthwise_space(w, target);
                let cfg = tuned_config(db, &w.describe(), target, &space);
                let op = topi::Conv2dOp {
                    data: gb.tensors[&g.node(group.master).inputs[0]].clone(),
                    weight: gb.tensors[&g.node(group.master).inputs[1]].clone(),
                    pad: None,
                    out: master_out,
                };
                topi::apply_depthwise_schedule(s, &op, target, &cfg)?;
            }
            OpType::Dense(w) => {
                let cfg = tuned_config(db, &w.describe(), target, &topi::dense_space(w, target));
                let data = gb.tensors[&g.node(group.master).inputs[0]].clone();
                let weight = gb.tensors[&g.node(group.master).inputs[1]].clone();
                topi::apply_dense_schedule(s, &data, &weight, &master_out, target, &cfg)?;
            }
            _ if group.master != group.output => {
                // No template for this master: the injective tail already
                // got the kernel's loop structure above.
            }
            _ => topi::schedule_injective(s, &out_t, target)?,
        }
    } else if master_is_complex {
        // Fused complex + element-wise tail: give the *output* the loop
        // structure and nest the master inside its innermost parallel
        // loop, so the intermediate lives in registers/local memory.
        s.set_scope(&master_t, MemScope::Local)?;
        let axes = out_t.op.axes();
        if target.is_gpu() {
            use tvm_ir::ThreadTag::*;
            // Mirror the operator template's structure on the *output*:
            // thread tiles, master in registers, shared-memory staging of
            // the master's operands with cooperative fetch.
            let shared_inputs: Vec<tvm_te::Tensor> = master_t.op.input_tensors();
            let reduce = master_t.op.reduce_axes();
            if axes.len() == 4 {
                let t_c = 4.min(out_t.shape()[1]);
                let t_y = 4.min(out_t.shape()[2]);
                let t_x = 8.min(out_t.shape()[3]);
                let (bz, tz) = s.split(&out_t, &axes[1], t_c)?;
                let (by, ty) = s.split(&out_t, &axes[2], t_y)?;
                let (bx, tx) = s.split(&out_t, &axes[3], t_x)?;
                s.reorder(&out_t, &[&axes[0], &bz, &by, &bx, &tz, &ty, &tx])?;
                s.bind(&out_t, &bz, BlockIdxZ)?;
                s.bind(&out_t, &by, BlockIdxY)?;
                s.bind(&out_t, &bx, BlockIdxX)?;
                s.bind(&out_t, &tz, ThreadIdxZ)?;
                s.bind(&out_t, &ty, ThreadIdxY)?;
                s.bind(&out_t, &tx, ThreadIdxX)?;
                s.compute_at(&master_t, &out_t, &tx)?;
                if !reduce.is_empty() {
                    let f = reduce[0].const_extent().unwrap_or(1).clamp(1, 8);
                    let (rco, _rci) = s.split(&master_t, &reduce[0], f)?;
                    let threads = [(ThreadIdxZ, t_c), (ThreadIdxY, t_y), (ThreadIdxX, t_x)];
                    for inp in shared_inputs.iter().take(2) {
                        let cs = s.cache_read(inp, MemScope::Shared, &[&master_t])?;
                        s.compute_at(&cs, &master_t, &rco)?;
                        topi::cooperative_load(&mut *s, &cs, &threads)?;
                    }
                }
            } else {
                let last = axes.len() - 1;
                let t_x = 32.min(out_t.shape()[last]);
                let (bx, tx) = s.split(&out_t, &axes[last], t_x)?;
                s.reorder(&out_t, &[&axes[0], &bx, &tx])?;
                s.bind(&out_t, &axes[0], BlockIdxY)?;
                s.bind(&out_t, &bx, BlockIdxX)?;
                s.bind(&out_t, &tx, ThreadIdxX)?;
                s.compute_at(&master_t, &out_t, &tx)?;
                if !reduce.is_empty() {
                    let f = reduce[0].const_extent().unwrap_or(1).clamp(1, 16);
                    let (rco, _rci) = s.split(&master_t, &reduce[0], f)?;
                    let threads = [(ThreadIdxX, t_x)];
                    for inp in shared_inputs.iter().take(2) {
                        let cs = s.cache_read(inp, MemScope::Shared, &[&master_t])?;
                        s.compute_at(&cs, &master_t, &rco)?;
                        topi::cooperative_load(&mut *s, &cs, &threads)?;
                    }
                }
            }
        } else if axes.len() == 4 {
            let last = axes.len() - 1;
            let (wo, wi) = s.split(&out_t, &axes[last], 8.min(out_t.shape()[last]))?;
            s.vectorize(&out_t, &wi)?;
            s.parallel(&out_t, &axes[1])?;
            s.compute_at(&master_t, &out_t, &axes[2])?;
            let _ = wo;
        } else {
            let last = axes.len() - 1;
            let (_, wi) = s.split(&out_t, &axes[last], 8.min(out_t.shape()[last]))?;
            s.vectorize(&out_t, &wi)?;
            s.compute_at(&master_t, &out_t, &axes[0])?;
        }
    } else {
        // Injective/reduction group.
        topi::schedule_injective(s, &out_t, target)?;
    }
    Ok(())
}

fn build_group_with(
    g: &Graph,
    group: &Group,
    target: &Target,
    opts: &BuildOptions,
    strategy: FuseStrategy,
    name: &str,
) -> Result<CompiledGroup, TeError> {
    let mut gb = GroupBuild {
        tensors: HashMap::new(),
        inputs: Vec::new(),
        pads: Vec::new(),
    };
    for &m in &group.nodes {
        emit_compute(g, &mut gb, m, &group.nodes);
    }
    let out_t = gb.tensors[&group.output].clone();
    let mut s = create_schedule(std::slice::from_ref(&out_t));
    schedule_group(&mut s, g, group, &gb, target, opts.db, strategy)?;
    let mut arg_tensors: Vec<Tensor> = gb.inputs.iter().map(|(_, t)| t.clone()).collect();
    arg_tensors.push(out_t);
    let mut args: Vec<NodeId> = gb.inputs.iter().map(|(id, _)| *id).collect();
    args.push(group.output);
    let func = lower(&s, &arg_tensors, name)?;
    let cost = estimate(func_ref(&func), target);
    Ok(CompiledGroup {
        est_ms: cost.millis(),
        cost: tvm_runtime::GroupCost {
            cycles: cost.cycles,
            flops: cost.flops,
            dram_bytes: cost.dram_bytes,
        },
        func,
        args,
        name: name.to_string(),
        program: Arc::default(),
    })
}

fn func_ref(f: &tvm_ir::LoweredFunc) -> &tvm_ir::LoweredFunc {
    f
}

fn strategy_of(d: GroupDecision) -> FuseStrategy {
    match d {
        GroupDecision::Attach => FuseStrategy::Attach,
        GroupDecision::TemplateRoot => FuseStrategy::TemplateRoot,
    }
}

/// Schedules, lowers and costs one fused group on its own — what a build
/// does for the first group of each structure.
pub fn build_group(
    g: &Graph,
    group: &Group,
    target: &Target,
    opts: &BuildOptions,
    forced: Option<GroupDecision>,
) -> Result<(CompiledGroup, GroupDecision), TeError> {
    let name = format!(
        "fused_{}",
        group
            .nodes
            .iter()
            .map(|&m| g.node(m).op.name())
            .collect::<Vec<_>>()
            .join("_")
    );
    let master_is_complex = g.node(group.master).op.pattern() == Pattern::ComplexOutFusable;
    if master_is_complex && group.master != group.output {
        // Two candidate strategies for fused complex groups; keep the one
        // the cost model prefers (a compiler decision the simulator makes
        // cheap to evaluate). A forced decision (artifact-cache replay)
        // builds only the recorded candidate.
        if let Some(d) = forced {
            return build_group_with(g, group, target, opts, strategy_of(d), &name)
                .map(|cg| (cg, d));
        }
        let a = build_group_with(g, group, target, opts, FuseStrategy::Attach, &name);
        let b = build_group_with(g, group, target, opts, FuseStrategy::TemplateRoot, &name);
        match (a, b) {
            (Ok(x), Ok(y)) => Ok(if x.est_ms <= y.est_ms {
                (x, GroupDecision::Attach)
            } else {
                (y, GroupDecision::TemplateRoot)
            }),
            (Ok(x), Err(_)) => Ok((x, GroupDecision::Attach)),
            (Err(_), Ok(y)) => Ok((y, GroupDecision::TemplateRoot)),
            (Err(e), Err(_)) => Err(e),
        }
    } else {
        // Single-path groups always schedule via Attach; record it so a
        // replayed decision list stays index-aligned with the groups.
        build_group_with(g, group, target, opts, FuseStrategy::Attach, &name)
            .map(|cg| (cg, GroupDecision::Attach))
    }
}
