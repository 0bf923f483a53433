//! The end-to-end compiler (§2): computational graph in, deployable
//! [`Module`] out.
//!
//! `build` runs the §3 graph passes (fusion, memory planning), then
//! generates one kernel per fused group: member operators become tensor
//! expressions, injective members are inlined into the group output, and
//! the group gets one schedule — its master's (optionally tuned) operator
//! template, applied to the group's output so the master accumulates in
//! registers under the element-wise tail and intermediates never touch
//! DRAM. The kernel a tuning record was measured on is the kernel built.
//!
//! What ships is gated the same way in every build profile, as `Err`s: the
//! fused graph and memory plan pass `tvm_graph::verify_graph`, and each
//! distinct kernel fits its target's limits (`Target::check_limits`, the
//! check a tuning candidate gets). The loop-IR passes over the kernels are
//! not part of a build; they are [`Module::verify`], for whoever wants that
//! verdict.

use std::collections::hash_map::{Entry, HashMap};
use std::sync::Arc;

use tvm_autotune::{ConfigEntity, ConfigSpace, Database};
use tvm_graph::{fuse, plan_memory, Graph, Group, GroupKey, Node, NodeId, OpType, Pattern};
use tvm_ir::MemScope;
use tvm_runtime::{CompiledGroup, Module};
use tvm_sim::{analyze, estimate_analysis, Target};
use tvm_te::{compute, create_schedule, lower, placeholder, Attach, Schedule, TeError, Tensor};
use tvm_topi as topi;

/// Build configuration.
#[derive(Default)]
pub struct BuildOptions<'a> {
    /// Disable operator fusion (the "TVM w/o graph opt" baselines).
    pub no_fusion: bool,
    /// Tuning-log database consulted for operator configurations.
    pub db: Option<&'a Database>,
}

/// How a fused group's master sits in its kernel: always
/// [`Attach`](GroupDecision::Attach), since a build makes one candidate per
/// group. The name survives only because the frozen `benchmark/` reads it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum GroupDecision {
    /// Master nested inside the element-wise output's loops.
    Attach,
}

/// What a build did, group by group. Kernel sharing is
/// [`Module::distinct_kernels`].
#[derive(Clone, Debug, Default)]
pub struct BuildReport {
    /// One entry per fused group, in group order.
    pub decisions: Vec<GroupDecision>,
}

/// Compiles a graph for a target — `t.compiler.build(graph, target, params)`
/// in the paper's end-user example.
pub fn build(graph: &Graph, target: &Target, opts: &BuildOptions) -> Result<Module, TeError> {
    build_with_report(graph, target, opts).map(|(m, _)| m)
}

/// [`build`], also returning the [`BuildReport`].
pub fn build_with_report(
    graph: &Graph,
    target: &Target,
    opts: &BuildOptions,
) -> Result<(Module, BuildReport), TeError> {
    let fused = fuse(graph, !opts.no_fusion);
    let plan = plan_memory(graph, &fused);
    let graph_report = tvm_graph::verify_graph(graph, &fused, &plan);
    if graph_report.has_errors() {
        let msgs: Vec<String> = graph_report.errors().map(|d| d.to_string()).collect();
        return Err(TeError::msg(format!(
            "graph validation failed building for `{}`: {}",
            target.name(),
            msgs.join("; ")
        )));
    }
    let mut kernels: Vec<CompiledGroup> = Vec::with_capacity(fused.groups.len());
    // Index of the first kernel built for each group structure. It lives
    // for this one call: target and database are fixed within it, which is
    // what lets the key leave them out.
    let mut first_built: HashMap<GroupKey, usize> = HashMap::new();
    for (gi, group) in fused.groups.iter().enumerate() {
        let (key, args) = GroupKey::of(graph, group);
        let kernel = match first_built.entry(key) {
            Entry::Occupied(first) => {
                let k = &kernels[*first.get()];
                CompiledGroup {
                    func: k.func.clone(),
                    args,
                    est_ms: k.est_ms,
                    cost: k.cost,
                    name: k.name.clone(),
                    program: Arc::clone(&k.program),
                }
            }
            Entry::Vacant(slot) => {
                slot.insert(gi);
                let kernel = build_group(graph, group, target, opts)?;
                debug_assert_eq!(kernel.args, args, "key walk and codegen disagree on args");
                kernel
            }
        };
        kernels.push(kernel);
    }
    let report = BuildReport {
        decisions: vec![GroupDecision::Attach; kernels.len()],
    };
    let module = Module {
        graph: graph.clone(),
        fused,
        kernels,
        plan,
        target_name: target.name().to_string(),
    };
    // An assertion on the one candidate there is: it cannot change what is
    // returned, and nothing turns it on or off.
    debug_assert!(
        !module.verify().has_errors(),
        "built module fails its own verdict:\n{}",
        module.verify().render()
    );
    Ok((module, report))
}

struct GroupBuild {
    tensors: HashMap<NodeId, Tensor>,
    inputs: Vec<(NodeId, Tensor)>,
    /// The group's convolution as `topi` declared it, padding stage
    /// included: what its schedule template is applied to.
    conv: Option<topi::Conv2dOp>,
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

fn emit_compute(
    g: &Graph,
    gb: &mut GroupBuild,
    id: NodeId,
    member_ids: &[NodeId],
) -> Result<Tensor, TeError> {
    let node = g.node(id);
    let arg = |gb: &mut GroupBuild, i: usize| -> Result<Tensor, TeError> {
        let inp = node.inputs[i];
        if !member_ids.contains(&inp) {
            return Ok(gb.input_tensor(g, inp));
        }
        gb.tensors.get(&inp).cloned().ok_or_else(|| {
            TeError::msg(format!(
                "`{}` reads member `{}` before it is emitted",
                node.name,
                g.node(inp).name
            ))
        })
    };
    let out = match &node.op {
        OpType::Conv2d(w) => {
            let data = arg(gb, 0)?;
            let weight = arg(gb, 1)?;
            gb.conv
                .insert(topi::conv2d_compute(&data, &weight, w))
                .out
                .clone()
        }
        OpType::DepthwiseConv2d(w) => {
            let data = arg(gb, 0)?;
            let weight = arg(gb, 1)?;
            let op = topi::depthwise_conv2d_compute(&data, &weight, w);
            gb.conv.insert(op).out.clone()
        }
        OpType::Dense(w) => {
            let data = arg(gb, 0)?;
            let weight = arg(gb, 1)?;
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
            let data = arg(gb, 0)?;
            let weight = arg(gb, 1)?;
            let op = topi::conv2d_transpose_compute(
                &data, &weight, 1, *in_c, *in_size, *out_c, *kernel, *stride, *out_pad,
            );
            gb.conv.insert(op).out.clone()
        }
        OpType::Relu => topi::relu(&arg(gb, 0)?),
        OpType::BiasAdd => {
            let x = arg(gb, 0)?;
            let b = arg(gb, 1)?;
            topi::bias_add(&x, &b)
        }
        OpType::BatchNorm => {
            let x = arg(gb, 0)?;
            let sc = arg(gb, 1)?;
            let sh = arg(gb, 2)?;
            topi::batch_norm(&x, &sc, &sh)
        }
        OpType::Add => {
            let a = arg(gb, 0)?;
            let b = arg(gb, 1)?;
            topi::add(&a, &b)
        }
        OpType::Multiply => {
            let a = arg(gb, 0)?;
            let b = arg(gb, 1)?;
            topi::multiply(&a, &b)
        }
        OpType::Tanh => topi::tanh_t(&arg(gb, 0)?),
        OpType::Sigmoid => topi::sigmoid_t(&arg(gb, 0)?),
        OpType::Softmax => topi::softmax(&arg(gb, 0)?),
        OpType::MaxPool2d {
            window,
            stride,
            pad,
        } => {
            let x = arg(gb, 0)?;
            topi::max_pool2d(&x, *window, *stride, *pad)
        }
        OpType::GlobalAvgPool => topi::global_avg_pool(&arg(gb, 0)?),
        OpType::Flatten => topi::flatten(&arg(gb, 0)?),
        OpType::Reshape => topi::reshape(&arg(gb, 0)?, &node.shape),
        OpType::LayoutTransform { .. } => {
            // Semantically an identity copy that marks the layout boundary;
            // it pays the copy cost the transform would.
            let x = arg(gb, 0)?;
            let xs = x.clone();
            compute(&node.shape, format!("{}_copy", node.name), |i| xs.at(i))
        }
        OpType::Input | OpType::Param => unreachable!("inputs are not group members"),
    };
    gb.tensors.insert(id, out.clone());
    Ok(out)
}

/// Untuned tiles by knob name, for a space with no record in the database;
/// a knob takes its option nearest the value named here. GPUs get a 4x4x8
/// thread tile reducing through shared memory eight channels at a time,
/// CPUs the largest register tile of a convolution's space and a dense
/// row's reduction run one output at a time.
const GPU_FALLBACK: &[(&str, i64)] = &[
    ("tile_oc", 4),
    ("tile_oh", 4),
    ("tile_ow", 8),
    ("tile_rc", 8),
    ("tile_m", 1),
    ("tile_n", 32),
    ("tile_k", 16),
    ("use_shared", 1),
];
const CPU_FALLBACK: &[(&str, i64)] = &[
    ("tile_oc", 32),
    ("tile_ow", 32),
    ("tile_rc", 32),
    ("tile_m", 1),
    ("tile_n", 1),
    ("tile_k", 32),
    ("vec", 1),
    ("par", 1),
    ("unroll", 1),
];

fn fallback_config(target: &Target, space: &ConfigSpace) -> ConfigEntity {
    space.get(space.index_near(if target.is_gpu() {
        GPU_FALLBACK
    } else {
        CPU_FALLBACK
    }))
}

/// The configuration a templated operator is scheduled with, alone or under
/// a tail: its best record in the tuning database, else the fallback tiles.
/// `workload` is the operator's `describe()`.
fn config_for(
    db: Option<&Database>,
    workload: &str,
    target: &Target,
    space: &ConfigSpace,
) -> ConfigEntity {
    match db.and_then(|db| db.best(&topi::task_name(workload, target))) {
        Some(rec) => space.get(rec.config_index),
        None => fallback_config(target, space),
    }
}

/// Gives a group's kernel its one schedule. `out_t` is the stage the kernel
/// writes; every injective member between it and the master is inlined.
fn schedule_group(
    s: &mut Schedule,
    master: &Node,
    gb: &mut GroupBuild,
    out_t: &Tensor,
    target: &Target,
    db: Option<&Database>,
) -> Result<(), TeError> {
    let master_t = gb.tensors[&master.id].clone();
    // The operator templates own the whole group: padding stage, master and
    // the element-wise tail, which reads the master point for point.
    let tail = (out_t.op_id() != master_t.op_id()).then_some(out_t);
    let mut conv = gb.conv.take();
    if tail.is_none_or(|t| t.shape() == master_t.shape()) {
        if let Some(op) = &mut conv {
            op.tail = tail.cloned();
        }
        match (&master.op, &conv) {
            (OpType::Conv2d(w), Some(op)) => {
                let cfg = config_for(db, &w.describe(), target, &topi::conv2d_space(w, target));
                return topi::apply_conv2d_schedule(s, op, target, &cfg);
            }
            (
                OpType::Conv2dTranspose {
                    in_c,
                    in_size,
                    out_c,
                    kernel,
                    stride,
                    out_pad,
                },
                Some(op),
            ) => {
                // A unit-stride convolution over the dilated input; it has
                // no tuning task, so always the fallback tiles.
                let w = topi::conv2d_transpose_as_conv(
                    1, *in_c, *in_size, *out_c, *kernel, *stride, *out_pad,
                );
                let cfg = fallback_config(target, &topi::conv2d_space(&w, target));
                return topi::apply_conv2d_schedule(s, op, target, &cfg);
            }
            (OpType::DepthwiseConv2d(w), Some(op)) => {
                let space = topi::depthwise_space(w, target);
                let cfg = config_for(db, &w.describe(), target, &space);
                return topi::apply_depthwise_schedule(s, op, target, &cfg);
            }
            (OpType::Dense(w), _) => {
                let cfg = config_for(db, &w.describe(), target, &topi::dense_space(w, target));
                let data = &gb.tensors[&master.inputs[0]];
                let weight = &gb.tensors[&master.inputs[1]];
                return topi::apply_dense_schedule_with_tail(
                    s, data, weight, &master_t, tail, target, &cfg,
                );
            }
            _ => {}
        }
    }
    // Injective and reduction groups, and a complex master whose tail
    // reshapes it mid-chain: the output's flat nest. On a GPU every other
    // stage computes, in thread-local memory, just the points its thread's
    // output point reads; on a CPU they stay at root.
    if let Some(pad) = conv.and_then(|op| op.pad) {
        s.compute_inline(&pad)?;
    }
    if let Some(tx) = topi::schedule_injective(s, out_t, target)? {
        let at_root: Vec<Tensor> = s
            .stages
            .iter()
            .filter(|st| !st.is_output && matches!(st.attach, Attach::Root))
            .map(|st| st.tensor.clone())
            .collect();
        for t in &at_root {
            s.compute_at(t, out_t, &tx)?;
            s.set_scope(t, MemScope::Local)?;
        }
    }
    Ok(())
}

/// Schedules, lowers and costs one fused group on its own — what a build
/// does for the first group of each structure.
pub fn build_group(
    g: &Graph,
    group: &Group,
    target: &Target,
    opts: &BuildOptions,
) -> Result<CompiledGroup, TeError> {
    let name = format!(
        "fused_{}",
        group
            .nodes
            .iter()
            .map(|&m| g.node(m).op.name())
            .collect::<Vec<_>>()
            .join("_")
    );
    let mut gb = GroupBuild {
        tensors: HashMap::new(),
        inputs: Vec::new(),
        conv: None,
    };
    // A flatten / reshape that ends a complex master's group is a view of
    // the tensor it reads: both are row-major over the same flat buffer, so
    // the kernel writes that tensor straight into the group's output and
    // the view costs no loop nest (nor the template its output's shape).
    let (master, output) = (g.node(group.master), g.node(group.output));
    let is_view = matches!(output.op, OpType::Flatten | OpType::Reshape)
        && master.op.pattern() == Pattern::ComplexOutFusable;
    let (members, written) = match group.nodes.split_last() {
        Some((_, members)) if is_view => (members, output.inputs[0]),
        _ => (&group.nodes[..], group.output),
    };
    for &m in members {
        emit_compute(g, &mut gb, m, members)?;
    }
    let out_t = gb.tensors[&written].clone();
    let mut s = create_schedule(std::slice::from_ref(&out_t));
    for &m in members {
        if m != group.master && m != written && g.node(m).op.pattern() == Pattern::Injective {
            s.compute_inline(&gb.tensors[&m])?;
        }
    }
    schedule_group(&mut s, master, &mut gb, &out_t, target, opts.db)?;
    let mut arg_tensors: Vec<Tensor> = gb.inputs.iter().map(|(_, t)| t.clone()).collect();
    arg_tensors.push(out_t);
    let mut args: Vec<NodeId> = gb.inputs.iter().map(|(id, _)| *id).collect();
    args.push(group.output);
    let func = lower(&s, &arg_tensors, &name)?;
    let an = analyze(&func);
    target
        .check_limits(&an)
        .map_err(|e| TeError::msg(format!("kernel `{name}` on {}: {e}", target.name())))?;
    let cost = estimate_analysis(&an, target, &Default::default());
    Ok(CompiledGroup {
        est_ms: cost.millis(),
        cost: tvm_runtime::GroupCost {
            cycles: cost.cycles,
            flops: cost.flops,
            dram_bytes: cost.dram_bytes,
        },
        func,
        args,
        name,
        program: Arc::default(),
    })
}
