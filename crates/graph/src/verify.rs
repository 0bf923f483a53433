//! Graph-level static verification: the §3 graph optimizations checked
//! post-hoc, mirroring the loop-IR suite in `tvm-analysis` (interval
//! proofs where possible, concrete refutation witnesses where not).
//!
//! Four passes run over a `(Graph, FusedGraph, MemoryPlan)` triple (plus
//! the lowered kernels for the last two):
//!
//! 1. [`check_memplan`] — **memory-plan safety**: recomputes tensor
//!    liveness from the executor's topological order (group `i` writes at
//!    op `i`, readers extend the range, graph outputs live forever),
//!    builds the interference relation, and proves every pair of tensors
//!    sharing a storage slot has disjoint live ranges — refuting with the
//!    exact op index at which two live tensors would alias. Each slot's
//!    byte size and base alignment must cover every dtype-aware occupant.
//! 2. [`check_fusion`] — **fusion legality**: every fused group is
//!    validated against the §3 rule table after the fact — a single
//!    non-injective "master" per group, straight-line injective chains,
//!    no external consumer of a fused intermediate (it never
//!    materializes), and shape/dtype agreement along fused edges.
//! 3. [`check_slot_contracts`] — **cross-layer slot contracts**: reuses
//!    the loop-IR buffer-bounds machinery (`tvm_analysis::bounds`) to
//!    prove each lowered kernel's touch set on every bound tensor fits
//!    inside the bytes the planner actually reserved for it — the
//!    contract that connects the graph layer's plan to the schedule
//!    layer's generated code. An undersized slot comes back as a bounds
//!    refutation with a concrete loop-index witness.
//! 4. [`check_kernel_bodies`] — **loop-IR legality**: the `ssa`, `bounds`
//!    and `sync` passes of `tvm-analysis` over each distinct kernel body,
//!    so one [`verify_build`] is the whole static verdict on a module.
//!
//! Diagnostics reuse [`tvm_analysis::Diagnostic`], name nodes/slots by
//! display name and index (never internal ids), and are deterministic —
//! the same golden-file discipline as the loop-IR passes.

use tvm_analysis::{analyze_func_with, bounds, AnalysisOptions, Diagnostic};
use tvm_ir::LoweredFunc;

use crate::fusion::FusedGraph;
use crate::ir::{Graph, NodeId, OpType, Pattern};
use crate::memplan::MemoryPlan;

/// One lowered kernel as the executor binds it: the function plus the
/// graph nodes whose values bind to its buffer params, in order (the last
/// entry is the kernel output). Index-aligned with the fused groups.
#[derive(Clone, Copy)]
pub struct KernelView<'a> {
    /// Kernel display name.
    pub name: &'a str,
    /// The lowered function.
    pub func: &'a LoweredFunc,
    /// Graph nodes bound to the function's buffer params, in order.
    pub args: &'a [NodeId],
}

/// Aggregate result of a graph-verification run, mirroring
/// `tvm_analysis::AnalysisReport`.
#[derive(Clone, Debug, Default)]
pub struct GraphReport {
    /// All findings, in pass order (`memplan`, `fusion`, `slot-contract`,
    /// then the loop-IR passes per kernel).
    pub diagnostics: Vec<Diagnostic>,
    /// Fused groups validated against the rule table.
    pub groups_checked: usize,
    /// Storage slots whose occupant sets were examined.
    pub slots_checked: usize,
    /// Same-slot tensor pairs whose live ranges were compared.
    pub pairs_checked: usize,
    /// Kernel buffer accesses checked against planned capacities.
    pub contracts_checked: usize,
    /// Accesses proven inside their planned capacity.
    pub contracts_proven: usize,
    /// Accesses refuted with a concrete witness.
    pub contracts_refuted: usize,
    /// Accesses neither proven nor refuted.
    pub contracts_unknown: usize,
}

impl GraphReport {
    /// Error-severity findings only.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == tvm_analysis::Severity::Error)
    }

    /// True when any pass produced an error.
    pub fn has_errors(&self) -> bool {
        self.errors().next().is_some()
    }

    /// One line per diagnostic plus a counters summary, for logs and
    /// golden files.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        out.push_str(&format!(
            "graph: {} groups, {} slots, {} live pairs; contracts: {} checked, \
             {} proven, {} refuted, {} unknown\n",
            self.groups_checked,
            self.slots_checked,
            self.pairs_checked,
            self.contracts_checked,
            self.contracts_proven,
            self.contracts_refuted,
            self.contracts_unknown,
        ));
        out
    }
}

/// Live range of one materialized tensor in executor op order: written at
/// op `birth`, last read at op `death` (`n_groups` = read after the whole
/// graph ran, i.e. a graph output).
#[derive(Clone, Copy, Debug)]
struct LiveRange {
    node: NodeId,
    birth: usize,
    death: usize,
}

/// Recomputes liveness from the executor's topological order,
/// independently of the planner's own bookkeeping: group `i`'s output is
/// born when kernel `i` runs and dies after the last kernel that binds it
/// as an input (graph outputs never die).
fn liveness(g: &Graph, fused: &FusedGraph) -> Vec<LiveRange> {
    let n_groups = fused.groups.len();
    let mut ranges: Vec<LiveRange> = fused
        .groups
        .iter()
        .enumerate()
        .map(|(gi, grp)| LiveRange {
            node: grp.output,
            birth: gi,
            death: gi,
        })
        .collect();
    // A group's kernel reads every out-of-group tensor its members
    // consume — exactly what the executor binds as kernel inputs.
    for (gi, grp) in fused.groups.iter().enumerate() {
        for &m in &grp.nodes {
            for &inp in &g.node(m).inputs {
                let pg = fused.group_of.get(inp.0).copied().unwrap_or(usize::MAX);
                if pg != usize::MAX && pg != gi && fused.groups[pg].output == inp {
                    ranges[pg].death = ranges[pg].death.max(gi);
                }
            }
        }
    }
    for r in &mut ranges {
        if g.outputs.contains(&r.node) {
            r.death = n_groups;
        }
    }
    ranges
}

/// Pass 1: memory-plan safety. Every pair of tensors sharing a slot must
/// have disjoint live ranges, and each slot's byte size and alignment
/// must cover every occupant at its own dtype width.
pub fn check_memplan(g: &Graph, fused: &FusedGraph, plan: &MemoryPlan) -> GraphReport {
    let mut report = GraphReport::default();
    let diags = &mut report.diagnostics;
    let n_slots = plan.slot_sizes.len();

    if plan.storage_of.len() != g.nodes.len() {
        diags.push(Diagnostic::error(
            "memplan",
            format!(
                "plan covers {} nodes but the graph has {}",
                plan.storage_of.len(),
                g.nodes.len()
            ),
            None,
        ));
        return report;
    }
    if plan.slot_aligns.len() != n_slots {
        diags.push(Diagnostic::error(
            "memplan",
            format!(
                "plan has {} slot sizes but {} slot alignments",
                n_slots,
                plan.slot_aligns.len()
            ),
            None,
        ));
        return report;
    }

    // Exactly the group outputs materialize.
    let mut is_group_output = vec![false; g.nodes.len()];
    for grp in &fused.groups {
        if let Some(slot) = is_group_output.get_mut(grp.output.0) {
            *slot = true;
        }
    }
    for node in &g.nodes {
        let slot = plan.storage_of[node.id.0];
        if is_group_output[node.id.0] {
            if slot == usize::MAX {
                diags.push(Diagnostic::error(
                    "memplan",
                    format!("group output `{}` has no storage slot", node.name),
                    None,
                ));
            } else if slot >= n_slots {
                diags.push(Diagnostic::error(
                    "memplan",
                    format!(
                        "`{}` assigned slot {} but the plan has only {} slots",
                        node.name, slot, n_slots
                    ),
                    None,
                ));
            }
        } else if slot != usize::MAX {
            diags.push(Diagnostic::error(
                "memplan",
                format!(
                    "`{}` never materializes (not a group output) but holds slot {}",
                    node.name, slot
                ),
                None,
            ));
        }
    }

    // Slot capacity and alignment per occupant, at the occupant's dtype.
    let ranges = liveness(g, fused);
    for r in &ranges {
        let node = g.node(r.node);
        let slot = plan.storage_of[r.node.0];
        if slot >= n_slots {
            continue; // already reported above
        }
        let need = node.shape.iter().product::<i64>().max(0) as usize * node.dtype.bytes();
        if plan.slot_sizes[slot] < need {
            diags.push(Diagnostic::error(
                "memplan",
                format!(
                    "slot {} holds {} bytes but occupant `{}` needs {} ({} x {}B {})",
                    slot,
                    plan.slot_sizes[slot],
                    node.name,
                    need,
                    node.shape.iter().product::<i64>(),
                    node.dtype.bytes(),
                    node.dtype,
                ),
                None,
            ));
        }
        let align = node.dtype.lane_bytes().max(1);
        if !plan.slot_aligns[slot].max(1).is_multiple_of(align) {
            diags.push(Diagnostic::error(
                "memplan",
                format!(
                    "slot {} is {}-byte aligned but occupant `{}` ({}) requires {}-byte \
                     alignment",
                    slot,
                    plan.slot_aligns[slot].max(1),
                    node.name,
                    node.dtype,
                    align,
                ),
                None,
            ));
        }
    }

    // Interference: occupants of one slot, in birth order; overlapping
    // live ranges alias. The witness is the exact op index at which the
    // later tensor is written over the still-live earlier one.
    let mut by_slot: Vec<Vec<&LiveRange>> = vec![Vec::new(); n_slots];
    for r in &ranges {
        let slot = plan.storage_of[r.node.0];
        if slot < n_slots {
            by_slot[slot].push(r);
        }
    }
    report.slots_checked = n_slots;
    for (si, occupants) in by_slot.iter().enumerate() {
        let mut occ = occupants.clone();
        occ.sort_by_key(|r| r.birth);
        for (i, a) in occ.iter().enumerate() {
            for b in occ.iter().skip(i + 1) {
                report.pairs_checked += 1;
                if b.birth <= a.death {
                    diags.push(Diagnostic::error(
                        "memplan",
                        format!(
                            "slot {} aliases two live tensors: `{}` (live ops {}..={}) is \
                             overwritten by `{}`",
                            si,
                            g.node(a.node).name,
                            a.birth,
                            a.death,
                            g.node(b.node).name,
                        ),
                        Some(format!("at op {}", b.birth)),
                    ));
                }
            }
        }
    }
    report
}

/// Data inputs of an injective op that must agree with its output shape
/// elementwise; `None` means only total element count must agree
/// (reshape-like reinterpretations).
fn elementwise_inputs(op: &OpType) -> Option<&'static [usize]> {
    match op {
        OpType::Relu | OpType::BatchNorm | OpType::BiasAdd | OpType::Tanh | OpType::Sigmoid => {
            Some(&[0])
        }
        OpType::Add | OpType::Multiply => Some(&[0, 1]),
        OpType::Flatten | OpType::Reshape | OpType::LayoutTransform { .. } => None,
        _ => None,
    }
}

/// Pass 2: fusion legality. Validates every fused group against the §3
/// rule table post-hoc.
pub fn check_fusion(g: &Graph, fused: &FusedGraph) -> GraphReport {
    let mut report = GraphReport::default();
    let diags = &mut report.diagnostics;

    if fused.group_of.len() != g.nodes.len() {
        diags.push(Diagnostic::error(
            "fusion",
            format!(
                "fusion covers {} nodes but the graph has {}",
                fused.group_of.len(),
                g.nodes.len()
            ),
            None,
        ));
        return report;
    }

    // Membership consistency: every compute node sits in exactly one
    // group, and that group lists it exactly once.
    let mut member_count = vec![0usize; g.nodes.len()];
    for (gi, grp) in fused.groups.iter().enumerate() {
        for &m in &grp.nodes {
            match g.get(m) {
                None => diags.push(Diagnostic::error(
                    "fusion",
                    format!("group {gi} lists node #{} outside the graph", m.0),
                    None,
                )),
                Some(_) => {
                    member_count[m.0] += 1;
                    if fused.group_of[m.0] != gi {
                        diags.push(Diagnostic::error(
                            "fusion",
                            format!(
                                "`{}` is listed in group {gi} but group_of says {}",
                                g.node(m).name,
                                display_group(fused.group_of[m.0]),
                            ),
                            None,
                        ));
                    }
                }
            }
        }
    }
    for node in &g.nodes {
        let is_compute = !matches!(node.op, OpType::Input | OpType::Param);
        match (is_compute, member_count[node.id.0]) {
            (true, 0) => diags.push(Diagnostic::error(
                "fusion",
                format!("compute node `{}` belongs to no group", node.name),
                None,
            )),
            (true, n) if n > 1 => diags.push(Diagnostic::error(
                "fusion",
                format!("`{}` is a member of {n} groups", node.name),
                None,
            )),
            (false, n) if n > 0 => diags.push(Diagnostic::error(
                "fusion",
                format!(
                    "{} `{}` cannot be a group member",
                    node.op.name(),
                    node.name
                ),
                None,
            )),
            _ => {}
        }
    }

    let consumers = g.consumers();
    for (gi, grp) in fused.groups.iter().enumerate() {
        report.groups_checked += 1;
        if grp.nodes.is_empty() {
            diags.push(Diagnostic::error(
                "fusion",
                format!("group {gi} is empty"),
                None,
            ));
            continue;
        }
        let in_group = |id: NodeId| grp.nodes.contains(&id);
        if !in_group(grp.master) || !in_group(grp.output) {
            diags.push(Diagnostic::error(
                "fusion",
                format!(
                    "group {gi}: master `{}` or output `{}` is not a member",
                    g.node(grp.master).name,
                    g.node(grp.output).name
                ),
                None,
            ));
            continue;
        }

        // Single master: every non-master member is injective.
        for &m in &grp.nodes {
            if m != grp.master && g.node(m).op.pattern() != Pattern::Injective {
                diags.push(Diagnostic::error(
                    "fusion",
                    format!(
                        "group {gi}: non-injective `{}` ({}) fused under master `{}`",
                        g.node(m).name,
                        g.node(m).op.name(),
                        g.node(grp.master).name
                    ),
                    None,
                ));
            }
        }
        // Opaque ops never fuse.
        if g.node(grp.master).op.pattern() == Pattern::Opaque && grp.nodes.len() > 1 {
            diags.push(Diagnostic::error(
                "fusion",
                format!(
                    "group {gi}: opaque `{}` fused with {} other ops",
                    g.node(grp.master).name,
                    grp.nodes.len() - 1
                ),
                None,
            ));
        }

        // Straight-line producer chains: each member after the first
        // consumes another member.
        for (mi, &m) in grp.nodes.iter().enumerate() {
            if mi > 0 && !g.node(m).inputs.iter().any(|&i| in_group(i)) {
                diags.push(Diagnostic::error(
                    "fusion",
                    format!(
                        "group {gi}: `{}` consumes nothing inside its own group",
                        g.node(m).name
                    ),
                    None,
                ));
            }
        }

        // Dependency order: the executor walks kernels in group order and
        // the memory plan computes liveness over it, so every tensor a
        // group reads from outside must come from an earlier group.
        for &m in &grp.nodes {
            for &inp in &g.node(m).inputs {
                let pg = fused.group_of[inp.0];
                if pg != usize::MAX && pg > gi {
                    diags.push(Diagnostic::error(
                        "fusion",
                        format!(
                            "group {gi}: `{}` reads `{}` before group {pg} produces it",
                            g.node(m).name,
                            g.node(inp).name
                        ),
                        Some(format!("at op {gi}")),
                    ));
                }
            }
        }

        // Fused intermediates never materialize: no consumer outside the
        // group, and never a graph output.
        for &m in &grp.nodes {
            if m == grp.output {
                continue;
            }
            for &c in &consumers[m.0] {
                if !in_group(c) {
                    diags.push(Diagnostic::error(
                        "fusion",
                        format!(
                            "group {gi}: intermediate `{}` is consumed by `{}` outside the \
                             group",
                            g.node(m).name,
                            g.node(c).name
                        ),
                        Some(format!("at op {}", display_group(fused.group_of[c.0]))),
                    ));
                }
            }
            if g.outputs.contains(&m) {
                diags.push(Diagnostic::error(
                    "fusion",
                    format!(
                        "group {gi}: intermediate `{}` is a graph output but never \
                         materializes",
                        g.node(m).name
                    ),
                    None,
                ));
            }
        }

        // Shape/dtype agreement along fused edges of elementwise members.
        for &m in &grp.nodes {
            let node = g.node(m);
            if node.op.pattern() != Pattern::Injective {
                continue;
            }
            let strict = elementwise_inputs(&node.op);
            for (pos, &inp) in node.inputs.iter().enumerate() {
                if !in_group(inp) {
                    continue;
                }
                let prod = g.node(inp);
                let numel = |s: &[i64]| s.iter().product::<i64>();
                if let Some(strict) = strict {
                    if strict.contains(&pos) && prod.shape != node.shape {
                        diags.push(Diagnostic::error(
                            "fusion",
                            format!(
                                "group {gi}: elementwise `{}` expects shape {:?} but fused \
                                 producer `{}` has {:?}",
                                node.name, node.shape, prod.name, prod.shape
                            ),
                            None,
                        ));
                        continue;
                    }
                }
                if numel(&prod.shape) != numel(&node.shape) && strict.is_none() {
                    diags.push(Diagnostic::error(
                        "fusion",
                        format!(
                            "group {gi}: `{}` reinterprets {} elements of fused producer \
                             `{}` as {}",
                            node.name,
                            numel(&prod.shape),
                            prod.name,
                            numel(&node.shape)
                        ),
                        None,
                    ));
                }
                if prod.dtype != node.dtype {
                    diags.push(Diagnostic::error(
                        "fusion",
                        format!(
                            "group {gi}: dtype changes along fused edge `{}` ({}) -> `{}` \
                             ({}) without a materialization",
                            prod.name, prod.dtype, node.name, node.dtype
                        ),
                        None,
                    ));
                }
            }
        }
    }
    report
}

fn display_group(gi: usize) -> String {
    if gi == usize::MAX {
        "none".to_string()
    } else {
        gi.to_string()
    }
}

/// Pass 3: cross-layer slot contracts. For every kernel buffer argument,
/// the planner reserved some number of bytes (a shared slot for
/// materialized tensors, a dedicated exact-size buffer for graph inputs
/// and params); the loop-IR bounds machinery must prove the kernel's
/// touch set on that argument fits inside it. An undersized slot
/// surfaces as a refutation with a concrete loop-index witness.
pub fn check_slot_contracts(
    g: &Graph,
    plan: &MemoryPlan,
    kernels: &[KernelView<'_>],
) -> GraphReport {
    let mut report = GraphReport::default();
    for k in kernels {
        if k.args.len() != k.func.params.len() {
            report.diagnostics.push(Diagnostic::error(
                "slot-contract",
                format!(
                    "kernel `{}` binds {} tensors to {} buffer params",
                    k.name,
                    k.args.len(),
                    k.func.params.len()
                ),
                None,
            ));
            continue;
        }
        // Element capacity the plan actually reserved for each argument.
        let mut caps: Vec<usize> = Vec::with_capacity(k.args.len());
        let mut bad_ref = false;
        for &arg in k.args {
            let Some(node) = g.get(arg) else {
                report.diagnostics.push(Diagnostic::error(
                    "slot-contract",
                    format!(
                        "kernel `{}` references node #{} outside the graph",
                        k.name, arg.0
                    ),
                    None,
                ));
                bad_ref = true;
                break;
            };
            let numel = node.shape.iter().product::<i64>().max(0) as usize;
            let slot = plan.storage_of.get(arg.0).copied().unwrap_or(usize::MAX);
            let cap = if slot != usize::MAX && slot < plan.slot_sizes.len() {
                plan.slot_sizes[slot] / node.dtype.bytes().max(1)
            } else {
                // Graph inputs and params own dedicated exact-size
                // buffers; the executor allocates them at full extent.
                numel
            };
            caps.push(cap);
        }
        if bad_ref {
            continue;
        }
        let (diags, stats) = bounds::check(&k.func.body, &k.func.params, &caps);
        report.contracts_checked += stats.checked;
        report.contracts_proven += stats.proven;
        report.contracts_refuted += stats.refuted;
        report.contracts_unknown += stats.unknown;
        for d in diags {
            if d.severity == tvm_analysis::Severity::Error {
                report.diagnostics.push(Diagnostic::error(
                    "slot-contract",
                    format!(
                        "kernel `{}`: planned capacity exceeded: {}",
                        k.name, d.message
                    ),
                    d.witness,
                ));
            }
        }
    }
    report
}

/// Pass 4: the loop-IR verifier (`ssa` + `bounds` + `sync`) over the
/// lowered kernels. Kernels a build found structurally equal share one
/// body, and the same immutable tree gets the same verdict: each distinct
/// body is analyzed once, under the name of the first kernel that has it.
pub fn check_kernel_bodies(kernels: &[KernelView<'_>]) -> GraphReport {
    let mut report = GraphReport::default();
    let opts = AnalysisOptions::lowering_hook();
    for (i, k) in kernels.iter().enumerate() {
        if kernels[..i]
            .iter()
            .any(|p| p.func.body.same_as(&k.func.body))
        {
            continue;
        }
        for d in analyze_func_with(k.func, &opts).diagnostics {
            report.diagnostics.push(Diagnostic {
                message: format!("kernel `{}`: {}", k.name, d.message),
                ..d
            });
        }
    }
    report
}

fn merge(into: &mut GraphReport, from: GraphReport) {
    into.diagnostics.extend(from.diagnostics);
    into.groups_checked += from.groups_checked;
    into.slots_checked += from.slots_checked;
    into.pairs_checked += from.pairs_checked;
    into.contracts_checked += from.contracts_checked;
    into.contracts_proven += from.contracts_proven;
    into.contracts_refuted += from.contracts_refuted;
    into.contracts_unknown += from.contracts_unknown;
}

/// Runs the graph-layer passes (memory plan + fusion legality) — what the
/// fuzzing oracle and the graph lint run on every `(fuse, plan_memory)`
/// result.
pub fn verify_graph(g: &Graph, fused: &FusedGraph, plan: &MemoryPlan) -> GraphReport {
    let mut report = check_memplan(g, fused, plan);
    merge(&mut report, check_fusion(g, fused));
    report
}

/// Runs all four passes over a complete build: the graph passes, the
/// cross-layer slot contracts and the loop-IR verifier over the lowered
/// kernels.
pub fn verify_build(
    g: &Graph,
    fused: &FusedGraph,
    plan: &MemoryPlan,
    kernels: &[KernelView<'_>],
) -> GraphReport {
    let mut report = verify_graph(g, fused, plan);
    merge(&mut report, check_slot_contracts(g, plan, kernels));
    merge(&mut report, check_kernel_bodies(kernels));
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fusion::fuse;
    use crate::memplan::plan_memory;
    use crate::workloads::Conv2dWorkload;

    fn conv_chain(n: usize) -> Graph {
        let mut g = Graph::new();
        let mut x = g.input(&[1, 8, 8, 8], "data");
        for i in 0..n {
            let w = Conv2dWorkload {
                batch: 1,
                size: 8,
                in_c: 8,
                out_c: 8,
                kernel: 3,
                stride: 1,
                pad: 1,
            };
            x = g.conv2d(x, w, &format!("conv{i}"));
            x = g.relu(x, &format!("relu{i}"));
        }
        g.outputs.push(x);
        g
    }

    #[test]
    fn planner_output_verifies_clean() {
        let g = conv_chain(4);
        for enabled in [true, false] {
            let fused = fuse(&g, enabled);
            let plan = plan_memory(&g, &fused);
            let report = verify_graph(&g, &fused, &plan);
            assert!(!report.has_errors(), "{}", report.render());
            assert!(report.groups_checked > 0);
            assert!(report.pairs_checked > 0 || plan.slot_sizes.len() == report.slots_checked);
        }
    }

    #[test]
    fn aliased_slots_are_refuted_with_op_index() {
        let g = conv_chain(3);
        let fused = fuse(&g, true);
        let mut plan = plan_memory(&g, &fused);
        // Force every materialized tensor into slot 0.
        for s in plan.storage_of.iter_mut().filter(|s| **s != usize::MAX) {
            *s = 0;
        }
        let report = check_memplan(&g, &fused, &plan);
        assert!(report.has_errors(), "{}", report.render());
        let alias = report
            .errors()
            .find(|d| d.message.contains("aliases two live tensors"))
            .expect("alias diagnostic");
        assert!(alias.witness.as_deref().unwrap_or("").starts_with("at op "));
    }

    #[test]
    fn undersized_slot_is_refuted() {
        let g = conv_chain(2);
        let fused = fuse(&g, true);
        let mut plan = plan_memory(&g, &fused);
        plan.slot_sizes[0] = 4; // one f32 where a whole tensor should fit
        let report = check_memplan(&g, &fused, &plan);
        assert!(report
            .errors()
            .any(|d| d.message.contains("bytes but occupant")));
    }

    #[test]
    fn misaligned_slot_is_refuted() {
        let g = conv_chain(1);
        let fused = fuse(&g, true);
        let mut plan = plan_memory(&g, &fused);
        plan.slot_aligns[0] = 1; // f32 occupant needs 4
        let report = check_memplan(&g, &fused, &plan);
        assert!(report
            .errors()
            .any(|d| d.message.contains("requires 4-byte alignment")));
    }

    #[test]
    fn external_consumer_of_intermediate_is_illegal() {
        // conv -> relu fused, but a second graph consumer reads the conv
        // result: the fused intermediate would never materialize.
        let mut g = Graph::new();
        let x = g.input(&[1, 4, 4, 4], "data");
        let w = Conv2dWorkload {
            batch: 1,
            size: 4,
            in_c: 4,
            out_c: 4,
            kernel: 3,
            stride: 1,
            pad: 1,
        };
        let c = g.conv2d(x, w, "conv");
        let r = g.relu(c, "relu");
        let t = g.relu(c, "tap"); // external consumer of conv
        g.outputs.push(r);
        g.outputs.push(t);
        let mut fused = fuse(&g, true);
        // The rule-following pass keeps conv alone; force the illegal
        // merge the checker must reject.
        let cg = fused.group_of[c.0];
        let rg = fused.group_of[r.0];
        assert_ne!(cg, rg);
        let relu_group = fused.groups.remove(rg);
        fused.groups[cg].nodes.extend(relu_group.nodes.clone());
        fused.groups[cg].output = relu_group.output;
        for &m in &relu_group.nodes {
            fused.group_of[m.0] = cg;
        }
        for gi in fused.group_of.iter_mut() {
            if *gi != usize::MAX && *gi > rg {
                *gi -= 1;
            }
        }
        let report = check_fusion(&g, &fused);
        assert!(report.has_errors(), "{}", report.render());
        assert!(report
            .errors()
            .any(|d| d.message.contains("outside the group")));
    }

    #[test]
    fn two_masters_in_one_group_is_illegal() {
        let g = conv_chain(2);
        let mut fused = fuse(&g, true);
        // Merge the two conv groups into one: two complex masters.
        assert!(fused.groups.len() >= 2);
        let second = fused.groups.remove(1);
        for &m in &second.nodes {
            fused.group_of[m.0] = 0;
        }
        for gi in fused.group_of.iter_mut() {
            if *gi != usize::MAX && *gi >= 1 {
                *gi -= 1;
            }
        }
        fused.groups[0].nodes.extend(second.nodes);
        fused.groups[0].output = second.output;
        let report = check_fusion(&g, &fused);
        assert!(report.errors().any(|d| d.message.contains("non-injective")));
    }

    #[test]
    fn shape_mismatch_along_fused_edge_is_illegal() {
        let mut g = Graph::new();
        let x = g.input(&[1, 8], "data");
        let a = g.relu(x, "a");
        // Lie about the shape: an elementwise op whose declared shape
        // disagrees with its fused producer.
        let b = g.add(OpType::Relu, vec![a], vec![1, 16], "b");
        g.outputs.push(b);
        let fused = fuse(&g, true);
        if fused.group_of[a.0] == fused.group_of[b.0] {
            let report = check_fusion(&g, &fused);
            assert!(report.errors().any(|d| d.message.contains("expects shape")));
        }
    }

    #[test]
    fn slot_contract_catches_undersized_plan() {
        use tvm_ir::{DType, Expr, Stmt, Var};
        // A hand-lowered kernel writing 16 elements, with a plan that
        // reserved only 8 elements' worth of bytes for its output.
        let mut g = Graph::new();
        let x = g.input(&[16], "data");
        let r = g.relu(x, "relu");
        g.outputs.push(r);
        let fused = fuse(&g, true);
        let mut plan = plan_memory(&g, &fused);
        let a = Var::new("data", DType::float32());
        let out = Var::new("out", DType::float32());
        let i = Var::int("i");
        let body = Stmt::for_(
            &i,
            0,
            16,
            Stmt::store(&out, i.to_expr(), Expr::load(&a, i.to_expr())),
        );
        let func = LoweredFunc {
            name: "relu_kernel".into(),
            params: vec![a, out],
            param_dtypes: vec![DType::float32(), DType::float32()],
            param_extents: vec![16, 16],
            body,
        };
        let args = [x, r];
        let kernels = [KernelView {
            name: "relu_kernel",
            func: &func,
            args: &args,
        }];
        // Correct plan: contract proven.
        let clean = check_slot_contracts(&g, &plan, &kernels);
        assert!(!clean.has_errors(), "{}", clean.render());
        assert!(clean.contracts_proven >= 2);
        // Undersize the output slot: refuted with a loop-index witness.
        let slot = plan.storage_of[r.0];
        plan.slot_sizes[slot] = 32; // room for 8 of the 16 f32 elements
        let bad = check_slot_contracts(&g, &plan, &kernels);
        assert!(bad.contracts_refuted > 0, "{}", bad.render());
        let d = bad
            .errors()
            .find(|d| d.message.contains("planned capacity exceeded"))
            .expect("contract diagnostic");
        assert!(d.witness.is_some());
    }
}
