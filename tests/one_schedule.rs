//! One schedule per fused group: the kernel a tuning record was measured on
//! is the kernel `tvm::build` ships, alone or under an element-wise tail,
//! and every kernel it ships is legal — in debug and in release.

use std::collections::HashMap;

use tvm::{build, BuildOptions};
use tvm_autotune::{Database, TuningTask};
use tvm_graph::{Graph, Node, OpType};
use tvm_runtime::Module;
use tvm_sim::{arm_a53, estimate, mali_t860, titanx, Target};
use tvm_te::TeError;
use tvm_topi as topi;

fn targets() -> [Target; 3] {
    [titanx(), mali_t860(), arm_a53()]
}

fn task_of(node: &Node, target: &Target) -> Option<TuningTask> {
    match &node.op {
        OpType::Conv2d(w) => Some(topi::conv2d_task(*w, node.dtype, target.clone())),
        OpType::DepthwiseConv2d(w) => Some(topi::depthwise_task(*w, node.dtype, target.clone())),
        OpType::Dense(w) => Some(topi::dense_task(*w, target.clone())),
        _ => None,
    }
}

/// One legal configuration per distinct templated operator of `g`, found
/// by walking the space from a per-task start: the database a build reads,
/// and each task's measured cost.
fn seeded_database(g: &Graph, target: &Target) -> (Database, HashMap<String, f64>) {
    let mut db = Database::new();
    let mut measured = HashMap::new();
    for node in &g.nodes {
        let Some(task) = task_of(node, target) else {
            continue;
        };
        if measured.contains_key(&task.name) {
            continue;
        }
        let size = task.space.size();
        let start = 0x9E37_79B9u64.wrapping_mul(measured.len() as u64 + 1) % size;
        let (cfg, ms) = (0..size)
            .map(|step| task.space.get((start + step) % size))
            .find_map(|cfg| task.measure(&cfg).map(|(_, ms)| (cfg, ms)))
            .unwrap_or_else(|| panic!("{} has no legal configuration", task.name));
        db.add(&task.name, &cfg, ms);
        measured.insert(task.name, ms);
    }
    (db, measured)
}

fn build_with(g: &Graph, target: &Target, db: &Database, no_fusion: bool) -> Module {
    let opts = BuildOptions {
        no_fusion,
        db: Some(db),
    };
    build(g, target, &opts).unwrap_or_else(|e| panic!("{}: {e}", target.name()))
}

/// The simulator's named cost terms of kernel `k`, in cycles.
fn terms(m: &Module, k: usize, target: &Target) -> HashMap<String, f64> {
    estimate(&m.kernels[k].func, target)
        .breakdown
        .into_iter()
        .collect()
}

#[test]
fn the_tuned_kernel_is_the_kernel_that_ships() {
    for (model, g) in [
        ("resnet18", tvm_models::resnet18(32)),
        ("mobilenet", tvm_models::mobilenet(32)),
    ] {
        for target in targets() {
            let (db, measured) = seeded_database(&g, &target);
            let unfused = build_with(&g, &target, &db, true);
            let fused = build_with(&g, &target, &db, false);
            let mut checked = 0;
            for (gi, group) in fused.fused.groups.iter().enumerate() {
                let master = g.node(group.master);
                let Some(task) = task_of(master, &target) else {
                    continue;
                };
                let at = format!("{model} on {}: {}", target.name(), task.name);
                // Alone, the operator is exactly the measured program.
                let alone = unfused.fused.group_of[group.master.0];
                let op = &unfused.kernels[alone];
                assert_eq!(
                    op.est_ms.to_bits(),
                    measured[&task.name].to_bits(),
                    "{at}: built {} ms, tuned {} ms",
                    op.est_ms,
                    measured[&task.name]
                );
                // Fused, it costs no more than the operator plus what its
                // tail costs as kernels of its own. The CPU model splits
                // each cache among a kernel's buffers, so there the cache
                // terms move with the tail's extra operands and the terms
                // the schedule alone decides are compared one by one (5 %
                // covers a tail that a `vec = 0` record leaves scalar).
                let tail: Vec<usize> = group
                    .nodes
                    .iter()
                    .filter(|&&m| m != group.master)
                    .map(|m| unfused.fused.group_of[m.0])
                    .collect();
                if target.is_gpu() {
                    let tail_ms: f64 = tail.iter().map(|&k| unfused.kernels[k].est_ms).sum();
                    let got = fused.kernels[gi].est_ms;
                    assert!(
                        got <= op.est_ms + tail_ms,
                        "{at}: fused {got} ms, operator {} ms + tail {tail_ms} ms",
                        op.est_ms
                    );
                } else {
                    let got = terms(&fused, gi, &target);
                    let op_terms = terms(&unfused, alone, &target);
                    for term in ["compute", "l1", "overhead"] {
                        let tail_cycles: f64 = tail
                            .iter()
                            .map(|&k| terms(&unfused, k, &target)[term])
                            .sum();
                        assert!(
                            got[term] <= 1.05 * (op_terms[term] + tail_cycles),
                            "{at}: fused {term} {} cycles, operator {} + tail {tail_cycles}",
                            got[term],
                            op_terms[term]
                        );
                    }
                }
                checked += 1;
            }
            assert!(checked >= 20, "{model}: only {checked} templated groups");
        }
    }
}

#[test]
fn every_zoo_kernel_passes_the_lowering_verifier() {
    let zoo = [
        ("resnet18", tvm_models::resnet18(32)),
        ("mobilenet", tvm_models::mobilenet(32)),
        ("lstm_lm", tvm_models::lstm_lm(128, 4)),
        ("dqn", tvm_models::dqn()),
        ("dcgan", tvm_models::dcgan_generator()),
    ];
    for (model, g) in &zoo {
        for target in targets() {
            for no_fusion in [false, true] {
                let report = build_with(g, &target, &Database::new(), no_fusion).verify();
                assert!(
                    !report.has_errors(),
                    "{model} on {} (no_fusion = {no_fusion}):\n{}",
                    target.name(),
                    report.render()
                );
            }
        }
    }
}

/// A record no tuner could have written — ResNet C7 under a 16 x 14 x 7
/// thread tile, 1,568 threads to the block — is an `Err` from the build,
/// the one its task's builder gives: both ask `Target::check_limits`.
#[test]
fn an_over_limit_record_is_a_build_error() {
    let w = topi::resnet18_convs()[6];
    let mut g = Graph::new();
    let data = g.input(&[1, w.in_c, w.size, w.size], "data");
    let conv = g.conv2d(data, w, "c7");
    g.outputs.push(conv);
    for target in [titanx(), mali_t860()] {
        let task = task_of(g.node(conv), &target).expect("a conv2d task");
        let cfg = task.space.get(task.space.index_near(&[
            ("tile_oc", 16),
            ("tile_oh", 14),
            ("tile_ow", 7),
            ("use_shared", 0),
        ]));
        let threads = cfg.get("tile_oc") * cfg.get("tile_oh") * cfg.get("tile_ow");
        assert_eq!(threads, 1568, "{}", cfg.summary());
        let Err(TeError::Msg(limit)) = (task.builder)(&cfg) else {
            panic!("the tuner's builder accepts {}", cfg.summary());
        };
        assert_eq!(limit, "too many threads: 1568");
        let mut db = Database::new();
        db.add(&task.name, &cfg, 0.5);
        let opts = BuildOptions {
            no_fusion: false,
            db: Some(&db),
        };
        let Err(TeError::Msg(err)) = build(&g, &target, &opts) else {
            panic!("the build accepts {}", cfg.summary());
        };
        assert_eq!(
            err,
            format!("kernel `fused_conv2d` on {}: {limit}", target.name())
        );
    }
}
