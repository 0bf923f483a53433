//! A build compiles one kernel per distinct group structure and hands it to
//! every repeat. Each repeat is rebuilt here on its own, through the same
//! `build_group` a build calls for a first occurrence, and must come out
//! the same in everything but buffer names: cost bits, parameter types and
//! extents, and interpreter output bit for bit.

use std::collections::HashMap;
use std::sync::Arc;

use tvm::{build_group, build_with_report, BuildOptions};
use tvm_graph::{Graph, GroupKey};
use tvm_ir::Interp;
use tvm_runtime::{CompiledGroup, NDArray};
use tvm_sim::{arm_a53, mali_t860, titanx, Target};

fn cost_bits(k: &CompiledGroup) -> [u64; 4] {
    [k.est_ms, k.cost.cycles, k.cost.flops, k.cost.dram_bytes].map(f64::to_bits)
}

/// Runs `k` on inputs seeded by parameter position; the output's bits.
fn run(k: &CompiledGroup) -> Vec<u32> {
    let mut bufs: Vec<Vec<f32>> = k
        .func
        .param_extents
        .iter()
        .enumerate()
        .map(|(i, &n)| NDArray::seeded(&[n as i64], i as u64 + 1).data)
        .collect();
    let out = bufs.len() - 1;
    bufs[out].fill(0.0);
    Interp::new()
        .run_f32(&k.func, &mut bufs)
        .unwrap_or_else(|e| panic!("{}: {e}", k.name));
    bufs[out].iter().map(|v| v.to_bits()).collect()
}

fn check(tag: &str, graph: &Graph, target: &Target, no_fusion: bool) -> (usize, usize) {
    let opts = BuildOptions {
        no_fusion,
        ..Default::default()
    };
    let (module, report) = build_with_report(graph, target, &opts).expect("builds");
    assert_eq!(report.decisions.len(), module.kernels.len(), "{tag}");
    let keys: Vec<GroupKey> = module
        .fused
        .groups
        .iter()
        .map(|grp| GroupKey::of(graph, grp).0)
        .collect();
    let mut repeats = 0;
    // Output of each first occurrence, run once however often it repeats.
    let mut shared_out: HashMap<usize, Vec<u32>> = HashMap::new();
    for (i, shared) in module.kernels.iter().enumerate() {
        let first = keys.iter().position(|k| *k == keys[i]).expect("own key");
        let same_cell = Arc::ptr_eq(&shared.program, &module.kernels[first].program);
        assert!(same_cell, "{tag}: kernel {i} does not share kernel {first}");
        if first == i {
            continue;
        }
        repeats += 1;
        let alone =
            build_group(graph, &module.fused.groups[i], target, &opts).expect("builds alone");
        let at = format!(
            "{tag}: kernel {i} `{}` (first built as {first})",
            shared.name
        );
        assert_eq!(alone.name, shared.name, "{at}");
        assert_eq!(alone.args, shared.args, "{at}");
        assert_eq!(cost_bits(&alone), cost_bits(shared), "{at}");
        assert_eq!(alone.func.param_dtypes, shared.func.param_dtypes, "{at}");
        assert_eq!(alone.func.param_extents, shared.func.param_extents, "{at}");
        let want = shared_out.entry(first).or_insert_with(|| run(shared));
        assert_eq!(&run(&alone), want, "{at}");
    }
    assert_eq!(
        module.distinct_kernels(),
        module.kernels.len() - repeats,
        "{tag}"
    );
    (module.kernels.len(), repeats)
}

fn check_model(name: &str, graph: &Graph) {
    for (tn, target) in [
        ("titanx", titanx()),
        ("arm_a53", arm_a53()),
        ("mali_t860", mali_t860()),
    ] {
        for no_fusion in [false, true] {
            let tag = format!("{name}/{tn}{}", if no_fusion { "-nofuse" } else { "" });
            let (kernels, repeats) = check(&tag, graph, &target, no_fusion);
            // The zoo models are built from repeated blocks; a run that finds
            // no repeat has stopped testing the sharing path.
            assert!(repeats > 0, "{tag}: no repeat among {kernels} kernels");
        }
    }
}

#[test]
fn resnet18_repeats_match_their_unshared_rebuild() {
    check_model("resnet18@32", &tvm_models::resnet18(32));
}

#[test]
fn mobilenet_repeats_match_their_unshared_rebuild() {
    check_model("mobilenet@32", &tvm_models::mobilenet(32));
}

#[test]
fn lstm_repeats_match_their_unshared_rebuild() {
    check_model("lstm_lm(128,4)", &tvm_models::lstm_lm(128, 4));
}
