//! The tensor-expression layer notes every tensor a compute body reads in a
//! per-thread context so `compute` can resolve the reads. The context used
//! to hold those tensors strongly and never drop one, so a thread that kept
//! building (a `tvm-serve` worker) kept every operator body of every model
//! it had ever compiled.

use tvm::BuildOptions;
use tvm_ir::DType;
use tvm_te::{compute, noted_reads, placeholder};

#[test]
fn a_thread_that_keeps_building_keeps_one_builds_tensors() {
    let graph = tvm_models::resnet18(32);
    let target = tvm::target::arm_a53();
    let build = || tvm::build(&graph, &target, &BuildOptions::default()).expect("builds");

    // A tensor read before the builds and alive across them still resolves.
    let kept = placeholder(&[4], DType::float32(), "kept");
    let read = kept.at(&[tvm_ir::Expr::int(0)]);

    drop(build());
    let after_one = noted_reads();
    for _ in 0..49 {
        drop(build());
    }
    // Holding strongly, one build left 380 entries behind and fifty left
    // 19,001. Held weakly, the context is swept whenever it doubles, so it
    // stays within twice what is alive at once (64 at least).
    assert!(
        noted_reads() <= after_one.max(64),
        "{} entries after 50 builds, {after_one} after one",
        noted_reads()
    );
    let late = compute(&[4], "late", |_| read.clone());
    assert_eq!(late.op.input_tensors()[0].op_id(), kept.op_id());
}
