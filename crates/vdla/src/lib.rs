//! `tvm-vdla` — the Vanilla Deep Learning Accelerator (§6.4).
//!
//! A minimalist TPU-like decoupled access-execute accelerator: DMA load and
//! store engines, a 16×16 8-bit GEMM core with 32-bit accumulators, on-chip
//! SRAM scopes and dependence-token queues between pipeline stages. The
//! crate provides the [`spec`] (hardware parameters matching the paper's
//! PYNQ prototype), the [`isa`] trace generator that unrolls a DAE-lowered
//! loop program into an instruction stream, the [`des`] discrete-event
//! pipeline simulator (the "FPGA"), and the [`intrin`] tensor intrinsic +
//! functional models used by tensorized schedules.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod des;
pub mod intrin;
pub mod isa;
pub mod spec;

pub use des::{simulate, simulate_monolithic, DesError, VdlaRunResult};
pub use intrin::{gemm_intrin, register_interp};
pub use isa::{trace, IsaError, VdlaInstr};
pub use spec::VdlaSpec;

/// Compiles-and-runs: generates the instruction trace of a DAE-lowered
/// function and simulates it on the pipeline.
pub fn run_timed(
    func: &tvm_ir::LoweredFunc,
    spec: &VdlaSpec,
) -> Result<VdlaRunResult, Box<dyn std::error::Error>> {
    let stream = trace(func)?;
    Ok(simulate(&stream, spec)?)
}

/// Compiles-and-runs on the monolithic pipeline — the "without latency
/// hiding" baseline of Fig. 10.
pub fn run_timed_monolithic(
    func: &tvm_ir::LoweredFunc,
    spec: &VdlaSpec,
) -> Result<VdlaRunResult, Box<dyn std::error::Error>> {
    let stream = trace(func)?;
    Ok(simulate_monolithic(&stream, spec))
}
