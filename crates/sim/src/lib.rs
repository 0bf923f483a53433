//! `tvm-sim` — architectural performance models of the evaluation hardware.
//!
//! The paper measures on a Titan X, an ARM Cortex-A53 and a Mali GPU; this
//! crate substitutes analytical simulators for that silicon (see DESIGN.md
//! for the substitution argument). [`analysis`] statically summarizes a
//! lowered loop program (access counts, per-depth footprints, strides —
//! the same statistics the paper's Fig. 13 cost-model features are built
//! from); [`cost`] turns a summary into estimated cycles on a
//! [`target::Target`].

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod analysis;
pub mod cost;
pub mod fault;
pub mod target;

pub use analysis::{analyze, AccessRecord, ProgramAnalysis};
pub use cost::{estimate, estimate_analysis, estimate_with, Cost, SimOptions};
pub use fault::{mix64, Fault, FaultPlan, FaultRates};
pub use target::{arm_a53, mali_t860, titanx, CacheLevel, CpuSpec, GpuSpec, LimitExceeded, Target};
