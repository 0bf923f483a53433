//! `tvm` — the facade crate of the tvm-rs stack: an automated end-to-end
//! optimizing compiler for deep learning (Chen et al., OSDI 2018),
//! reproduced in Rust against simulated hardware (see DESIGN.md).
//!
//! The §2 end-user flow:
//!
//! ```
//! use tvm::prelude::*;
//!
//! // Import a model (stands in for from_keras / ONNX).
//! let graph = tvm_models::dqn();
//! // Pick a target and build a deployable module.
//! let target = tvm::target::arm_a53();
//! let module = tvm::compiler::build(&graph, &target, &Default::default()).unwrap();
//! // Deploy.
//! let mut m = GraphExecutor::new(module);
//! m.set_input("data", NDArray::zeros(&[1, 4, 84, 84])).unwrap();
//! let ms = m.run().unwrap();
//! assert!(ms > 0.0);
//! assert_eq!(m.get_output(0).unwrap().shape, vec![1, 18]);
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod compiler;
pub mod frontend;

/// Compilation / simulation targets (re-exported from `tvm-sim`).
pub mod target {
    pub use tvm_sim::{arm_a53, mali_t860, titanx, CpuSpec, GpuSpec, Target};
    pub use tvm_vdla::VdlaSpec;
}

/// Common imports for end users.
pub mod prelude {
    pub use crate::compiler::{build, BuildOptions};
    pub use crate::frontend::from_json;
    pub use crate::target::Target;
    pub use tvm_autotune::{tune, Database, TuneOptions, TunerKind};
    pub use tvm_runtime::{GraphExecutor, Module, NDArray};
}

pub use compiler::{
    build, build_group, build_with_report, BuildOptions, BuildReport, GroupDecision,
};
pub use frontend::from_json;
