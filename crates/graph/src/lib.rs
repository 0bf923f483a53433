//! `tvm-graph` — the computational graph IR and high-level optimizations
//! (§3): operator fusion by pattern category, static memory planning with
//! buffer reuse, and data-layout transformation.
//!
//! It also owns the operator shape descriptors a graph node carries
//! ([`workloads`]: conv2d, depthwise conv2d and dense, plus the paper's
//! Table 2 lists). `tvm-topi` re-exports them, so the graph layer, the
//! graph runtime and the model zoo link no compiler or tuner crate.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod fusion;
pub mod ir;
pub mod layout;
pub mod memplan;
pub mod verify;
pub mod workloads;

pub use fusion::{fuse, FusedGraph, Group, GroupKey};
pub use ir::{Consumers, Graph, Node, NodeId, OpType, Pattern};
pub use layout::{cpu_preference, transform_layouts};
pub use memplan::{plan_memory, MemoryPlan};
pub use verify::{verify_build, verify_graph, GraphReport, KernelView};
pub use workloads::{
    dqn_convs, mobilenet_dwconvs, resnet18_convs, Conv2dWorkload, DenseWorkload,
    DepthwiseConv2dWorkload,
};
