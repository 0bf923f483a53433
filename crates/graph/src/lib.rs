//! `tvm-graph` — the computational graph IR and high-level optimizations
//! (§3): operator fusion by pattern category, static memory planning with
//! buffer reuse, constant folding, and data-layout transformation.

pub mod fusion;
pub mod ir;
pub mod layout;
pub mod memplan;
pub mod verify;

pub use fusion::{fuse, FusedGraph, Group, GroupKey};
pub use ir::{Graph, Node, NodeId, OpType, Pattern};
pub use layout::{cpu_preference, transform_layouts};
pub use memplan::{plan_memory, MemoryPlan};
pub use verify::{verify_build, verify_graph, GraphReport, KernelView};
