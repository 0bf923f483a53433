//! `tvm-topi` — the tensor operator inventory.
//!
//! Declarative compute definitions for every operator the evaluation
//! workloads need ([`nn`]), per-target schedule templates with declared
//! knobs and tuning-task constructors ([`schedules`]), modeled
//! vendor-library baselines ([`baselines`]) and the ultra-low-precision
//! bit-serial operators ([`bitserial`]). The Table 2 workload descriptors
//! ([`workloads`]) belong to `tvm-graph`, whose nodes carry them; they are
//! re-exported here under their old paths.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod baselines;
pub mod bitserial;
pub mod nn;
pub mod schedules;
pub mod winograd;

pub use tvm_graph::workloads;

pub use baselines::{vendor_conv2d_ms, vendor_dense_ms, vendor_depthwise_ms, Library};
pub use nn::{
    add, batch_norm, bias_add, conv2d, conv2d_compute, conv2d_transpose, conv2d_transpose_as_conv,
    conv2d_transpose_compute, dense, dense_compute, depthwise_conv2d, depthwise_conv2d_compute,
    flatten, global_avg_pool, max_pool2d, multiply, pad_spatial, relu, reshape, sigmoid_t, softmax,
    tanh_t, Conv2dOp,
};
pub use schedules::{
    apply_conv2d_schedule, apply_dense_schedule, apply_dense_schedule_with_tail,
    apply_depthwise_schedule, conv2d_sketch_task, conv2d_space, conv2d_task, cooperative_load,
    default_config, dense_sketch_task, dense_space, dense_task, depthwise_space, depthwise_task,
    schedule_injective, task_name,
};
pub use winograd::{
    transform_weights_host, winograd_conv2d, winograd_space, winograd_task, WinogradOp,
};
pub use workloads::{
    dqn_convs, mobilenet_dwconvs, resnet18_convs, Conv2dWorkload, DenseWorkload,
    DepthwiseConv2dWorkload,
};
