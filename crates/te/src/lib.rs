//! `tvm-te` — the tensor expression language and schedule layer (§4).
//!
//! Operators are declared with [`placeholder`] / [`compute`] index formulas;
//! a [`Schedule`] then maps the declaration to low-level code through
//! transformation primitives (loop tiling, thread binding, memory scopes,
//! tensorization, virtual threads), and [`lower()`](lower::lower) produces the final loop
//! program.
//!
//! ```
//! use tvm_te::{placeholder, compute, create_schedule, lower};
//! use tvm_ir::{DType, Interp};
//!
//! let a = placeholder(&[4], DType::float32(), "A");
//! let b = compute(&[4], "B", |i| a.at(&[i[0].clone()]) * 2);
//! let mut s = create_schedule(&[b.clone()]);
//! let axes = b.op.axes();
//! let (_o, _i) = s.split(&b, &axes[0], 2).expect("valid split");
//! let f = lower(&s, &[a, b], "double").expect("lowers");
//! let mut bufs = vec![vec![1.0f32, 2.0, 3.0, 4.0], vec![0.0; 4]];
//! Interp::new().run_f32(&f, &mut bufs).expect("runs");
//! assert_eq!(bufs[1], vec![2.0, 4.0, 6.0, 8.0]);
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod lower;
pub mod rewrite;
pub mod schedule;
pub mod tensor;
pub mod tensorize;
pub mod vthread;

pub use lower::{
    emit_planned, lower, lower_stats, lower_with, mark_points, plan_schedule, relabel_loops,
    LowerOptions, LowerPlan, LowerStats, PlanCache, TeError,
};
pub use schedule::{
    create_schedule, Attach, IterAttr, IterRelation, LoopAnn, Schedule, ScheduleError, Stage,
};
pub use tensor::{
    collect_reads, compute, compute_with_axes, max_reduce, noted_reads, placeholder, reduce_axis,
    sum, Combiner, ComputeBody, ComputeSpec, IterKind, IterVar, OpId, OpKind, OpNode, OpRef,
    Tensor,
};
pub use tensorize::{BufferSlice, TensorIntrin, TensorIntrinImpl, TensorIntrinNode};
