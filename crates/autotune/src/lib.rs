//! `tvm-autotune` — the ML-based automated schedule optimizer (§5).
//!
//! * [`config`] — schedule-space templates with declared knobs (§5.1);
//! * [`features`] — loop-program features: per-buffer access counts and
//!   reuse ratios per loop level, annotation one-hots (Fig. 13);
//! * [`gbt`] — from-scratch gradient-boosted trees with regression and
//!   pairwise-rank objectives (§5.2);
//! * [`tuner`] — the one search loop of Fig. 11 (propose → measure →
//!   journal → fit), the per-run memo cache and the online cost model;
//!   each [`TunerKind`] — GBT + simulated annealing, model-guided
//!   evolution, and the random / genetic / predefined baselines of
//!   Fig. 12 and Table 1 — contributes only a proposer (§5.3);
//! * [`pool`] — the RPC device-pool control flow against simulated
//!   devices, with fault-tolerant scheduling (timeouts, retries,
//!   quarantine, replica verification) under injected chaos (§5.4);
//!   observed through counters and health snapshots, not a transcript;
//! * [`log`] — the one crash-safe, checksummed append-only log, generic
//!   over a record codec (the tuner's journal here; `tvm-serve`'s
//!   lifecycle journal is its other client);
//! * [`db`] — the tuning-log database and journal: the tuner's line
//!   format (meta / signature / trial) over [`log`];
//! * [`planned`] — the one planned-task constructor behind template and
//!   sketch tasks alike: structural plan cache, annotation knobs,
//!   cooperative loads, hardware-limit validation;
//! * [`sketch`] — automatic sketch generation: structural schedule
//!   derivations enumerated from the tensor-expression DAG itself, no
//!   hand-written template required;
//! * [`transfer`] — journal-backed transfer: seed a new task's search
//!   from its nearest feature-space neighbor's best configurations;
//! * [`error`] — typed errors for the request/measure paths.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod config;
pub mod db;
pub mod error;
pub mod features;
pub mod gbt;
pub mod log;
pub mod planned;
pub mod pool;
mod propose;
pub mod sketch;
pub mod transfer;
pub mod tuner;

pub use config::{ConfigEntity, ConfigSpace, Knob};
pub use db::{Database, DbRecord, Journal, RecoveryReport};
pub use error::TuneError;
pub use features::{
    extract, extract_analysis, invariant_features, signature_distance, task_signature, FEATURE_LEN,
    INVARIANT_FEATURES, TASK_SIG_LEN,
};
pub use gbt::{fit, fit_more, pairwise_accuracy, Gbt, GbtParams, Objective};
pub use pool::{DeviceHealth, JobOutcome, MeasureError, PoolStats, RetryPolicy, Tracker};
pub use sketch::{sketch_space_size, sketch_task, SketchTask};
pub use transfer::{map_config, warm_start_seeds};
pub use tuner::{
    tune, tune_with, TemplateBuilder, TrialRecord, TuneOptions, TuneResult, TuneStats, TunerKind,
    TuningTask, WorkLog, WorkPhase,
};
