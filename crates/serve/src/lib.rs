//! `tvm-serve` — multi-tenant inference serving on top of the graph
//! runtime: the layer the paper stops short of, and the ROADMAP's
//! "serving heavy traffic from millions of users" gap.
//!
//! The service is a deterministic discrete-event simulation over a
//! virtual-millisecond clock, matching the repo-wide idiom (decisions are
//! serial; device-level execution is delegated to the fault-tolerant
//! [`tvm_autotune::pool::Tracker`]): requests flow through
//!
//! ```text
//! admission → per-tenant queues → DRR dispatch → dynamic batcher
//!          → artifact cache (one compile and one executor each)
//!          → scheduler lanes → Tracker (retries/quarantine)
//!          → the cached GraphExecutor (bind, run) → responses
//! ```
//!
//! Invariants the test suite enforces:
//! - **Bit-exact batching**: a batched execution returns exactly the bits
//!   one-at-a-time execution would, for every coalescing policy.
//! - **Typed failure, never corruption**: every non-OK outcome is a
//!   [`ServeError`]; chaos faults shift latency and shed rate, never bits.
//! - **Weighted fairness**: a saturating tenant cannot starve a polite
//!   one past its configured share.
//! - **Crash-safe rollout state**: the version registry's journal
//!   recovers from torn tails to the last committed lifecycle transition.
//!   Compiled modules are a memo of `tvm::build`, never persisted.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod batch;
pub mod cache;
pub mod model;
pub mod service;
pub mod tenancy;
pub mod traffic;
pub mod version;

pub use batch::{bucket_for, BatchPolicy};
pub use cache::{ArtifactCache, CacheStats};
pub use model::{Model, ALL_MODELS};
pub use service::{
    row_digest, HedgePolicy, HedgeStats, Request, ResponseRecord, ServeOutcome, Service,
    ServiceConfig, ServiceStats,
};
pub use tenancy::{AdmissionConfig, TenantConfig};
pub use traffic::{generate, BurstSpec, TenantTraffic, TrafficSpec};
pub use version::{
    LifecycleOp, LifecycleRecord, ModelVersion, RolloutConfig, RolloutStats, VersionRegistry,
};

use tvm_runtime::RuntimeError;

/// Every way a request can fail. Serving never panics on a request path
/// and never returns corrupted data: a request either completes with the
/// exact bits a standalone execution would produce, or it gets one of
/// these.
#[derive(Clone, Debug)]
pub enum ServeError {
    /// The request names a tenant the service was not configured with.
    UnknownTenant(String),
    /// The tenant's bounded queue is full (per-tenant backpressure).
    QueueFull {
        /// Tenant whose queue overflowed.
        tenant: String,
        /// The configured queue capacity.
        cap: usize,
    },
    /// The global outstanding-request limit was hit (load shedding).
    Overloaded {
        /// Requests currently admitted but not yet completed.
        outstanding: usize,
        /// The configured global cap.
        cap: usize,
    },
    /// Compilation of the model at the required batch bucket failed.
    CompileFailed {
        /// Model registry name.
        model: String,
        /// Compiler error text.
        detail: String,
    },
    /// The device pool exhausted its retry budget executing the batch.
    DeviceFailure {
        /// Kernel that failed.
        kernel: String,
        /// Measurement error text.
        detail: String,
    },
    /// Every device in the pool is dead; nothing can be served.
    NoUsableDevices,
    /// The functional execution itself reported a typed runtime error.
    Runtime(RuntimeError),
    /// The version registry's journal could not be read or written.
    RegistryIo(String),
    /// Shed under brownout: the tenant exceeded its weight-proportional
    /// share of outstanding work while the service was in overload.
    Brownout {
        /// Tenant whose share was exhausted.
        tenant: String,
        /// The weight-proportional outstanding share it was held to.
        share: usize,
    },
    /// A hedged re-execution disagreed with the primary on output bits:
    /// one replica is silently diverging, so neither answer is served.
    SilentDivergence {
        /// Model whose replicas disagreed.
        model: String,
    },
    /// A model-lifecycle state error (rollout already in progress,
    /// promote/rollback without a candidate).
    Rollout(String),
}

impl ServeError {
    /// Short stable tag for reports and bench JSON. Every rejected
    /// response carries its typed error, so shed reasons are counted from
    /// the responses themselves.
    pub fn kind(&self) -> &'static str {
        match self {
            ServeError::UnknownTenant(_) => "unknown_tenant",
            ServeError::QueueFull { .. } => "queue_full",
            ServeError::Overloaded { .. } => "overloaded",
            ServeError::CompileFailed { .. } => "compile_failed",
            ServeError::DeviceFailure { .. } => "device_failure",
            ServeError::NoUsableDevices => "no_usable_devices",
            ServeError::Runtime(_) => "runtime",
            ServeError::RegistryIo(_) => "registry_io",
            ServeError::Brownout { .. } => "brownout",
            ServeError::SilentDivergence { .. } => "silent_divergence",
            ServeError::Rollout(_) => "rollout",
        }
    }

    /// True for admission-control rejections (shed load), as opposed to
    /// execution-side failures.
    pub fn is_shed(&self) -> bool {
        matches!(
            self,
            ServeError::QueueFull { .. }
                | ServeError::Overloaded { .. }
                | ServeError::Brownout { .. }
        )
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownTenant(t) => write!(f, "unknown tenant `{t}`"),
            ServeError::QueueFull { tenant, cap } => {
                write!(f, "tenant `{tenant}` queue full (cap {cap})")
            }
            ServeError::Overloaded { outstanding, cap } => {
                write!(
                    f,
                    "service overloaded ({outstanding} outstanding, cap {cap})"
                )
            }
            ServeError::CompileFailed { model, detail } => {
                write!(f, "compiling `{model}` failed: {detail}")
            }
            ServeError::DeviceFailure { kernel, detail } => {
                write!(f, "device failure running `{kernel}`: {detail}")
            }
            ServeError::NoUsableDevices => write!(f, "all devices dead"),
            ServeError::Runtime(e) => write!(f, "runtime error: {e}"),
            ServeError::RegistryIo(e) => write!(f, "version registry journal I/O: {e}"),
            ServeError::Brownout { tenant, share } => {
                write!(f, "brownout: tenant `{tenant}` over its share of {share}")
            }
            ServeError::SilentDivergence { model } => {
                write!(f, "replica outputs diverged for `{model}`")
            }
            ServeError::Rollout(e) => write!(f, "rollout: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<RuntimeError> for ServeError {
    fn from(e: RuntimeError) -> ServeError {
        ServeError::Runtime(e)
    }
}

/// The only file the service touches is the version registry's journal.
impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> ServeError {
        ServeError::RegistryIo(e.to_string())
    }
}
