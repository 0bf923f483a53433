//! The serving engine: a deterministic virtual-time event loop gluing
//! admission, fair dispatch, dynamic batching, the artifact cache, the
//! fault-tolerant device pool, and the model lifecycle together.
//!
//! Time is virtual milliseconds (the same clock the device simulator
//! uses), so a whole overload experiment runs in microseconds of wall
//! time and two runs with the same seed are bit-identical regardless of
//! thread count: every scheduling decision happens on the single event
//! loop, and the only parallel code (inside the tracker and executor) is
//! pure and order-preserving.
//!
//! Three robustness layers ride on that loop:
//!
//! - **Blue/green rollout** ([`Service::begin_rollout`]): tenants are
//!   always served the *stable* version's bits; the candidate executes
//!   only in canary shadow, and a health gate (digest agreement +
//!   candidate-side failure rates) decides promote-or-rollback as a
//!   deterministic function of the virtual-time window. A corrupted
//!   candidate therefore rolls back with zero wrong answers served.
//! - **Deadline-aware scheduling**: requests carry deadlines; flushes
//!   happen early enough to meet the tightest queued deadline, provably
//!   late requests are shed as [`ServeOutcome::DeadlineExceeded`], and
//!   sustained overload past the brownout watermark shrinks batch delay
//!   and sheds lowest-weight work first.
//! - **Hedged execution**: a batch straggling past an adaptive threshold
//!   (from the running latency distribution) re-issues on a second
//!   healthy device; first result wins, and the replicas' output digests
//!   must agree — silent divergence is refused, never served.
//!
//! A batch reaches the device pool only as a *replica* (`Service::replica`):
//! its module's kernels run as jobs on the pool, and, if every job
//! succeeded, the batch executes on the device that ran them. The primary,
//! the hedge, the canary candidate and the canary cross-check are each one
//! replica, dispatched in that order, and `disagreements` is the one
//! comparison of two replicas' rows.

use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;

use tvm::target::arm_a53;
use tvm_autotune::db::crc32;
use tvm_autotune::{Database, RetryPolicy, Tracker};
use tvm_sim::{mix64, FaultPlan};

use crate::batch::{bucket_for, slice_rows, stack_rows, BatchPolicy};
use crate::cache::{ArtifactCache, CacheStats};
use crate::model::{Model, ALL_MODELS};
use crate::tenancy::{AdmissionConfig, TenantConfig, TenantQueues};
use crate::version::{ModelVersion, RolloutConfig, RolloutStats, VersionRegistry};
use crate::ServeError;

/// Service-time samples kept per model for latency estimation (deadline
/// feasibility, hedge thresholds).
const LATENCY_WINDOW: usize = 64;

/// One inference request.
#[derive(Clone, Debug)]
pub struct Request {
    /// Caller-chosen id, echoed in the response.
    pub id: u64,
    /// Routing key into the tenant set.
    pub tenant: String,
    /// Which model to run.
    pub model: Model,
    /// One input row (`model.row_len()` elements).
    pub payload: Vec<f32>,
    /// Arrival time on the virtual clock.
    pub arrival_ms: f64,
    /// Absolute completion deadline on the virtual clock;
    /// `f64::INFINITY` means no deadline.
    pub deadline_ms: f64,
}

/// How a request ended.
#[derive(Clone, Debug)]
pub enum ServeOutcome {
    /// Completed; `digest` is a CRC-32 over the output row's bits.
    Ok {
        /// Checksum of the exact output bits.
        digest: u32,
        /// The output row itself (kept only when
        /// [`ServiceConfig::keep_outputs`] is set).
        output: Option<Vec<f32>>,
    },
    /// Shed because it provably could not (or already did not) meet its
    /// deadline — a late answer is a wrong answer for deadline traffic.
    DeadlineExceeded {
        /// The deadline the request carried.
        deadline_ms: f64,
    },
    /// Rejected or failed with a typed error — never silent corruption.
    Rejected(ServeError),
}

impl ServeOutcome {
    /// True for completed requests.
    pub fn is_ok(&self) -> bool {
        matches!(self, ServeOutcome::Ok { .. })
    }
}

/// The service's record of one request's fate.
#[derive(Clone, Debug)]
pub struct ResponseRecord {
    /// Request id.
    pub id: u64,
    /// Tenant the request belonged to.
    pub tenant: String,
    /// Model requested.
    pub model: Model,
    /// Arrival time.
    pub arrival_ms: f64,
    /// Completion (or rejection) time.
    pub done_ms: f64,
    /// How many requests shared the execution (0 for rejections).
    pub batch_size: usize,
    /// The compile bucket the batch ran at (0 for rejections).
    pub bucket: i64,
    /// Outcome.
    pub outcome: ServeOutcome,
}

impl ResponseRecord {
    /// Queue + batching + execution latency.
    pub fn latency_ms(&self) -> f64 {
        self.done_ms - self.arrival_ms
    }
}

/// Per-tenant outcome counts.
#[derive(Clone, Debug, Default)]
pub struct TenantStats {
    /// Tenant name.
    pub name: String,
    /// Requests completed.
    pub ok: u64,
    /// Requests shed by admission control (brownout included).
    pub shed: u64,
    /// Requests failed during execution.
    pub err: u64,
    /// Requests shed for missing their deadline.
    pub deadline: u64,
    /// Worst queue wait a dispatched request saw.
    pub max_wait_ms: f64,
}

/// Hedged-execution policy. Off by default: hedging spends device time
/// to buy tail latency, which only pays when the pool has spare healthy
/// capacity.
#[derive(Clone, Copy, Debug)]
pub struct HedgePolicy {
    /// Master switch.
    pub enabled: bool,
    /// Minimum latency samples for a model before hedging may trigger
    /// (an adaptive threshold needs a distribution to adapt to).
    pub min_samples: usize,
    /// Quantile of the latency window the threshold derives from.
    pub quantile: f64,
    /// Multiplier on that quantile: hedge when the primary's service
    /// time exceeds `quantile(q) * factor`.
    pub factor: f64,
    /// Floor for the threshold (virtual ms), so a very fast model does
    /// not hedge on noise.
    pub min_threshold_ms: f64,
}

impl Default for HedgePolicy {
    fn default() -> HedgePolicy {
        HedgePolicy {
            enabled: false,
            min_samples: 12,
            quantile: 0.95,
            factor: 1.5,
            min_threshold_ms: 0.5,
        }
    }
}

/// Hedged-execution counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct HedgeStats {
    /// Secondary executions issued.
    pub issued: u64,
    /// Hedges whose secondary completed before the straggling primary.
    pub wins: u64,
    /// Hedges whose replicas disagreed on output bits (the whole batch
    /// is refused as [`ServeError::SilentDivergence`]).
    pub divergences: u64,
}

/// Aggregate statistics for one [`Service::run`].
#[derive(Clone, Debug, Default)]
pub struct ServiceStats {
    /// Requests completed.
    pub completed: u64,
    /// Requests shed by admission control.
    pub shed: u64,
    /// Requests failed during execution (typed errors).
    pub failed: u64,
    /// Requests shed for missing their deadline.
    pub deadline_exceeded: u64,
    /// Requests shed specifically by brownout share limits.
    pub brownout_sheds: u64,
    /// Virtual time spent in brownout mode.
    pub brownout_ms: f64,
    /// Batched executions dispatched.
    pub batches: u64,
    /// Sum of batch sizes (mean batch = `batch_size_sum / batches`).
    pub batch_size_sum: u64,
    /// Virtual time of the last committed response.
    pub horizon_ms: f64,
    /// Artifact-cache traffic.
    pub cache: CacheStats,
    /// Device-pool fault counters.
    pub pool: tvm_autotune::PoolStats,
    /// Rollout/canary counters.
    pub rollout: RolloutStats,
    /// Hedged-execution counters.
    pub hedge: HedgeStats,
    /// Per-tenant breakdown, in tenant order.
    pub per_tenant: Vec<TenantStats>,
}

/// Service configuration.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// The tenant set (dispatch order).
    pub tenants: Vec<TenantConfig>,
    /// Global admission limits.
    pub admission: AdmissionConfig,
    /// Dynamic-batching policy.
    pub batch: BatchPolicy,
    /// Simulated devices in the pool (dispatch lanes).
    pub devices: usize,
    /// Retry/quarantine policy for the pool.
    pub retry: RetryPolicy,
    /// Chaos plan injected into the pool.
    pub faults: FaultPlan,
    /// Tuning database steering compiles (owned; serving outlives tuning).
    pub db: Option<Database>,
    /// Keep output rows in responses (tests); digests are always kept.
    pub keep_outputs: bool,
    /// Journal path for the version registry; `None` = in-memory only.
    pub version_path: Option<PathBuf>,
    /// Canary/rollout policy.
    pub rollout: RolloutConfig,
    /// Hedged-execution policy.
    pub hedge: HedgePolicy,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            tenants: vec![TenantConfig::new("default")],
            admission: AdmissionConfig::default(),
            batch: BatchPolicy::default(),
            devices: 2,
            retry: serving_retry_policy(),
            faults: FaultPlan::none(),
            db: None,
            keep_outputs: false,
            version_path: None,
            rollout: RolloutConfig::default(),
            hedge: HedgePolicy::default(),
        }
    }
}

/// A retry policy with serving-scale budgets: millisecond timeouts,
/// fast backoff, an eager circuit breaker, and short probation so the
/// pool recovers within one burst.
pub fn serving_retry_policy() -> RetryPolicy {
    RetryPolicy {
        timeout_ms: 5.0,
        max_attempts: 3,
        backoff_base_ms: 0.25,
        quarantine_after: 2,
        probation_dispatches: 6,
        replicas: 1,
        ..RetryPolicy::default()
    }
}

struct InFlight {
    done_at: f64,
    lane: usize,
    records: Vec<ResponseRecord>,
}

/// One run of a batch on the pool, and its rows: see [`Service::replica`].
struct Replica {
    /// Charged service time: run times, backoff, and the timeout budget
    /// of every failed attempt.
    ms: f64,
    /// The device that produced the accepted result.
    device: Option<usize>,
    /// Kernels that failed outright.
    failed: u64,
    /// The batch's output rows, or the first kernel failure, or the
    /// execution's error.
    rows: Result<Vec<Vec<f32>>, ServeError>,
}

/// One model's canary observation window (while a candidate exists).
#[derive(Clone, Copy, Debug, Default)]
struct CanaryWindow {
    started_ms: f64,
    batches: u64,
    mismatches: u64,
    failures: u64,
}

/// The inference service.
pub struct Service {
    cfg: ServiceConfig,
    tracker: Tracker,
    queues: TenantQueues,
    cache: ArtifactCache,
    versions: VersionRegistry,
    canary: HashMap<Model, CanaryWindow>,
    batch_seq: HashMap<Model, u64>,
    latency: HashMap<Model, VecDeque<f64>>,
    lanes: Vec<f64>,
    in_flight: Vec<InFlight>,
    now_ms: f64,
    outstanding: usize,
    tenant_outstanding: Vec<usize>,
    brownout_since: Option<f64>,
    all_dead: bool,
    stats: ServiceStats,
}

impl Service {
    /// Builds a service (opening or creating the version journal when
    /// configured). The artifact cache takes the tuning database.
    pub fn new(mut cfg: ServiceConfig) -> Result<Service, ServeError> {
        let target = arm_a53();
        let devices = cfg.devices.max(1);
        let mut tracker = Tracker::new(vec![target.clone(); devices]);
        tracker.set_retry_policy(cfg.retry.clone());
        tracker.set_fault_plan(cfg.faults.clone());
        let cache = ArtifactCache::new(target, cfg.db.take());
        let versions = match &cfg.version_path {
            Some(p) => VersionRegistry::open(p)?,
            None => VersionRegistry::in_memory(),
        };
        let queues = TenantQueues::new(&cfg.tenants);
        let per_tenant = cfg
            .tenants
            .iter()
            .map(|t| TenantStats {
                name: t.name.clone(),
                ..TenantStats::default()
            })
            .collect();
        Ok(Service {
            lanes: vec![0.0; devices],
            tracker,
            queues,
            cache,
            versions,
            canary: HashMap::new(),
            batch_seq: HashMap::new(),
            latency: HashMap::new(),
            in_flight: Vec::new(),
            now_ms: 0.0,
            outstanding: 0,
            tenant_outstanding: vec![0; cfg.tenants.len()],
            brownout_since: None,
            all_dead: false,
            stats: ServiceStats {
                per_tenant,
                ..ServiceStats::default()
            },
            cfg,
        })
    }

    /// The model-version registry (stable/candidate per model).
    pub fn versions(&self) -> &VersionRegistry {
        &self.versions
    }

    /// The artifact cache: every compiled module and executor held.
    pub fn cache(&self) -> &ArtifactCache {
        &self.cache
    }

    /// Starts a blue/green rollout: registers `weights`/`label` as the
    /// candidate version of `model` and opens its canary window. Tenants
    /// keep receiving the stable version's bits until the health gate
    /// promotes the candidate.
    pub fn begin_rollout(
        &mut self,
        model: Model,
        weights: u64,
        label: &str,
    ) -> Result<ModelVersion, ServeError> {
        let v = self.versions.register_candidate(model, weights, label)?;
        self.versions.sync()?;
        self.canary.insert(
            model,
            CanaryWindow {
                started_ms: self.now_ms,
                ..CanaryWindow::default()
            },
        );
        self.batch_seq.insert(model, 0);
        Ok(v)
    }

    /// Runs a full trace of requests to completion and returns every
    /// response plus aggregate statistics. Deterministic: same trace and
    /// config, same responses, at any thread count.
    pub fn run(&mut self, mut requests: Vec<Request>) -> (Vec<ResponseRecord>, ServiceStats) {
        let _sp = tvm_obs::span("serve.run");
        requests.sort_by(|a, b| a.arrival_ms.total_cmp(&b.arrival_ms).then(a.id.cmp(&b.id)));
        let mut arrivals: VecDeque<Request> = requests.into();
        let mut responses: Vec<ResponseRecord> = Vec::new();

        while !arrivals.is_empty() || !self.in_flight.is_empty() || self.queues.queued() > 0 {
            let next = self.next_event_time(&arrivals);
            let Some(next) = next else {
                // No event can make progress (pool fully dead): drain.
                self.drain_dead(&mut responses);
                break;
            };
            if next > self.now_ms {
                self.now_ms = next;
            }
            self.commit_completions(&mut responses);
            self.admit_arrivals(&mut arrivals, &mut responses);
            self.note_brownout_transition();
            for m in ALL_MODELS {
                self.evaluate_rollout_gate(m);
            }
            if self.all_dead {
                self.drain_dead(&mut responses);
                if arrivals.is_empty() {
                    break;
                }
                continue;
            }
            self.fill_lanes(&mut responses);
        }
        // Anything still in flight completes.
        while !self.in_flight.is_empty() {
            if let Some(t) = self.next_completion() {
                self.now_ms = self.now_ms.max(t);
            }
            self.commit_completions(&mut responses);
        }
        self.note_brownout_transition();
        if let Some(s) = self.brownout_since.take() {
            self.stats.brownout_ms += self.now_ms - s;
        }

        responses.sort_by(|a, b| a.done_ms.total_cmp(&b.done_ms).then(a.id.cmp(&b.id)));
        self.stats.horizon_ms = responses.iter().map(|r| r.done_ms).fold(0.0, f64::max);
        self.stats.cache = self.cache.stats();
        self.stats.pool = self.tracker.pool_stats().clone();
        for (t, ts) in self.stats.per_tenant.iter_mut().enumerate() {
            ts.max_wait_ms = self.queues.max_wait_ms(t);
        }
        (responses, self.stats.clone())
    }

    fn next_completion(&self) -> Option<f64> {
        self.in_flight
            .iter()
            .map(|f| f.done_at)
            .min_by(f64::total_cmp)
    }

    /// True once outstanding work crosses the brownout watermark.
    fn brownout_active(&self) -> bool {
        self.outstanding >= self.cfg.admission.brownout_watermark
    }

    fn note_brownout_transition(&mut self) {
        match (self.brownout_active(), self.brownout_since) {
            (true, None) => self.brownout_since = Some(self.now_ms),
            (false, Some(s)) => {
                self.stats.brownout_ms += self.now_ms - s;
                self.brownout_since = None;
            }
            _ => {}
        }
    }

    /// The batch-forming delay currently in force (shrunk in brownout).
    fn effective_delay_ms(&self) -> f64 {
        if self.brownout_active() {
            self.cfg.batch.max_delay_ms * self.cfg.batch.brownout_delay_factor.clamp(0.0, 1.0)
        } else {
            self.cfg.batch.max_delay_ms
        }
    }

    /// The model's latency window, sorted, when it holds at least `min`
    /// samples.
    fn sorted_latency(&self, model: Model, min: usize) -> Option<Vec<f64>> {
        let h = self.latency.get(&model)?;
        if h.len() < min {
            return None;
        }
        let mut v: Vec<f64> = h.iter().copied().collect();
        v.sort_by(f64::total_cmp);
        Some(v)
    }

    /// Running service-time estimate for a model (median of the window);
    /// `None` until enough batches completed to trust it.
    fn est_service_ms(&self, model: Model) -> Option<f64> {
        let v = self.sorted_latency(model, 4)?;
        Some(v[v.len() / 2])
    }

    /// Adaptive hedge threshold for a model, when hedging is armed and
    /// the latency window has enough samples.
    ///
    /// The window must clear the configured
    /// [`HedgePolicy::min_samples`] (clamped to at least one sample, so
    /// an empty window can never reach the quantile index arithmetic).
    /// On a short window the quantile index rounds to the max sample
    /// (q = 0.95 selects `v[len-1]` for any window under ~10), so the
    /// default policy keeps `min_samples` at 12; a lower value is an
    /// explicit operator opt-in to hedge off sparse evidence.
    fn hedge_threshold_ms(&self, model: Model) -> Option<f64> {
        if !self.cfg.hedge.enabled {
            return None;
        }
        let v = self.sorted_latency(model, self.cfg.hedge.min_samples.max(1))?;
        let q = self.cfg.hedge.quantile.clamp(0.0, 1.0);
        let idx = (((v.len() - 1) as f64 * q).round() as usize).min(v.len() - 1);
        Some((v[idx] * self.cfg.hedge.factor).max(self.cfg.hedge.min_threshold_ms))
    }

    fn record_latency(&mut self, model: Model, ms: f64) {
        let h = self.latency.entry(model).or_default();
        h.push_back(ms);
        while h.len() > LATENCY_WINDOW {
            h.pop_front();
        }
    }

    /// The earliest time a flush of `model` becomes due: a full batch is
    /// due now; otherwise the (brownout-shrunk) max-delay timer — pulled
    /// earlier when the tightest queued deadline needs it.
    fn flush_due_at(&self, model: Model) -> Option<f64> {
        let queued = self.queues.queued_for(model);
        if queued == 0 {
            return None;
        }
        if queued >= self.cfg.batch.max_batch {
            return Some(self.now_ms);
        }
        let oldest = self.queues.oldest_arrival_for(model)?;
        let mut due = oldest + self.effective_delay_ms();
        if let (Some(est), Some(dl)) = (
            self.est_service_ms(model),
            self.queues.min_deadline_for(model),
        ) {
            due = due.min(dl - est);
        }
        Some(due.max(self.now_ms))
    }

    /// The earliest time anything can happen: a completion, an arrival,
    /// or — when a lane is free — a batch flush coming due.
    fn next_event_time(&self, arrivals: &VecDeque<Request>) -> Option<f64> {
        let mut next = f64::INFINITY;
        if let Some(t) = self.next_completion() {
            next = next.min(t);
        }
        if let Some(r) = arrivals.front() {
            next = next.min(r.arrival_ms);
        }
        if self.lane_free() {
            for m in ALL_MODELS {
                if let Some(due) = self.flush_due_at(m) {
                    next = next.min(due);
                }
            }
        }
        next.is_finite().then_some(next)
    }

    fn lane_free(&self) -> bool {
        self.lanes.iter().any(|&f| f <= self.now_ms)
    }

    fn free_lane(&self) -> Option<usize> {
        (0..self.lanes.len()).find(|&i| self.lanes[i] <= self.now_ms)
    }

    fn commit_completions(&mut self, responses: &mut Vec<ResponseRecord>) {
        // Deterministic commit order: by completion time, then lane.
        self.in_flight
            .sort_by(|a, b| a.done_at.total_cmp(&b.done_at).then(a.lane.cmp(&b.lane)));
        while let Some(f) = self.in_flight.first() {
            if f.done_at > self.now_ms {
                break;
            }
            let f = self.in_flight.remove(0);
            for rec in f.records {
                self.note_outcome(&rec);
                self.release_outstanding(&rec.tenant);
                responses.push(rec);
            }
        }
    }

    fn release_outstanding(&mut self, tenant: &str) {
        self.outstanding = self.outstanding.saturating_sub(1);
        if let Some(t) = self.queues.index_of(tenant) {
            self.tenant_outstanding[t] = self.tenant_outstanding[t].saturating_sub(1);
        }
    }

    fn note_outcome(&mut self, rec: &ResponseRecord) {
        let t = self.queues.index_of(&rec.tenant);
        match &rec.outcome {
            ServeOutcome::Ok { .. } => {
                self.stats.completed += 1;
                if let Some(t) = t {
                    self.stats.per_tenant[t].ok += 1;
                }
            }
            ServeOutcome::DeadlineExceeded { .. } => {
                self.stats.deadline_exceeded += 1;
                if let Some(t) = t {
                    self.stats.per_tenant[t].deadline += 1;
                }
            }
            ServeOutcome::Rejected(e) if e.is_shed() => {
                self.stats.shed += 1;
                if matches!(e, ServeError::Brownout { .. }) {
                    self.stats.brownout_sheds += 1;
                }
                if let Some(t) = t {
                    self.stats.per_tenant[t].shed += 1;
                }
            }
            ServeOutcome::Rejected(_) => {
                self.stats.failed += 1;
                if let Some(t) = t {
                    self.stats.per_tenant[t].err += 1;
                }
            }
        }
    }

    /// Answers a request that never reaches a batch, at the current time.
    fn answer_now(
        &mut self,
        req: &Request,
        outcome: ServeOutcome,
        responses: &mut Vec<ResponseRecord>,
    ) {
        let rec = record_for(req, self.now_ms, 0, 0, outcome);
        self.note_outcome(&rec);
        responses.push(rec);
    }

    fn reject(&mut self, req: Request, err: ServeError, responses: &mut Vec<ResponseRecord>) {
        self.answer_now(&req, ServeOutcome::Rejected(err), responses);
    }

    fn expire(&mut self, req: Request, responses: &mut Vec<ResponseRecord>) {
        let outcome = ServeOutcome::DeadlineExceeded {
            deadline_ms: req.deadline_ms,
        };
        self.answer_now(&req, outcome, responses);
    }

    fn admit_arrivals(
        &mut self,
        arrivals: &mut VecDeque<Request>,
        responses: &mut Vec<ResponseRecord>,
    ) {
        while arrivals
            .front()
            .is_some_and(|r| r.arrival_ms <= self.now_ms)
        {
            let Some(req) = arrivals.pop_front() else {
                break;
            };
            let _sp = tvm_obs::span("serve.admit");
            if self.all_dead {
                self.reject(req, ServeError::NoUsableDevices, responses);
                continue;
            }
            let Some(tenant) = self.queues.index_of(&req.tenant) else {
                let t = req.tenant.clone();
                self.reject(req, ServeError::UnknownTenant(t), responses);
                continue;
            };
            if req.payload.len() != req.model.row_len() {
                let e = ServeError::Runtime(tvm_runtime::RuntimeError::DataMismatch {
                    expected: req.model.row_len(),
                    got: req.payload.len(),
                });
                self.reject(req, e, responses);
                continue;
            }
            if req.deadline_ms <= self.now_ms {
                // Already expired on arrival: never occupies capacity.
                self.expire(req, responses);
                continue;
            }
            let cap = self.cfg.admission.max_outstanding;
            if self.outstanding >= cap {
                self.reject(
                    req,
                    ServeError::Overloaded {
                        outstanding: self.outstanding,
                        cap,
                    },
                    responses,
                );
                continue;
            }
            if self.brownout_active() {
                // Brownout: hold each tenant to its weight-proportional
                // share of the global cap, so heavy low-weight traffic
                // is shed first while high-weight tenants keep flowing.
                let total_w: u64 = self
                    .queues
                    .configs()
                    .iter()
                    .map(|c| u64::from(c.weight))
                    .sum();
                let w = u64::from(self.queues.configs()[tenant].weight);
                let share = ((cap as u64 * w) / total_w.max(1)).max(1) as usize;
                if self.tenant_outstanding[tenant] >= share {
                    let name = self.queues.configs()[tenant].name.clone();
                    self.reject(
                        req,
                        ServeError::Brownout {
                            tenant: name,
                            share,
                        },
                        responses,
                    );
                    continue;
                }
            }
            match self.queues.enqueue(tenant, req) {
                Ok(()) => {
                    self.outstanding += 1;
                    self.tenant_outstanding[tenant] += 1;
                }
                Err(shed) => {
                    let (req, e) = *shed;
                    self.reject(req, e, responses);
                }
            }
        }
    }

    fn fill_lanes(&mut self, responses: &mut Vec<ResponseRecord>) {
        loop {
            if !self.lane_free() {
                return;
            }
            // Flushable model with the oldest waiting request first;
            // registry order breaks ties.
            let mut pick: Option<(f64, Model)> = None;
            for m in ALL_MODELS {
                if self.queues.queued_for(m) == 0 {
                    continue;
                }
                let oldest = self.queues.oldest_arrival_for(m).unwrap_or(self.now_ms);
                let due = self.flush_due_at(m).is_some_and(|t| t <= self.now_ms);
                if due && pick.is_none_or(|(t, _)| oldest < t) {
                    pick = Some((oldest, m));
                }
            }
            let Some((_, model)) = pick else { return };
            self.flush(model, responses);
            if self.all_dead {
                return;
            }
        }
    }

    /// One replica of a batch: `module`'s kernels run as jobs on the
    /// device pool, never on a `banned` device, and then, if every job
    /// succeeded, the batch executes under `version` on the device that
    /// produced the accepted result.
    fn replica(
        &mut self,
        module: &tvm_runtime::Module,
        model: Model,
        bucket: i64,
        reqs: &[Request],
        version: &ModelVersion,
        banned: &[usize],
    ) -> Replica {
        let outcomes = {
            let _sp = tvm_obs::span("serve.execute.pool");
            // `tvm::build` costed each kernel on this target when it lowered it.
            let costs_ms: Vec<f64> = module.kernels.iter().map(|k| k.est_ms).collect();
            self.tracker
                .run_costs(self.cache.target().name(), &costs_ms, banned)
        };
        let mut ms = 0.0;
        let mut device = None;
        let mut failed = 0u64;
        let mut failure: Option<ServeError> = None;
        // Consumed here, so the outcomes are freed before the batch runs.
        for (k, o) in module.kernels.iter().zip(outcomes) {
            ms += o.backoff_ms;
            match o.ms {
                Ok(t) => {
                    ms += t;
                    device = o.device;
                }
                Err(e) => {
                    ms += self.cfg.retry.timeout_ms * o.attempts as f64;
                    failed += 1;
                    failure.get_or_insert_with(|| ServeError::DeviceFailure {
                        kernel: k.name.clone(),
                        detail: e.to_string(),
                    });
                }
            }
        }
        if self.tracker.health().iter().all(|h| h.dead) {
            self.all_dead = true;
        }
        let rows = match failure {
            Some(e) => Err(e),
            None => self.execute_batch(model, bucket, reqs, version, device),
        };
        Replica {
            ms,
            device,
            failed,
            rows,
        }
    }

    fn flush(&mut self, model: Model, responses: &mut Vec<ResponseRecord>) {
        let want = self.cfg.batch.max_batch.min(self.queues.queued_for(model));
        let reqs = self.queues.dispatch_model(model, want.max(1), self.now_ms);
        if reqs.is_empty() {
            return;
        }
        let _sp = tvm_obs::span_with("serve.flush", &[("model", model.name())]);

        // Deadline gate: requests that provably cannot finish by their
        // deadline (running latency estimate; expired deadlines need no
        // estimate) are shed now instead of executed late.
        let est = self.est_service_ms(model).unwrap_or(0.0);
        let (reqs, late): (Vec<Request>, Vec<Request>) = reqs
            .into_iter()
            .partition(|r| self.now_ms + est <= r.deadline_ms);
        for r in late {
            self.release_outstanding(&r.tenant);
            self.expire(r, responses);
        }
        if reqs.is_empty() {
            return;
        }

        self.stats.batches += 1;
        self.stats.batch_size_sum += reqs.len() as u64;
        let bucket = bucket_for(reqs.len());

        let stable = self.versions.stable(model);
        let module = match self.cache.get_or_build(model, bucket, &stable) {
            Ok(m) => m,
            Err(e) => {
                for r in reqs {
                    self.release_outstanding(&r.tenant);
                    self.reject(r, e.clone(), responses);
                }
                return;
            }
        };

        // A failed primary refuses the batch and leaves no latency sample.
        let primary = self.replica(&module, model, bucket, &reqs, &stable, &[]);
        if primary.failed > 0 {
            self.answer_batch(&reqs, bucket, self.now_ms + primary.ms, primary.rows);
            return;
        }

        // Hedge: when the primary straggles past the adaptive threshold
        // and a second healthy device exists, re-issue there. The batch
        // completes at whichever replica finishes first (the secondary
        // is launched `threshold` after the primary), and both replicas'
        // digests must agree, or neither answer is served.
        let mut service_ms = primary.ms;
        let mut rows = primary.rows;
        if let (Some(thr), Some(pd)) = (self.hedge_threshold_ms(model), primary.device) {
            if primary.ms > thr && self.tracker.usable_count() > 1 {
                let _sp = tvm_obs::span_with("serve.hedge", &[("model", model.name())]);
                self.stats.hedge.issued += 1;
                let hedge = self.replica(&module, model, bucket, &reqs, &stable, &[pd]);
                if hedge.failed == 0 {
                    let won = thr + hedge.ms < service_ms;
                    let (first, second) = if won {
                        service_ms = thr + hedge.ms;
                        self.stats.hedge.wins += 1;
                        (hedge.rows, rows)
                    } else {
                        (rows, hedge.rows)
                    };
                    rows = match (first, second) {
                        (Ok(a), Ok(b)) if disagreements(&a, &b) > 0 => {
                            self.stats.hedge.divergences += 1;
                            Err(ServeError::SilentDivergence {
                                model: model.name().to_string(),
                            })
                        }
                        (Ok(a), Ok(_)) => Ok(a),
                        (Err(e), _) | (_, Err(e)) => Err(e),
                    };
                }
            }
        }
        // The latency window records *unhedged* service times, so the
        // threshold tracks the device distribution, not its own effect.
        self.record_latency(model, primary.ms);

        // Canary shadow: while a candidate exists, a deterministic
        // fraction of batches also executes on the candidate version,
        // feeding the promote-or-rollback health gate. Tenants are still
        // served the stable bits computed above.
        if let Ok(served) = &rows {
            if self.versions.candidate(model).is_some() {
                self.canary_shadow(model, bucket, &reqs, served, &stable);
            }
        }
        self.answer_batch(&reqs, bucket, self.now_ms + service_ms, rows);
    }

    /// Shadow-executes one canary batch on the candidate version and
    /// feeds the health gate: digest agreement against the reference
    /// (stable bits for a bit-compatible rollout, the candidate on a
    /// second device otherwise) plus candidate-side failure rates.
    fn canary_shadow(
        &mut self,
        model: Model,
        bucket: i64,
        reqs: &[Request],
        served: &[Vec<f32>],
        stable: &ModelVersion,
    ) {
        let every = self.cfg.rollout.canary_every();
        let seq = self.batch_seq.entry(model).or_insert(0);
        *seq += 1;
        if !(*seq).is_multiple_of(every) {
            return;
        }
        let Some(cand) = self.versions.candidate(model).cloned() else {
            return;
        };
        let _sp = tvm_obs::span_with("serve.canary", &[("model", model.name())]);
        let mut failures = 0u64;
        let mut mismatches = 0u64;
        match self.cache.get_or_build(model, bucket, &cand) {
            Err(_) => {
                // A candidate that cannot compile can never be promoted:
                // charge it past the failure budget immediately.
                failures += self.cfg.rollout.max_candidate_failures + 1;
            }
            Ok(cmodule) => {
                let run = self.replica(&cmodule, model, bucket, reqs, &cand, &[]);
                // Its failed kernels, or one failure when the pool ran
                // clean and the execution failed.
                failures += run.failed.max(u64::from(run.rows.is_err()));
                if let Ok(crows) = &run.rows {
                    if cand.weights == stable.weights {
                        // Bit-compatible rollout (re-tuned artifact, same
                        // weights): the candidate must reproduce the
                        // served bits.
                        mismatches += disagreements(crows, served);
                    } else if let Some(sd) = run.device.filter(|_| self.tracker.usable_count() > 1)
                    {
                        // New weights legitimately change the outputs; the
                        // oracle becomes the candidate against itself on a
                        // second device (refutes per-replica rot).
                        let check = self.replica(&cmodule, model, bucket, reqs, &cand, &[sd]);
                        failures += check.failed;
                        if let Ok(rrows) = &check.rows {
                            mismatches += disagreements(crows, rrows);
                        }
                    }
                }
            }
        }
        let w = self.canary.entry(model).or_insert(CanaryWindow {
            started_ms: self.now_ms,
            ..CanaryWindow::default()
        });
        w.batches += 1;
        w.mismatches += mismatches;
        w.failures += failures;
        self.stats.rollout.canary_batches += 1;
        self.stats.rollout.canary_rows += reqs.len() as u64;
        self.stats.rollout.digest_mismatches += mismatches;
        self.stats.rollout.candidate_failures += failures;
        self.evaluate_rollout_gate(model);
    }

    /// The promote-or-rollback decision, a pure function of the canary
    /// window state and the virtual clock. Any digest mismatch rolls
    /// back instantly; failure-budget exhaustion rolls back; a clean
    /// window of sufficient length and sample count promotes.
    fn evaluate_rollout_gate(&mut self, model: Model) {
        if self.versions.candidate(model).is_none() {
            return;
        }
        let Some(w) = self.canary.get(&model).copied() else {
            return;
        };
        let rc = self.cfg.rollout;
        if w.mismatches > 0 {
            self.finish_rollout(model, false, "digest_mismatch");
        } else if w.failures > rc.max_candidate_failures {
            self.finish_rollout(model, false, "candidate_failures");
        } else if w.batches >= rc.min_canary_batches && self.now_ms >= w.started_ms + rc.window_ms {
            self.finish_rollout(model, true, "healthy");
        }
    }

    fn finish_rollout(&mut self, model: Model, promote: bool, reason: &str) {
        // The losing side: the stable a promotion supersedes, or the
        // candidate a rollback discards.
        let retired = if promote {
            Some(self.versions.stable(model))
        } else {
            self.versions.candidate(model).cloned()
        };
        let applied = if promote {
            self.versions.promote(model).is_ok()
        } else {
            self.versions.rollback(model, reason).is_ok()
        };
        if applied {
            if promote {
                self.stats.rollout.promotions += 1;
            } else {
                self.stats.rollout.rollbacks += 1;
            }
            if let Some(v) = &retired {
                self.cache.evict(v);
            }
        }
        self.canary.remove(&model);
        self.batch_seq.remove(&model);
        let _ = self.versions.sync();
    }

    /// Functional execution of one batch under a specific model version,
    /// on the executor the artifact cache keeps for that version and
    /// bucket: the batch binds its input, runs and copies its rows out.
    /// Fault-free except for the fault plan's version-corruption oracle,
    /// which (deterministically) perturbs outputs when this version is
    /// corrupted on the executing device.
    fn execute_batch(
        &mut self,
        model: Model,
        bucket: i64,
        reqs: &[Request],
        version: &ModelVersion,
        device: Option<usize>,
    ) -> Result<Vec<Vec<f32>>, ServeError> {
        let _sp = tvm_obs::span("serve.execute.functional");
        let input = stack_rows(model, bucket, reqs)?;
        let ex = self.cache.executor(model, bucket, version)?;
        ex.set_input(model.input_name(), input)?;
        ex.run()?;
        let out = ex.get_output(0)?;
        let mut rows = slice_rows(model, out, reqs.len())?;
        if let Some(d) = device {
            if let Some(cseed) = self.cfg.faults.output_corruption(version.fingerprint(), d) {
                for (r, row) in reqs.iter().zip(rows.iter_mut()) {
                    if !row.is_empty() {
                        let i = (mix64(cseed, r.id, row.len() as u64) as usize) % row.len();
                        // Flip a mantissa bit: value changes, stays finite.
                        row[i] = f32::from_bits(row[i].to_bits() ^ 0x0040_0000);
                    }
                }
            }
        }
        Ok(rows)
    }

    /// Answers every request of a batch at `done` with its row of `rows`,
    /// or with the batch's error, and holds a lane until then.
    fn answer_batch(
        &mut self,
        reqs: &[Request],
        bucket: i64,
        done: f64,
        rows: Result<Vec<Vec<f32>>, ServeError>,
    ) {
        let n = reqs.len();
        let records = match rows {
            Ok(rows) => reqs
                .iter()
                .zip(rows)
                .map(|(r, row)| {
                    let outcome = ServeOutcome::Ok {
                        digest: row_digest(&row),
                        output: self.cfg.keep_outputs.then_some(row),
                    };
                    record_for(r, done, n, bucket, outcome)
                })
                .collect(),
            Err(e) => reqs
                .iter()
                .map(|r| record_for(r, done, n, bucket, ServeOutcome::Rejected(e.clone())))
                .collect(),
        };
        let lane = self.free_lane().unwrap_or(0);
        self.lanes[lane] = done;
        self.in_flight.push(InFlight {
            done_at: done,
            lane,
            records,
        });
    }

    fn drain_dead(&mut self, responses: &mut Vec<ResponseRecord>) {
        for req in self.queues.drain() {
            self.release_outstanding(&req.tenant);
            self.reject(req, ServeError::NoUsableDevices, responses);
        }
    }
}

fn record_for(
    r: &Request,
    done: f64,
    size: usize,
    bucket: i64,
    outcome: ServeOutcome,
) -> ResponseRecord {
    ResponseRecord {
        id: r.id,
        tenant: r.tenant.clone(),
        model: r.model,
        arrival_ms: r.arrival_ms,
        done_ms: done,
        batch_size: size,
        bucket,
        outcome,
    }
}

/// How many rows two replicas of one batch disagree on, by digest.
fn disagreements(a: &[Vec<f32>], b: &[Vec<f32>]) -> u64 {
    a.iter()
        .zip(b)
        .filter(|(x, y)| row_digest(x) != row_digest(y))
        .count() as u64
}

/// CRC-32 over an output row's exact bit pattern.
pub fn row_digest(row: &[f32]) -> u32 {
    let mut bytes = Vec::with_capacity(row.len() * 4);
    for v in row {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    crc32(&bytes)
}

#[cfg(test)]
mod hedge_guard_tests {
    use super::*;

    fn svc(hedge: HedgePolicy) -> Service {
        Service::new(ServiceConfig {
            hedge,
            ..ServiceConfig::default()
        })
        .expect("service")
    }

    fn aggressive() -> HedgePolicy {
        // A config that asks for hedging with no sample floor at all;
        // the guard clamps it to one sample so an empty window never
        // reaches the quantile index arithmetic.
        HedgePolicy {
            enabled: true,
            min_samples: 0,
            quantile: 0.95,
            factor: 1.0,
            min_threshold_ms: 0.0,
        }
    }

    #[test]
    fn empty_window_never_arms_the_hedge() {
        let s = svc(aggressive());
        // No latency recorded at all: must be a clean no-hedge, not an
        // index underflow.
        assert_eq!(s.hedge_threshold_ms(Model::Mlp), None);
    }

    #[test]
    fn default_min_samples_guards_short_windows() {
        let mut s = svc(HedgePolicy {
            enabled: true,
            ..HedgePolicy::default()
        });
        // One straggler dominates a tiny window; without the default
        // min_samples guard the 0.95-quantile index rounds straight to
        // it and hedging arms off a single sample.
        s.record_latency(Model::Mlp, 500.0);
        for _ in 0..(s.cfg.hedge.min_samples - 2) {
            s.record_latency(Model::Mlp, 1.0);
        }
        assert_eq!(
            s.hedge_threshold_ms(Model::Mlp),
            None,
            "hedge armed below the configured minimum window"
        );
        // One more sample clears the floor; the threshold becomes real.
        s.record_latency(Model::Mlp, 1.0);
        let thr = s.hedge_threshold_ms(Model::Mlp).expect("window full");
        assert!(thr.is_finite() && thr > 0.0);
    }

    #[test]
    fn explicit_low_min_samples_is_honored() {
        // An operator who sets min_samples: 1 has opted into hedging
        // off sparse evidence (the divergence-refusal suite relies on
        // this); the guard must not silently override it.
        let mut s = svc(HedgePolicy {
            min_samples: 1,
            ..aggressive()
        });
        s.record_latency(Model::Mlp, 1.0);
        assert!(s.hedge_threshold_ms(Model::Mlp).is_some());
    }

    #[test]
    fn configured_min_samples_still_respected_above_floor() {
        let mut s = svc(HedgePolicy {
            min_samples: 20,
            ..aggressive()
        });
        for _ in 0..19 {
            s.record_latency(Model::Mlp, 1.0);
        }
        assert_eq!(s.hedge_threshold_ms(Model::Mlp), None);
        s.record_latency(Model::Mlp, 1.0);
        assert!(s.hedge_threshold_ms(Model::Mlp).is_some());
    }
}
