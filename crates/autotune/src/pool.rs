//! RPC-based device pool (§5.4), simulated — with fault tolerance.
//!
//! The paper scales measurement with a tracker + RPC protocol: clients
//! request a device of a given type, upload a cross-compiled module, run
//! it and fetch profiling results. Here the unit of that protocol is the
//! batch: a client hands [`Tracker::run_costs`] the fault-free device time
//! of each job on a device type (whoever lowered the kernel already
//! simulated it: `tvm::build` keeps `est_ms`, the tuner memo keeps the
//! analysis), the tracker places each on the least-busy usable device
//! (round-robin between equals, so a fast device absorbs more of the
//! fleet's work than a slow one), reports that time back under the
//! device's faults and accounts per-device utilization — without a network
//! (see DESIGN.md's substitution table). A device type is its name: two
//! devices with one name cost a kernel the same.
//!
//! Real fleets crash, hang and lie about timings, so the tracker is a
//! *health-aware* scheduler. Under a [`tvm_sim::FaultPlan`]:
//!
//! * every attempt runs against a per-job **timeout budget** (hangs are
//!   charged at the budget and reported as failures);
//! * failed jobs are **retried with exponential backoff** on a different
//!   device when one is available (orphan re-dispatch), up to a bounded
//!   attempt count;
//! * a **circuit breaker** quarantines a device after repeated
//!   consecutive failures; quarantine terms grow exponentially, and an
//!   expired term re-admits the device on probation (one more failure
//!   re-quarantines it immediately);
//! * suspect timings are **re-measured**: with `replicas >= 2` each job
//!   is sampled on distinct devices where possible, disagreement
//!   escalates to a median-of-k vote, and the median rejects outliers.
//!
//! A batch spreads across the fleet (the paper's parallel measurement on a
//! device cluster) in rounds of one attempt per unresolved job: device
//! assignment — including every retry and replica — is planned against the
//! health the round started with, then results and accounting are committed
//! in job order. The scheduler is serial and never simulates;
//! [`Tracker::run_batch`] / [`Tracker::run_batch_detailed`] are the "upload
//! a module" convenience that costs each function once and calls it.

use rayon::prelude::*;
use tvm_ir::LoweredFunc;
use tvm_sim::{estimate, Fault, FaultPlan, Target};

/// Retry / quarantine / re-measurement policy of the scheduler.
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    /// Per-attempt simulated budget; a hang charges exactly this.
    pub timeout_ms: f64,
    /// Failed attempts allowed per job before it is abandoned.
    pub max_attempts: usize,
    /// Base of the exponential retry backoff (simulated ms, accounted but
    /// not charged to any device).
    pub backoff_base_ms: f64,
    /// Consecutive failures that trip a device's circuit breaker.
    pub quarantine_after: u32,
    /// Base quarantine term, in fleet-wide dispatch ticks; doubles with
    /// each repeat quarantine of the same device.
    pub probation_dispatches: u64,
    /// Timing samples per job (1 = trust the first success; >= 2 verifies
    /// by replication on distinct devices where possible).
    pub replicas: usize,
    /// Sample count a disputed timing escalates to (forced odd; the
    /// median of these rejects outliers).
    pub max_replicas: usize,
    /// Relative tolerance for replica agreement.
    pub rel_tol: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            timeout_ms: 10_000.0,
            max_attempts: 4,
            backoff_base_ms: 1.0,
            quarantine_after: 3,
            probation_dispatches: 8,
            replicas: 1,
            max_replicas: 5,
            rel_tol: 1e-9,
        }
    }
}

impl RetryPolicy {
    /// A policy tuned for chaos runs: verify timings by replication and
    /// retry generously.
    pub fn fault_tolerant() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 10,
            quarantine_after: 2,
            replicas: 2,
            ..RetryPolicy::default()
        }
    }
}

/// Why a job produced no timing.
#[derive(Clone, Debug, PartialEq)]
pub enum MeasureError {
    /// No device of the requested type exists in the fleet.
    NoDevice,
    /// Every matching device crashed permanently.
    AllDevicesDead,
    /// The per-job failed-attempt budget ran out.
    RetriesExhausted {
        /// Attempts spent (successes + failures).
        attempts: usize,
    },
}

impl std::fmt::Display for MeasureError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MeasureError::NoDevice => write!(f, "no device of the requested type"),
            MeasureError::AllDevicesDead => write!(f, "every matching device is dead"),
            MeasureError::RetriesExhausted { attempts } => {
                write!(f, "retry budget exhausted after {attempts} attempts")
            }
        }
    }
}

impl std::error::Error for MeasureError {}

/// Outcome of one batched job.
#[derive(Clone, Debug)]
pub struct JobOutcome {
    /// Accepted timing, or the reason none was produced.
    pub ms: Result<f64, MeasureError>,
    /// Attempts dispatched for this job (retries and replicas included).
    pub attempts: usize,
    /// Successful timing samples collected.
    pub samples: usize,
    /// True when replica disagreement escalated to a median-of-k vote.
    pub remeasured: bool,
    /// Simulated retry-backoff delay accumulated by this job.
    pub backoff_ms: f64,
    /// Device that produced the *accepted* timing sample (`None` when the
    /// job failed). Consumers that care which replica actually answered —
    /// hedged execution, version-corruption oracles — key off this.
    pub device: Option<usize>,
}

/// Public per-device health snapshot.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DeviceHealth {
    /// Successful runs.
    pub runs: u64,
    /// Total busy time (successes plus charged timeouts).
    pub busy_ms: f64,
    /// Attempts dispatched to the device.
    pub attempts: u64,
    /// Failed attempts.
    pub failures: u64,
    /// Times the circuit breaker tripped.
    pub quarantines: u64,
    /// Currently quarantined.
    pub quarantined: bool,
    /// Permanently dead.
    pub dead: bool,
}

/// Cumulative fault-handling counters for the tracker's lifetime.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PoolStats {
    /// Attempts dispatched (including retries and replicas).
    pub attempts: usize,
    /// Failed attempts that were re-dispatched.
    pub retries: usize,
    /// Hang faults observed (charged at the timeout budget).
    pub timeouts: usize,
    /// Transient errors observed.
    pub transient_errors: usize,
    /// Crash faults observed (each kills a device).
    pub crash_faults: usize,
    /// Circuit-breaker trips.
    pub quarantines: usize,
    /// Probation re-admissions.
    pub readmissions: usize,
    /// Jobs escalated to a median-of-k re-measurement.
    pub remeasured_jobs: usize,
    /// Jobs that produced no timing.
    pub failed_jobs: usize,
    /// Total simulated backoff delay.
    pub backoff_ms: f64,
}

impl PoolStats {
    /// Field-wise difference (`self - earlier`), for per-run deltas over a
    /// long-lived tracker.
    pub fn minus(&self, earlier: &PoolStats) -> PoolStats {
        PoolStats {
            attempts: self.attempts - earlier.attempts,
            retries: self.retries - earlier.retries,
            timeouts: self.timeouts - earlier.timeouts,
            transient_errors: self.transient_errors - earlier.transient_errors,
            crash_faults: self.crash_faults - earlier.crash_faults,
            quarantines: self.quarantines - earlier.quarantines,
            readmissions: self.readmissions - earlier.readmissions,
            remeasured_jobs: self.remeasured_jobs - earlier.remeasured_jobs,
            failed_jobs: self.failed_jobs - earlier.failed_jobs,
            backoff_ms: self.backoff_ms - earlier.backoff_ms,
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum DevState {
    Healthy,
    Probation,
    Quarantined { until: u64 },
    Dead,
}

struct Device {
    target: Target,
    busy_ms: f64,
    runs: u64,
    /// Per-device dispatch counter — the fault-plan key.
    attempts: u64,
    failures: u64,
    consecutive: u32,
    quarantines: u64,
    state: DevState,
}

impl Device {
    fn usable(&self) -> bool {
        matches!(self.state, DevState::Healthy | DevState::Probation)
    }
}

/// The tracker: owns the device fleet, the fault plan and the scheduling
/// policy. It keeps counters, not a transcript: a tracker lives as long as
/// the service that owns it.
pub struct Tracker {
    devices: Vec<Device>,
    next_rr: usize,
    fault_plan: FaultPlan,
    policy: RetryPolicy,
    stats: PoolStats,
    /// Fleet-wide dispatch counter (quarantine clock).
    dispatch_clock: u64,
}

/// Per-job bookkeeping inside one `run_costs`.
struct JobState {
    samples: Vec<f64>,
    need: usize,
    attempts: usize,
    failed_attempts: usize,
    remeasured: bool,
    backoff_ms: f64,
    last_failed_device: Option<usize>,
    sampled_devices: Vec<usize>,
    done: Option<Result<f64, MeasureError>>,
}

impl Tracker {
    /// Creates a tracker over a fleet of simulated devices.
    pub fn new(targets: Vec<Target>) -> Tracker {
        Tracker {
            devices: targets
                .into_iter()
                .map(|t| Device {
                    target: t,
                    busy_ms: 0.0,
                    runs: 0,
                    attempts: 0,
                    failures: 0,
                    consecutive: 0,
                    quarantines: 0,
                    state: DevState::Healthy,
                })
                .collect(),
            next_rr: 0,
            fault_plan: FaultPlan::none(),
            policy: RetryPolicy::default(),
            stats: PoolStats::default(),
            dispatch_clock: 0,
        }
    }

    /// Installs a fault plan (chaos injection) for subsequent batches.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault_plan = plan;
    }

    /// Installs the retry/quarantine/re-measurement policy.
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.policy = policy;
    }

    /// The active policy.
    pub fn policy(&self) -> &RetryPolicy {
        &self.policy
    }

    /// Cumulative fault-handling counters.
    pub fn pool_stats(&self) -> &PoolStats {
        &self.stats
    }

    /// How many devices are currently usable (not dead, not quarantined).
    /// The serving scheduler sizes its dispatch lanes from this.
    pub fn usable_count(&self) -> usize {
        self.devices
            .iter()
            .filter(|d| matches!(d.state, DevState::Healthy | DevState::Probation))
            .count()
    }

    /// Per-device health snapshot.
    pub fn health(&self) -> Vec<DeviceHealth> {
        self.devices
            .iter()
            .map(|d| DeviceHealth {
                runs: d.runs,
                busy_ms: d.busy_ms,
                attempts: d.attempts,
                failures: d.failures,
                quarantines: d.quarantines,
                quarantined: matches!(d.state, DevState::Quarantined { .. }),
                dead: d.state == DevState::Dead,
            })
            .collect()
    }

    /// Picks the matching *usable* device with the smallest effective
    /// load; `extra_ms` adds per-device in-flight work not yet committed
    /// to `busy_ms` (used by batch dispatch), `avoid` removes devices
    /// the caller prefers not to reuse (ignored when it would leave no
    /// choice), and `banned` removes devices unconditionally (a hedged
    /// re-issue must never land back on the straggler). Ties go
    /// round-robin: the first minimum at-or-after the rotating cursor
    /// wins.
    fn pick(
        &self,
        target_name: &str,
        extra_ms: &[f64],
        avoid: &[usize],
        banned: &[usize],
    ) -> Option<usize> {
        let pass = |skip_avoided: bool| -> Option<usize> {
            let n = self.devices.len();
            let mut best: Option<(usize, f64)> = None;
            for off in 0..n {
                let id = (self.next_rr + off) % n;
                let d = &self.devices[id];
                if d.target.name() != target_name || !d.usable() || banned.contains(&id) {
                    continue;
                }
                if skip_avoided && avoid.contains(&id) {
                    continue;
                }
                let load = d.busy_ms + extra_ms.get(id).copied().unwrap_or(0.0);
                if best.map(|(_, b)| load < b).unwrap_or(true) {
                    best = Some((id, load));
                }
            }
            best.map(|(id, _)| id)
        };
        pass(true).or_else(|| pass(false))
    }

    /// Re-admits quarantined devices whose term expired.
    fn expire_quarantines(&mut self) {
        for id in 0..self.devices.len() {
            if let DevState::Quarantined { until } = self.devices[id].state {
                if self.dispatch_clock >= until {
                    self.readmit(id);
                }
            }
        }
    }

    fn readmit(&mut self, id: usize) {
        self.devices[id].state = DevState::Probation;
        self.devices[id].consecutive = 0;
        self.stats.readmissions += 1;
    }

    fn quarantine(&mut self, id: usize) {
        let d = &mut self.devices[id];
        let term = self.policy.probation_dispatches << d.quarantines.min(4);
        d.state = DevState::Quarantined {
            until: self.dispatch_clock + term.max(1),
        };
        d.quarantines += 1;
        self.stats.quarantines += 1;
    }

    /// Historical mean cost of one run, for load-balancing in-flight work
    /// before real timings exist.
    fn mean_run_ms(&self) -> f64 {
        let (runs, busy) = self
            .devices
            .iter()
            .fold((0u64, 0.0f64), |(r, b), d| (r + d.runs, b + d.busy_ms));
        if runs > 0 {
            busy / runs as f64
        } else {
            1.0
        }
    }

    /// Decides whether a job's collected samples settle its timing.
    fn resolve_samples(policy: &RetryPolicy, job: &mut JobState) -> Option<f64> {
        debug_assert!(job.samples.len() >= job.need);
        if job.need <= 1 {
            return Some(job.samples[0]);
        }
        let mut sorted = job.samples.clone();
        sorted.sort_by(f64::total_cmp);
        let (lo, hi) = (sorted[0], sorted[sorted.len() - 1]);
        let scale = lo.abs().max(1e-12);
        if (hi - lo) <= policy.rel_tol * scale {
            // All replicas agree: accept the first sample (stable choice).
            return Some(job.samples[0]);
        }
        let odd_max = policy.max_replicas.max(3) | 1;
        if job.samples.len() >= odd_max {
            // Median-of-k: up to (k-1)/2 outliers are rejected outright.
            return Some(sorted[sorted.len() / 2]);
        }
        // Disputed: escalate to the full vote.
        job.remeasured = true;
        job.need = odd_max;
        None
    }

    /// Schedules one job per entry of `costs_ms` — its fault-free time on
    /// a device of type `target_name` — across the fleet with retries,
    /// quarantine and replica verification, returning one [`JobOutcome`]
    /// per job in job order. A fault-free attempt reports the job's cost,
    /// a noisy one the cost scaled by the fault's factor.
    ///
    /// No attempt, retry or replica lands on a device in `banned` (hedged
    /// execution re-issues a straggling batch on a *different* replica);
    /// if every matching device is banned the jobs report
    /// [`MeasureError::NoDevice`].
    pub fn run_costs(
        &mut self,
        target_name: &str,
        costs_ms: &[f64],
        banned: &[usize],
    ) -> Vec<JobOutcome> {
        let need = self.policy.replicas.max(1);
        let mut jobs: Vec<JobState> = costs_ms
            .iter()
            .map(|_| JobState {
                samples: Vec::new(),
                need,
                attempts: 0,
                failed_attempts: 0,
                remeasured: false,
                backoff_ms: 0.0,
                last_failed_device: None,
                sampled_devices: Vec::new(),
                done: None,
            })
            .collect();
        let any_match = self
            .devices
            .iter()
            .enumerate()
            .any(|(id, d)| d.target.name() == target_name && !banned.contains(&id));
        // Bounded by construction (each round adds a sample or a failure
        // to every unresolved job), but guard against logic slips anyway.
        let round_cap = self.policy.max_attempts + (self.policy.max_replicas.max(3) | 1) + 2;
        for _round in 0..round_cap {
            // Phase 1: plan one attempt per unresolved job.
            self.expire_quarantines();
            let est = self.mean_run_ms();
            let mut pending = vec![0.0f64; self.devices.len()];
            let mut round: Vec<(usize, usize, u64)> = Vec::new();
            for (j, job) in jobs.iter_mut().enumerate() {
                if job.done.is_some() || job.samples.len() >= job.need {
                    continue;
                }
                if !any_match {
                    job.done = Some(Err(MeasureError::NoDevice));
                    continue;
                }
                // Prefer devices this job has not sampled on (replica
                // diversity defeats per-device timer noise) and not the
                // one it just failed on (orphan re-dispatch).
                let mut avoid = job.sampled_devices.clone();
                if let Some(d) = job.last_failed_device {
                    if !avoid.contains(&d) {
                        avoid.push(d);
                    }
                }
                let picked = match self.pick(target_name, &pending, &avoid, banned) {
                    Some(id) => id,
                    None => {
                        // No usable device. Re-admit the quarantined
                        // matching device with the earliest term to avoid
                        // starving the batch; if every matching device is
                        // dead, the job is lost.
                        let candidate = self
                            .devices
                            .iter()
                            .enumerate()
                            .filter(|(id, d)| {
                                d.target.name() == target_name && !banned.contains(id)
                            })
                            .filter_map(|(id, d)| match d.state {
                                DevState::Quarantined { until } => Some((until, id)),
                                _ => None,
                            })
                            .min();
                        match candidate {
                            Some((_, id)) => {
                                self.readmit(id);
                                id
                            }
                            None => {
                                job.done = Some(Err(MeasureError::AllDevicesDead));
                                continue;
                            }
                        }
                    }
                };
                pending[picked] += est;
                self.next_rr = (picked + 1) % self.devices.len();
                let seq = self.devices[picked].attempts;
                self.devices[picked].attempts += 1;
                self.dispatch_clock += 1;
                round.push((j, picked, seq));
            }
            if round.is_empty() {
                break;
            }
            // Phase 2 (job order): commit accounting and health
            // transitions. What an attempt reports is keyed by its
            // (device, attempt number) pair in the fault plan.
            for (j, id, seq) in round {
                let res = match self.fault_plan.fault_at(id, seq) {
                    None => Ok(costs_ms[j]),
                    Some(Fault::Noise(k)) => Ok(costs_ms[j] * k),
                    Some(f) => Err(f),
                };
                let job = &mut jobs[j];
                job.attempts += 1;
                self.stats.attempts += 1;
                match res {
                    Ok(ms) => {
                        let d = &mut self.devices[id];
                        d.busy_ms += ms;
                        d.runs += 1;
                        d.consecutive = 0;
                        if d.state == DevState::Probation {
                            d.state = DevState::Healthy;
                        }
                        job.samples.push(ms);
                        job.sampled_devices.push(id);
                    }
                    Err(fault) => {
                        let was_probation = self.devices[id].state == DevState::Probation;
                        {
                            let d = &mut self.devices[id];
                            d.failures += 1;
                            d.consecutive += 1;
                            match fault {
                                Fault::Hang => {
                                    d.busy_ms += self.policy.timeout_ms;
                                    self.stats.timeouts += 1;
                                }
                                Fault::Crash => {
                                    d.busy_ms += self.policy.timeout_ms;
                                    self.stats.crash_faults += 1;
                                }
                                Fault::Transient => self.stats.transient_errors += 1,
                                Fault::Noise(_) => {}
                            }
                        }
                        if fault == Fault::Crash {
                            self.devices[id].state = DevState::Dead;
                        } else if was_probation
                            || self.devices[id].consecutive >= self.policy.quarantine_after
                        {
                            self.quarantine(id);
                        }
                        job.failed_attempts += 1;
                        job.last_failed_device = Some(id);
                        let backoff = self.policy.backoff_base_ms
                            * (1u64 << (job.failed_attempts - 1).min(16)) as f64;
                        job.backoff_ms += backoff;
                        self.stats.backoff_ms += backoff;
                        if job.failed_attempts >= self.policy.max_attempts {
                            job.done = Some(Err(MeasureError::RetriesExhausted {
                                attempts: job.attempts,
                            }));
                        } else {
                            self.stats.retries += 1;
                        }
                    }
                }
            }
            // Phase 3: settle jobs whose sample sets are full.
            for job in jobs.iter_mut() {
                if job.done.is_none() && job.samples.len() >= job.need {
                    let escalating = job.remeasured;
                    if let Some(ms) = Self::resolve_samples(&self.policy, job) {
                        job.done = Some(Ok(ms));
                    } else if !escalating {
                        self.stats.remeasured_jobs += 1;
                    }
                }
            }
            if jobs.iter().all(|job| job.done.is_some()) {
                break;
            }
        }
        jobs.into_iter()
            .map(|job| {
                let ms = job.done.unwrap_or(Err(MeasureError::RetriesExhausted {
                    attempts: job.attempts,
                }));
                if ms.is_err() {
                    self.stats.failed_jobs += 1;
                }
                // `samples` and `sampled_devices` are parallel arrays, so
                // the accepted timing maps back to the device that
                // produced it (first bitwise match; ties are harmless —
                // identical samples mean identical answers).
                let device = ms.as_ref().ok().and_then(|accepted| {
                    job.samples
                        .iter()
                        .position(|s| s.to_bits() == accepted.to_bits())
                        .and_then(|i| job.sampled_devices.get(i).copied())
                });
                JobOutcome {
                    ms,
                    attempts: job.attempts,
                    samples: job.samples.len(),
                    remeasured: job.remeasured,
                    backoff_ms: job.backoff_ms,
                    device,
                }
            })
            .collect()
    }

    /// "Upload a module": costs each function once on the named device
    /// type with default simulator options, then schedules those costs
    /// ([`Tracker::run_costs`]). A caller that already holds a kernel's
    /// cost, or costs it with its own options, passes the cost instead.
    pub fn run_batch_detailed(
        &mut self,
        target_name: &str,
        funcs: &[&LoweredFunc],
    ) -> Vec<JobOutcome> {
        let device = self.devices.iter().find(|d| d.target.name() == target_name);
        let costs_ms: Vec<f64> = match device {
            Some(d) => funcs
                .par_iter()
                .map(|f| estimate(f, &d.target).millis())
                .collect(),
            // No device of the type: every job reports `NoDevice` unread.
            None => vec![f64::NAN; funcs.len()],
        };
        self.run_costs(target_name, &costs_ms, &[])
    }

    /// [`Tracker::run_batch_detailed`] reduced to each job's measured
    /// milliseconds in job order (`None` when no device matches or the job
    /// failed past its retry budget).
    pub fn run_batch(&mut self, target_name: &str, funcs: &[&LoweredFunc]) -> Vec<Option<f64>> {
        self.run_batch_detailed(target_name, funcs)
            .into_iter()
            .map(|o| o.ms.ok())
            .collect()
    }

    /// Per-device (runs, busy-ms) accounting.
    pub fn stats(&self) -> Vec<(u64, f64)> {
        self.devices.iter().map(|d| (d.runs, d.busy_ms)).collect()
    }

    /// Simulated makespan of the work dispatched so far: the busiest
    /// device's total busy time. With a fleet of N equal devices and
    /// balanced dispatch this is ~1/N of the serial measurement time —
    /// the §5.4 scaling the device pool exists to provide.
    pub fn makespan_ms(&self) -> f64 {
        self.devices.iter().map(|d| d.busy_ms).fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvm_ir::DType;
    use tvm_sim::arm_a53;
    use tvm_te::{compute, create_schedule, lower, placeholder};

    fn sized_func(n: i64, name: &str) -> LoweredFunc {
        let a = placeholder(&[n], DType::float32(), "A");
        let b = compute(&[n], "B", |i| a.at(&[i[0].clone()]) + 1);
        let s = create_schedule(std::slice::from_ref(&b));
        lower(&s, &[a, b], name).expect("lowers")
    }

    fn small_func() -> LoweredFunc {
        sized_func(64, "inc")
    }

    #[test]
    fn round_robin_shares_devices() {
        // Equal devices, equal jobs: least-busy with the round-robin
        // tie-break still splits the work evenly.
        let mut t = Tracker::new(vec![arm_a53(), arm_a53()]);
        let f = small_func();
        for _ in 0..4 {
            assert!(t.run_batch("a53-sim", &[&f])[0].is_some());
        }
        let stats = t.stats();
        assert_eq!(stats[0].0, 2);
        assert_eq!(stats[1].0, 2);
    }

    #[test]
    fn least_busy_device_preferred() {
        // Pre-load device 0 with a large job; subsequent small jobs must
        // all land on the idle device 1 until the load evens out.
        let mut t = Tracker::new(vec![arm_a53(), arm_a53()]);
        let big = sized_func(65536, "big");
        let small = small_func();
        assert_eq!(t.run_batch_detailed("a53-sim", &[&big])[0].device, Some(0));
        for _ in 0..3 {
            let out = t.run_batch_detailed("a53-sim", &[&small]);
            assert_eq!(out[0].device, Some(1), "idle device must absorb the load");
        }
        let stats = t.stats();
        assert_eq!(stats[0].0, 1);
        assert_eq!(stats[1].0, 3);
        assert!(stats[0].1 > stats[1].1, "device 0 still the busiest");
    }

    #[test]
    fn batch_spreads_over_fleet_and_matches_serial_runs() {
        let funcs: Vec<LoweredFunc> = (0..6)
            .map(|i| sized_func(64 * (i + 1), &format!("f{i}")))
            .collect();
        let refs: Vec<&LoweredFunc> = funcs.iter().collect();
        let mut batch = Tracker::new(vec![arm_a53(), arm_a53(), arm_a53()]);
        let ms = batch.run_batch("a53-sim", &refs);
        assert!(ms.iter().all(|m| m.is_some()));
        // Same timings as one device taking the jobs one at a time.
        let mut serial = Tracker::new(vec![arm_a53()]);
        for (f, m) in refs.iter().zip(&ms) {
            assert_eq!(serial.run_batch("a53-sim", &[f]), vec![*m]);
        }
        // Every device did work, and the fleet makespan beats one device.
        let stats = batch.stats();
        assert!(stats.iter().all(|&(runs, _)| runs > 0), "{stats:?}");
        let serial_total: f64 = ms.iter().map(|m| m.expect("ms")).sum();
        assert!(batch.makespan_ms() < serial_total);
    }

    #[test]
    fn batch_is_deterministic_across_worker_counts() {
        let funcs: Vec<LoweredFunc> = (0..5)
            .map(|i| sized_func(128 * (i + 2), &format!("g{i}")))
            .collect();
        let refs: Vec<&LoweredFunc> = funcs.iter().collect();
        let run_with = |threads: usize| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool")
                .install(|| {
                    let mut t = Tracker::new(vec![arm_a53(), arm_a53()]);
                    let out = t.run_batch("a53-sim", &refs);
                    (out, t.stats(), t.pool_stats().clone(), t.health())
                })
        };
        assert_eq!(run_with(1), run_with(4));
    }

    #[test]
    fn batch_with_no_matching_device_yields_none() {
        let funcs = [small_func()];
        let refs: Vec<&LoweredFunc> = funcs.iter().collect();
        let mut t = Tracker::new(vec![arm_a53()]);
        assert_eq!(t.run_batch("titanx-sim", &refs), vec![None]);
        let detail = t.run_batch_detailed("titanx-sim", &refs);
        assert_eq!(detail[0].ms, Err(MeasureError::NoDevice));
    }

    #[test]
    fn transient_fault_retries_on_another_device() {
        // Device 0's first attempt fails transiently; the retry must land
        // on device 1 (orphan re-dispatch) and the job still succeeds.
        let funcs = [small_func()];
        let refs: Vec<&LoweredFunc> = funcs.iter().collect();
        let mut t = Tracker::new(vec![arm_a53(), arm_a53()]);
        let mut plan = FaultPlan::none();
        plan.inject(0, 0, Fault::Transient);
        t.set_fault_plan(plan);
        let out = t.run_batch_detailed("a53-sim", &refs);
        assert!(out[0].ms.is_ok(), "{:?}", out[0]);
        assert_eq!(out[0].attempts, 2);
        assert!(out[0].backoff_ms > 0.0);
        let health = t.health();
        assert_eq!(health[0].failures, 1);
        assert_eq!(health[1].runs, 1);
        assert_eq!(t.pool_stats().retries, 1);
        assert_eq!(t.pool_stats().transient_errors, 1);
    }

    #[test]
    fn crash_kills_device_and_work_reroutes() {
        let funcs: Vec<LoweredFunc> = (0..4)
            .map(|i| sized_func(64 * (i + 1), &format!("c{i}")))
            .collect();
        let refs: Vec<&LoweredFunc> = funcs.iter().collect();
        let mut t = Tracker::new(vec![arm_a53(), arm_a53()]);
        let mut plan = FaultPlan::none();
        plan.kill_from(0, 0);
        t.set_fault_plan(plan);
        let out = t.run_batch_detailed("a53-sim", &refs);
        assert!(out.iter().all(|o| o.ms.is_ok()), "{out:?}");
        let health = t.health();
        assert!(health[0].dead);
        assert_eq!(health[1].runs, 4);
        assert!(t.pool_stats().crash_faults >= 1);
    }

    #[test]
    fn all_devices_dead_is_reported_not_panicked() {
        let funcs = [small_func()];
        let refs: Vec<&LoweredFunc> = funcs.iter().collect();
        let mut t = Tracker::new(vec![arm_a53()]);
        let mut plan = FaultPlan::none();
        plan.kill_from(0, 0);
        t.set_fault_plan(plan);
        let out = t.run_batch_detailed("a53-sim", &refs);
        assert_eq!(out[0].ms, Err(MeasureError::AllDevicesDead));
        assert_eq!(t.run_batch("a53-sim", &refs), vec![None]);
    }

    #[test]
    fn hang_charges_timeout_budget() {
        let funcs = [small_func()];
        let refs: Vec<&LoweredFunc> = funcs.iter().collect();
        let mut t = Tracker::new(vec![arm_a53(), arm_a53()]);
        t.set_retry_policy(RetryPolicy {
            timeout_ms: 123.0,
            ..RetryPolicy::default()
        });
        let mut plan = FaultPlan::none();
        plan.inject(0, 0, Fault::Hang);
        t.set_fault_plan(plan);
        let out = t.run_batch_detailed("a53-sim", &refs);
        assert!(out[0].ms.is_ok());
        let health = t.health();
        assert!((health[0].busy_ms - 123.0).abs() < 1e-9, "{health:?}");
        assert_eq!(t.pool_stats().timeouts, 1);
    }

    #[test]
    fn repeated_failures_trip_the_circuit_breaker() {
        // Device 0 fails its first three attempts; with quarantine_after=2
        // it must be quarantined while device 1 absorbs the batch.
        let funcs: Vec<LoweredFunc> = (0..6).map(|i| sized_func(64, &format!("q{i}"))).collect();
        let refs: Vec<&LoweredFunc> = funcs.iter().collect();
        let mut t = Tracker::new(vec![arm_a53(), arm_a53()]);
        t.set_retry_policy(RetryPolicy {
            quarantine_after: 2,
            ..RetryPolicy::default()
        });
        let mut plan = FaultPlan::none();
        for a in 0..3 {
            plan.inject(0, a, Fault::Transient);
        }
        t.set_fault_plan(plan);
        let out = t.run_batch_detailed("a53-sim", &refs);
        assert!(out.iter().all(|o| o.ms.is_ok()), "{out:?}");
        assert!(t.pool_stats().quarantines >= 1);
        let health = t.health();
        assert!(health[0].quarantines >= 1);
        assert_eq!(health[1].quarantines, 0);
    }

    #[test]
    fn quarantined_device_readmitted_on_probation() {
        // Single-device fleet: two transient failures quarantine it, the
        // scheduler re-admits it on probation rather than starving the
        // batch, and the now-fault-free device recovers to Healthy.
        let funcs = [small_func()];
        let refs: Vec<&LoweredFunc> = funcs.iter().collect();
        let mut t = Tracker::new(vec![arm_a53()]);
        t.set_retry_policy(RetryPolicy {
            quarantine_after: 2,
            probation_dispatches: 2,
            ..RetryPolicy::default()
        });
        let mut plan = FaultPlan::none();
        plan.inject(0, 0, Fault::Transient);
        plan.inject(0, 1, Fault::Transient);
        t.set_fault_plan(plan);
        let out = t.run_batch_detailed("a53-sim", &refs);
        assert!(out.iter().all(|o| o.ms.is_ok()), "{out:?}");
        let health = t.health();
        assert_eq!(health[0].quarantines, 1);
        assert!(health[0].runs > 0, "device 0 must recover: {health:?}");
        assert!(!health[0].quarantined);
        assert_eq!(t.pool_stats().readmissions, 1);
    }

    #[test]
    fn noisy_timing_rejected_by_median_vote() {
        // Noise on device 0 attempt 0 scales the reported latency 10x.
        // With replicas=2 the disagreement escalates to a median-of-3+
        // vote whose clean majority recovers the true timing exactly.
        let funcs = [small_func()];
        let refs: Vec<&LoweredFunc> = funcs.iter().collect();
        let truth = Tracker::new(vec![arm_a53()]).run_batch("a53-sim", &refs)[0].expect("clean");
        let mut t = Tracker::new(vec![arm_a53(), arm_a53(), arm_a53()]);
        t.set_retry_policy(RetryPolicy {
            replicas: 2,
            ..RetryPolicy::default()
        });
        let mut plan = FaultPlan::none();
        plan.inject(0, 0, Fault::Noise(10.0));
        t.set_fault_plan(plan);
        let out = t.run_batch_detailed("a53-sim", &refs);
        assert_eq!(out[0].ms, Ok(truth), "{out:?}");
        assert!(out[0].remeasured);
        assert!(out[0].samples >= 3);
        assert_eq!(t.pool_stats().remeasured_jobs, 1);
    }

    #[test]
    fn replicas_agreeing_do_not_escalate() {
        let funcs = [small_func()];
        let refs: Vec<&LoweredFunc> = funcs.iter().collect();
        let mut t = Tracker::new(vec![arm_a53(), arm_a53()]);
        t.set_retry_policy(RetryPolicy {
            replicas: 2,
            ..RetryPolicy::default()
        });
        let out = t.run_batch_detailed("a53-sim", &refs);
        assert!(out[0].ms.is_ok());
        assert!(!out[0].remeasured);
        assert_eq!(out[0].samples, 2);
    }

    #[test]
    fn retries_exhausted_is_a_job_outcome() {
        // One device, always transient: the job fails after max_attempts
        // without aborting the process, and the batch reports it.
        let funcs = [small_func()];
        let refs: Vec<&LoweredFunc> = funcs.iter().collect();
        let mut t = Tracker::new(vec![arm_a53()]);
        t.set_retry_policy(RetryPolicy {
            max_attempts: 3,
            quarantine_after: 100,
            ..RetryPolicy::default()
        });
        let mut plan = FaultPlan::none();
        for a in 0..16 {
            plan.inject(0, a, Fault::Transient);
        }
        t.set_fault_plan(plan);
        let out = t.run_batch_detailed("a53-sim", &refs);
        assert_eq!(
            out[0].ms,
            Err(MeasureError::RetriesExhausted { attempts: 3 })
        );
        assert_eq!(t.pool_stats().failed_jobs, 1);
    }

    #[test]
    fn accepted_sample_is_attributed_to_its_device() {
        let funcs = [small_func()];
        let refs: Vec<&LoweredFunc> = funcs.iter().collect();
        // Transient on device 0: the accepted sample must come from 1.
        let mut t = Tracker::new(vec![arm_a53(), arm_a53()]);
        let mut plan = FaultPlan::none();
        plan.inject(0, 0, Fault::Transient);
        t.set_fault_plan(plan);
        let out = t.run_batch_detailed("a53-sim", &refs);
        assert!(out[0].ms.is_ok());
        assert_eq!(out[0].device, Some(1));
        // A failed job attributes no device.
        let mut dead = Tracker::new(vec![arm_a53()]);
        let mut plan = FaultPlan::none();
        plan.kill_from(0, 0);
        dead.set_fault_plan(plan);
        let out = dead.run_batch_detailed("a53-sim", &refs);
        assert_eq!(out[0].device, None);
    }

    #[test]
    fn banned_devices_are_never_dispatched() {
        let costs = [0.25; 4];
        let mut t = Tracker::new(vec![arm_a53(), arm_a53(), arm_a53()]);
        let out = t.run_costs("a53-sim", &costs, &[0]);
        assert!(out.iter().all(|o| o.ms == Ok(0.25)), "{out:?}");
        assert!(out.iter().all(|o| o.device != Some(0)), "{out:?}");
        let health = t.health();
        assert_eq!(health[0].attempts, 0, "banned device was dispatched");
        // Banning every matching device fails typed, not panicking.
        let out = t.run_costs("a53-sim", &costs, &[0, 1, 2]);
        assert!(out.iter().all(|o| o.ms == Err(MeasureError::NoDevice)));
    }

    #[test]
    fn chaos_batch_deterministic_across_worker_counts() {
        let funcs: Vec<LoweredFunc> = (0..8)
            .map(|i| sized_func(64 * (i + 1), &format!("d{i}")))
            .collect();
        let refs: Vec<&LoweredFunc> = funcs.iter().collect();
        let run_with = |threads: usize| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool")
                .install(|| {
                    let mut t = Tracker::new(vec![arm_a53(), arm_a53(), arm_a53()]);
                    t.set_retry_policy(RetryPolicy::fault_tolerant());
                    t.set_fault_plan(FaultPlan::seeded(
                        99,
                        tvm_sim::FaultRates {
                            crash: 0.01,
                            hang: 0.05,
                            transient: 0.1,
                            noise: 0.1,
                            noise_factor: 6.0,
                        },
                    ));
                    let out = t.run_batch("a53-sim", &refs);
                    (out, t.stats(), t.pool_stats().clone(), t.health())
                })
        };
        assert_eq!(run_with(1), run_with(4));
    }
}
