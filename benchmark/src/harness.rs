//! What every workload shares: the metric tables, the seeded generator, the
//! percentile rule, the timed-pass loop and the report.
//!
//! A *pass* is a fixed, seeded list of timed calls (the same operations on
//! every commit); a run repeats whole passes until `--seconds` is used up.
//!
//! The sizing host is a shared two-core VM that alternates between phases in
//! which allocation- and pointer-heavy code (this stack) runs 20-30 % slower
//! for minutes at a time: whole runs land in one phase, so no statistic
//! inside a run steadies the raw times (the median pass wall moved 25 %
//! between runs). The benchmark therefore times a fixed *reference loop* of
//! its own, of the same character, before and after every pass, and divides
//! every timed value of the pass by its *speed factor* (loop time over the
//! loop's time on the undisturbed host). End-to-end times are thus in
//! "reference-host" seconds; the factor itself is reported, and between runs
//! the normalised median pass moved 6-9 %.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicIsize, Ordering};
use std::time::Instant;

use crate::trace::Recorder;

/// An end-to-end metric: what a user of the stack sees. `bound` is the share
/// of the parent's median by which it may get worse before a change counts
/// as a regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

/// All host wall-clock (or host memory): the simulated and virtual clocks are
/// exact functions of the seed, so they live in [`PER_LAYER`] and are gated by
/// exact repetition instead of a noise bound.
#[rustfmt::skip]
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd { name: "setup_s", unit: "s", better: "lower", bound: 0.25 },
    EndToEnd { name: "ops_per_s", unit: "op/s", better: "higher", bound: 0.25 },
    EndToEnd { name: "op_p50_ms", unit: "ms", better: "lower", bound: 0.25 },
    EndToEnd { name: "op_tail_ms", unit: "ms", better: "lower", bound: 0.25 },
    EndToEnd { name: "peak_heap_mb", unit: "MiB", better: "lower", bound: 0.10 },
];

/// A per-layer metric and the end-to-end metric it is expected to move.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub moves: &'static str,
    /// A count or an exact clock: must repeat bit for bit for one seed.
    pub exact: bool,
}

const fn pl(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
        exact: false,
    }
}

const fn exact(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
        exact: true,
    }
}

/// Every per-layer metric, reported by every workload; a layer a workload
/// never enters reads 0 there.
#[rustfmt::skip]
pub const PER_LAYER: [PerLayer; 63] = [
    pl("graph.fuse_s", "s", "lower", "ops_per_s@compile_zoo"),
    pl("graph.plan_memory_s", "s", "lower", "ops_per_s@compile_zoo"),
    pl("graph.verify_s", "s", "lower", "ops_per_s@compile_zoo with validation hooks on"),
    pl("graph.layout_s", "s", "lower", "ops_per_s@compile_zoo once build runs the layout pass"),
    exact("graph.groups", "count", "lower", "sim.op_ms@compile_zoo"),
    exact("graph.arena_bytes", "count", "lower", "peak_heap_mb@infer_*"),
    pl("core.build_s", "s", "lower", "ops_per_s,op_tail_ms@compile_zoo; setup_s@infer_*,serve_*"),
    pl("core.resid_s", "s", "lower", "ops_per_s@compile_zoo"),
    exact("core.kernels", "count", "lower", "sim.op_ms@compile_zoo"),
    exact("core.attach_share", "ratio", "higher", "sim.op_ms@compile_zoo"),
    pl("te.plan_s", "s", "lower", "ops_per_s@tune_ops,compile_zoo"),
    pl("te.emit_s", "s", "lower", "ops_per_s@tune_ops,compile_zoo"),
    exact("te.lowerings", "count", "lower", "ops_per_s@tune_ops,compile_zoo"),
    exact("te.plan_hits", "count", "higher", "ops_per_s@tune_ops"),
    exact("te.plan_misses", "count", "lower", "ops_per_s@tune_ops"),
    pl("te.lock_wait_ns", "ns", "lower", "ops_per_s@tune_ops"),
    pl("topi.schedule_s", "s", "lower", "ops_per_s@tune_ops,compile_zoo"),
    pl("topi.task_build_s", "s", "lower", "ops_per_s@tune_ops"),
    exact("topi.invalid_share", "ratio", "lower", "ops_per_s@tune_ops"),
    pl("analysis.check_s", "s", "lower", "ops_per_s@compile_zoo with validation hooks on"),
    exact("analysis.rejected", "count", "lower", "failed@compile_zoo with validation hooks on"),
    pl("sim.analyze_s", "s", "lower", "ops_per_s@tune_ops,compile_zoo,serve_engine"),
    pl("sim.cost_s", "s", "lower", "ops_per_s@tune_ops,compile_zoo,serve_engine"),
    exact("sim.kernels", "count", "lower", "ops_per_s@tune_ops,compile_zoo"),
    exact("sim.op_ms", "sim_ms", "lower", "the simulated clock itself; exact per seed"),
    pl("autotune.features_s", "s", "lower", "ops_per_s@tune_ops"),
    pl("autotune.fit_s", "s", "lower", "ops_per_s@tune_ops"),
    pl("autotune.predict_s", "s", "lower", "ops_per_s@tune_ops"),
    pl("autotune.measure_s", "s", "lower", "ops_per_s@tune_ops"),
    pl("autotune.anneal_s", "s", "lower", "ops_per_s@tune_ops"),
    exact("autotune.lowerings", "count", "lower", "ops_per_s@tune_ops"),
    exact("autotune.simulations", "count", "lower", "ops_per_s@tune_ops"),
    exact("autotune.lookups", "count", "lower", "ops_per_s@tune_ops"),
    exact("autotune.memo_hit_share", "ratio", "higher", "ops_per_s@tune_ops"),
    pl("autotune.trials_per_s_1t", "op/s", "higher", "ops_per_s@tune_ops"),
    pl("autotune.scale_2t", "ratio", "higher", "ops_per_s@tune_ops"),
    pl("autotune.journal_append_s", "s", "lower", "ops_per_s@tune_ops when journaling"),
    pl("autotune.pool_batch_s", "s", "lower", "ops_per_s@serve_engine"),
    pl("ir.interp_s", "s", "lower", "ops_per_s,op_p50_ms@infer_*,serve_mix"),
    exact("ir.stores", "count", "lower", "ops_per_s@infer_*,serve_mix"),
    pl("ir.stores_per_s", "1/s", "higher", "ops_per_s@infer_*,serve_mix"),
    pl("runtime.run_s", "s", "lower", "ops_per_s@infer_*"),
    pl("runtime.overhead_s", "s", "lower", "ops_per_s@infer_*"),
    pl("runtime.exec_new_s", "s", "lower", "ops_per_s@serve_engine"),
    pl("serve.run_s", "s", "lower", "ops_per_s@serve_*"),
    pl("serve.engine_s", "s", "lower", "ops_per_s@serve_engine"),
    pl("serve.engine_share", "ratio", "lower", "ops_per_s@serve_engine"),
    exact("serve.batches", "count", "lower", "ops_per_s@serve_*"),
    exact("serve.mean_batch", "count", "higher", "ops_per_s@serve_mix"),
    exact("serve.cache_cold_builds", "count", "lower", "op_tail_ms@serve_*"),
    exact("serve.cache_hits", "count", "higher", "ops_per_s@serve_*"),
    exact("serve.pool_attempts", "count", "lower", "ops_per_s@serve_engine"),
    exact("serve.pool_retries", "count", "lower", "serve.virt_p99_ms@serve_mix"),
    exact("serve.shed", "count", "lower", "failed@serve_*"),
    exact("serve.virt_goodput_rps", "1/s", "higher", "the virtual clock itself; exact per seed"),
    exact("serve.virt_p50_ms", "virt_ms", "lower", "the virtual clock itself; exact per seed"),
    exact("serve.virt_p99_ms", "virt_ms", "lower", "the virtual clock itself; exact per seed"),
    pl("bench.trace_overhead_share", "ratio", "lower", "none: the cost of recording spans"),
    pl("bench.speed_factor", "ratio", "lower", "the host, not the code: reference-loop time over its undisturbed time; per-layer times are as measured"),
    pl("bench.fail_share", "ratio", "lower", "failed / attempted of the traced run"),
    pl("bench.peak_rss_mb", "MiB", "lower", "VmHWM of the traced run; peak_heap_mb is the steady memory metric"),
    pl("bench.timed_calls", "count", "higher", "sample count behind op_p50_ms and op_tail_ms"),
    pl("bench.passes", "count", "higher", "sample count behind ops_per_s"),
];

/// Times the setup is repeated in one run; `setup_s` is the median.
const SETUPS: usize = 5;

/// Seconds [`reference_loop`] takes on the sizing host in a quiet phase:
/// speed factor 1.
const REFERENCE_LOOP_S: f64 = 0.010;

/// The reference loop: evaluates small `Arc` expression trees recursively
/// against a `HashMap` environment — the pointer chasing, hashing and
/// floating point the stack itself is made of, so it slows down when the
/// stack does. It allocates nothing per iteration (the trees are built once,
/// before any workload runs), so the state of the heap does not move it.
/// Part of the benchmark, never of the program under test. Returns its wall
/// seconds.
fn reference_loop() -> f64 {
    use std::collections::HashMap;
    use std::sync::{Arc, OnceLock};
    enum E {
        Num(f64),
        Var(u32),
        Add(Arc<E>, Arc<E>),
        Mul(Arc<E>, Arc<E>),
    }
    fn eval(e: &E, env: &HashMap<u32, f64>) -> f64 {
        match e {
            E::Num(x) => *x,
            E::Var(v) => env[v],
            E::Add(a, b) => eval(a, env) + eval(b, env),
            E::Mul(a, b) => eval(a, env) * eval(b, env),
        }
    }
    static TREES: OnceLock<Vec<Arc<E>>> = OnceLock::new();
    let trees = TREES.get_or_init(|| {
        (0..64u32)
            .map(|k| {
                let mut e = Arc::new(E::Var(k % 16));
                for d in 0..8u32 {
                    let leaf = if d % 2 == 0 {
                        E::Num(f64::from(d))
                    } else {
                        E::Var((k + d) % 16)
                    };
                    let leaf = Arc::new(leaf);
                    e = Arc::new(if d % 3 == 0 {
                        E::Mul(e, leaf)
                    } else {
                        E::Add(e, leaf)
                    });
                }
                e
            })
            .collect()
    });
    let t0 = Instant::now();
    let mut env: HashMap<u32, f64> = (0..16).map(|v| (v, f64::from(v) * 0.5)).collect();
    let mut acc = 0.0;
    for k in 0..80_000u32 {
        let v = eval(&trees[(k % 64) as usize], &env) % 7.0;
        env.insert(k % 16, v);
        acc += v;
    }
    std::hint::black_box(acc);
    t0.elapsed().as_secs_f64()
}

/// How much slower than the undisturbed sizing host the machine is around
/// something bracketed by two reference loops.
fn speed_factor(before_s: f64, after_s: f64) -> f64 {
    (before_s + after_s) / 2.0 / REFERENCE_LOOP_S
}

/// splitmix64: the benchmark's own generator, so the program under test only
/// ever sees generated inputs.
pub struct Rng(u64);

impl Rng {
    /// An independent stream for one purpose (`tag`) of one seed.
    pub fn derive(seed: u64, tag: u64) -> Rng {
        let mut r = Rng(seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

/// Samples strictly beyond the nearest-rank `q` percentile of `n` samples.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - 1 - ((n - 1) as f64 * q).round() as usize
}

/// The tail rule: the highest of p99/p95/p90/p75 that still has at least ten
/// samples beyond it. Each workload fixes its percentile with this rule at
/// the sample count it reaches in `run_seconds` on the sizing host (so the
/// metric keeps one meaning when the code gets faster); the run reports how
/// many samples were actually beyond it.
pub fn tail_percentile(n: usize) -> Option<f64> {
    [0.99, 0.95, 0.90, 0.75]
        .into_iter()
        .find(|&q| samples_beyond(n, q) >= 10)
}

pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Counts the bytes the process has live on the heap. `VmHWM` moves by 30 %
/// between identical two-worker runs (glibc gives the pool's short-lived
/// threads arenas of their own, and which ones depends on timing); the peak
/// of the bytes actually requested does not.
pub struct CountingAlloc;

static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);
static PEAK_BYTES: AtomicIsize = AtomicIsize::new(0);

/// Bytes a thread may allocate or free before it tells the shared counters:
/// two workers updating one atomic on every allocation run the tuner at 40 %
/// of its speed.
const FLUSH_BYTES: isize = 16 * 1024;

/// A thread's allocations not yet added to [`LIVE_BYTES`].
struct Pending(Cell<isize>);

impl Pending {
    fn flush(&self) {
        // Relaxed: the counters are statistics and publish no other data.
        let delta = self.0.replace(0);
        let live = LIVE_BYTES.fetch_add(delta, Ordering::Relaxed) + delta;
        if live > PEAK_BYTES.load(Ordering::Relaxed) {
            PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
        }
    }
}

impl Drop for Pending {
    /// The pool's threads are short-lived and hand their results to the
    /// caller, so what they leave unflushed would add up.
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static PENDING: Pending = const { Pending(Cell::new(0)) };
}

fn note_alloc(bytes: isize) {
    let noted = PENDING.try_with(|p| {
        p.0.set(p.0.get() + bytes);
        if p.0.get().abs() >= FLUSH_BYTES {
            p.flush();
        }
    });
    if noted.is_err() {
        // The thread is past its destructors: count directly.
        LIVE_BYTES.fetch_add(bytes, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocated memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's obligations for `alloc` are passed on as they are.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            note_alloc(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note_alloc(-(layout.size() as isize));
        // SAFETY: `ptr` came from `System` through this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            note_alloc(layout.size() as isize);
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System` through this allocator with
        // `layout`; the caller guarantees `new_size` is valid for its alignment.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            note_alloc(new_size as isize - layout.size() as isize);
        }
        p
    }
}

/// Peak of the bytes live on the heap so far, in MiB (to within
/// [`FLUSH_BYTES`] per thread).
pub fn peak_heap_mb() -> f64 {
    PEAK_BYTES.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}

/// `VmHWM` of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Failures and counts a workload accumulates over passes and checks.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted in timed passes.
    pub attempted: u64,
    /// Operations that errored, answered wrongly, or were refused.
    pub failed: u64,
    /// Output or determinism checks that did not hold; any entry makes the
    /// run incorrect.
    pub check_failures: Vec<String>,
}

impl Outcome {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            if self.check_failures.len() < 20 {
                self.check_failures.push(what());
            }
        }
    }
}

pub type Metrics = BTreeMap<&'static str, f64>;

/// One workload: a seeded setup, a fixed pass of timed calls, output checks
/// and layer probes on the same inputs.
pub trait Workload: Sized {
    const NAME: &'static str;
    /// Percentile behind `op_tail_ms` (see [`tail_percentile`]).
    const TAIL_Q: f64;
    /// Passes that always run; the exact-clock metrics, the memory metric and
    /// the repeat check use only these, so they do not depend on how fast
    /// the host is.
    const FIXED_PASSES: usize;
    /// Whether the timed calls keep two workers busy. The reference loop runs
    /// on one thread and tracks single-threaded work; it does not track a
    /// workload that occupies both cores (over ten runs `tune_ops` spread 8 %
    /// as measured and 13 % normalised), so such a workload reports its
    /// times as measured.
    const PARALLEL: bool = false;

    /// Builds the inputs from the seed and warms up, untimed by the metrics
    /// other than `setup_s`.
    fn setup(seed: u64) -> Self;

    fn ops_per_pass(&self) -> u64;

    /// Runs pass `idx`: the same operations every time it is asked for the
    /// same `idx`. Each timed call goes through `rec` and pushes its wall
    /// seconds to `calls`; anything else in here is untimed.
    fn pass(&mut self, idx: usize, rec: &mut Recorder, calls: &mut Vec<f64>, out: &mut Outcome);

    /// Output checks that need the whole run.
    fn finish(&mut self, out: &mut Outcome);

    /// Probes each layer's public functions on this workload's inputs.
    /// `scratch` is a directory the probes may write files into.
    fn probes(
        &mut self,
        rec: &mut Recorder,
        layer: &mut Metrics,
        out: &mut Outcome,
        scratch: &std::path::Path,
    );
}

pub struct RunCfg {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where the Chrome trace goes.
    pub out_dir: std::path::PathBuf,
}

pub struct Report {
    pub outcome: Outcome,
    pub metrics: Metrics,
    /// Sample counts and the like, for the human-readable lines.
    pub notes: Vec<String>,
}

struct Passes {
    /// Timed calls of each pass, in reference-host seconds.
    calls: Vec<Vec<f64>>,
    /// Speed factor of each pass, by which its calls were divided.
    factors: Vec<f64>,
    /// Peak heap when the fixed passes were done: the later passes depend on
    /// the host's speed, and anything the stack never frees grows with them.
    peak_heap_mb: f64,
}

impl Passes {
    /// Sum of the timed calls of each pass.
    fn walls(&self) -> Vec<f64> {
        self.calls.iter().map(|c| c.iter().sum()).collect()
    }

    /// The median call of each pass. A pass is a complete replicate of the
    /// workload's mix, so the median over passes of this is steadier than a
    /// median over all calls, which sits on the border between two kinds of
    /// op when their times are close.
    fn median_calls(&self) -> Vec<f64> {
        self.calls.iter().map(|c| median(c)).collect()
    }

    /// Every timed call, ascending.
    fn sorted_calls(&self) -> Vec<f64> {
        let mut calls: Vec<f64> = self.calls.iter().flatten().copied().collect();
        calls.sort_by(f64::total_cmp);
        calls
    }
}

/// Repeats whole passes until the next one would overrun `seconds`, with a
/// reference loop between passes. With `paired`, every pass runs twice,
/// first recording spans and then not, so the two halves of a pair do
/// identical work.
fn timed_passes<W: Workload>(
    w: &mut W,
    seconds: f64,
    paired: bool,
    rec: &mut Recorder,
    out: &mut Outcome,
) -> Passes {
    let mut p = Passes {
        calls: Vec::new(),
        factors: Vec::new(),
        peak_heap_mb: 0.0,
    };
    let started = Instant::now();
    let mut gross = Vec::new();
    let runs_per_pass = if paired { 2 } else { 1 };
    let mut loop_before = reference_loop();
    loop {
        let run = p.calls.len();
        let idx = run / runs_per_pass;
        rec.set_on(paired && run.is_multiple_of(2));
        let mut calls = Vec::new();
        let t0 = Instant::now();
        w.pass(idx, rec, &mut calls, out);
        let loop_after = reference_loop();
        gross.push(t0.elapsed().as_secs_f64());
        let factor = if W::PARALLEL {
            1.0
        } else {
            speed_factor(loop_before, loop_after)
        };
        p.calls
            .push(calls.into_iter().map(|c| c / factor).collect());
        p.factors.push(factor);
        if p.calls.len() == W::FIXED_PASSES * runs_per_pass {
            p.peak_heap_mb = peak_heap_mb();
        }
        loop_before = loop_after;
        out.attempted += w.ops_per_pass();
        let pass_done = (run + 1).is_multiple_of(runs_per_pass);
        let next = median(&gross) * runs_per_pass as f64;
        if pass_done
            && idx + 1 >= W::FIXED_PASSES
            && started.elapsed().as_secs_f64() + next > seconds
        {
            break;
        }
    }
    rec.set_on(paired);
    p
}

pub fn run<W: Workload>(cfg: &RunCfg) -> Report {
    let mut out = Outcome::default();
    let mut metrics = Metrics::new();
    let mut notes = Vec::new();
    let mut rec = Recorder::new(false);
    // Builds the reference loop's trees on a fresh heap.
    reference_loop();

    if !cfg.trace {
        let mut setups = Vec::new();
        let mut w = None;
        let mut loop_before = reference_loop();
        for _ in 0..SETUPS {
            // Free the previous set-up first, so they do not add up in the heap.
            drop(w.take());
            let t0 = Instant::now();
            w = Some(W::setup(cfg.seed));
            let wall = t0.elapsed().as_secs_f64();
            let loop_after = reference_loop();
            setups.push(wall / speed_factor(loop_before, loop_after));
            loop_before = loop_after;
        }
        let mut w = w.expect("SETUPS > 0");
        let p = timed_passes(&mut w, cfg.seconds, false, &mut rec, &mut out);
        w.finish(&mut out);
        let calls = p.sorted_calls();
        metrics.insert("setup_s", median(&setups));
        metrics.insert("ops_per_s", w.ops_per_pass() as f64 / median(&p.walls()));
        metrics.insert("op_p50_ms", median(&p.median_calls()) * 1e3);
        metrics.insert("op_tail_ms", percentile(&calls, W::TAIL_Q) * 1e3);
        metrics.insert("peak_heap_mb", p.peak_heap_mb);
        notes.push(format!(
            "{} passes, {} timed calls, tail = p{:.0} with {} samples beyond it (rule at this count: {})",
            p.calls.len(),
            calls.len(),
            W::TAIL_Q * 100.0,
            samples_beyond(calls.len(), W::TAIL_Q),
            tail_percentile(calls.len()).map_or("none".to_string(), |q| format!("p{:.0}", q * 100.0)),
        ));
        let raw: Vec<f64> = p
            .walls()
            .iter()
            .zip(&p.factors)
            .map(|(w, f)| w * f)
            .collect();
        notes.push(format!(
            "speed factor {:.3} (median over passes); as measured: {:.4} op/s",
            median(&p.factors),
            w.ops_per_pass() as f64 / median(&raw),
        ));
    } else {
        let mut w = W::setup(cfg.seed);
        let mut layer = Metrics::new();
        // Half the time on traced/untraced pairs of passes, the rest is left
        // for the probes.
        let p = timed_passes(&mut w, cfg.seconds / 2.0, true, &mut rec, &mut out);
        w.finish(&mut out);
        // Each pair is one pass traced, then the same pass untraced.
        let walls = p.walls();
        let overhead: Vec<f64> = walls
            .chunks(2)
            .map(|pair| pair[0] / pair[1] - 1.0)
            .collect();
        layer.insert("bench.trace_overhead_share", median(&overhead));
        layer.insert("bench.speed_factor", median(&p.factors));
        layer.insert(
            "bench.timed_calls",
            p.calls.iter().map(Vec::len).sum::<usize>() as f64,
        );
        layer.insert("bench.passes", walls.len() as f64);
        w.probes(&mut rec, &mut layer, &mut out, &cfg.out_dir);
        layer.insert(
            "bench.fail_share",
            out.failed as f64 / out.attempted.max(1) as f64,
        );
        layer.insert("bench.peak_rss_mb", peak_rss_mb());
        for m in &PER_LAYER {
            metrics.insert(m.name, layer.remove(m.name).unwrap_or(0.0));
        }
        assert!(
            layer.is_empty(),
            "probe reported undeclared metrics: {:?}",
            layer.keys()
        );
        for (name, t) in rec.totals() {
            notes.push(format!(
                "span {name}: {} calls, total {:.6} s, self {:.6} s",
                t.count, t.total_s, t.self_s
            ));
        }
        let path = cfg.out_dir.join(format!("trace-{}.json", W::NAME));
        if let Err(e) = std::fs::create_dir_all(&cfg.out_dir).and_then(|()| rec.write_chrome(&path))
        {
            out.check_failures
                .push(format!("writing {}: {e}", path.display()));
        }
    }
    Report {
        outcome: out,
        metrics,
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(39), None);
        // 40 samples: p75 is index 29, leaving exactly ten beyond it.
        assert_eq!(samples_beyond(40, 0.75), 10);
        assert_eq!(tail_percentile(40), Some(0.75));
        assert_eq!(tail_percentile(96), Some(0.75));
        assert_eq!(tail_percentile(97), Some(0.90));
        assert_eq!(tail_percentile(191), Some(0.90));
        assert_eq!(tail_percentile(192), Some(0.95));
        assert_eq!(tail_percentile(951), Some(0.95));
        assert_eq!(tail_percentile(952), Some(0.99));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 0.5), 51.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn rng_repeats_per_seed_and_shuffle_permutes() {
        let mut a = Rng::derive(7, 1);
        let mut b = Rng::derive(7, 1);
        let mut c = Rng::derive(7, 2);
        let xs: Vec<u64> = (0..4).map(|_| a.next_u64()).collect();
        assert_eq!(xs, (0..4).map(|_| b.next_u64()).collect::<Vec<_>>());
        assert_ne!(xs, (0..4).map(|_| c.next_u64()).collect::<Vec<_>>());
        let mut v: Vec<u32> = (0..50).collect();
        a.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted);
    }

    #[test]
    fn metric_names_are_unique_and_in_the_contract_alphabet() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        for n in &names {
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
    }
}
