//! `tvm-obs` — the observability layer: hierarchical timed spans and
//! counters behind a thread-safe registry, with two exporters (a
//! human-readable span tree and Chrome `trace_event` JSON).
//!
//! Four crates report spans into this crate: `tvm-te` (`te::lower` times
//! its passes), `tvm-autotune` (the tuner's phases), `tvm-runtime` (the
//! graph executor's kernels) and `tvm-serve` (requests and artifact
//! builds). `tvm-graph`, `tvm-sim`, `tvm::build` and `tvm-analysis` emit
//! none yet; instrumenting them is ROADMAP item 5's "Attributed builds".
//! Counters are only for what nothing else owns (the executor's
//! `runtime.*` counts): a per-run count lives in its run's report
//! (`TuneStats`, `ServiceStats`) and is not copied here, because one
//! process-global registry sums every concurrent tuner or service.
//!
//! The crate is deliberately **zero-dependency** (std only) so it can sit
//! below everything else without cycles, and recording is designed so that
//! a *disabled* registry costs one relaxed atomic load per call site — hot
//! paths stay hot.
//!
//! Ordering is deterministic: every span carries a global begin sequence
//! number, sibling spans in the tree summary are ordered by first
//! appearance, and counters live in a sorted map — so two runs of a
//! deterministic program produce identically *shaped* reports (wall-clock
//! durations naturally vary). Worker threads from the vendored rayon
//! stand-in record concurrently; each thread keeps its own span stack, so
//! parallel sections nest correctly per thread.
//!
//! ```
//! use tvm_obs::Registry;
//! let reg = Registry::new();
//! reg.set_enabled(true);
//! {
//!     let _outer = reg.span("compile");
//!     let _inner = reg.span("lower");
//! } // guards record on drop
//! reg.counter_add("kernels", 1);
//! assert!(reg.summary_tree().contains("lower"));
//! assert!(reg.chrome_trace().starts_with('{'));
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

/// Hard cap on buffered span events per registry; beyond it events are
/// counted but dropped, so a runaway loop cannot exhaust memory.
const MAX_EVENTS: usize = 1 << 20;

/// One finished span occurrence.
#[derive(Clone, Debug)]
pub struct SpanEvent {
    /// Full hierarchical path, segments joined with `/` (e.g.
    /// `te.lower/emit`). The hierarchy comes from guard nesting on the
    /// recording thread.
    pub path: String,
    /// Nanoseconds from the registry epoch to span begin.
    pub start_ns: u64,
    /// Span duration in nanoseconds.
    pub dur_ns: u64,
    /// Global begin order (deterministic tiebreak for sorting).
    pub seq: u64,
    /// Stable per-process thread ordinal (0 = first recording thread).
    pub tid: usize,
    /// Key/value annotations for the trace exporter.
    pub args: Vec<(String, String)>,
}

impl SpanEvent {
    /// Last path segment.
    pub fn name(&self) -> &str {
        self.path.rsplit('/').next().unwrap_or(&self.path)
    }
}

#[derive(Default)]
struct State {
    events: Vec<SpanEvent>,
    counters: BTreeMap<String, u64>,
    dropped: u64,
}

/// A thread-safe span/counter registry.
pub struct Registry {
    enabled: AtomicBool,
    state: Mutex<State>,
    seq: AtomicU64,
    epoch: Instant,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

thread_local! {
    /// Per-thread span-path stack (segment names, outermost first).
    static STACK: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
    /// Cached per-thread ordinal.
    static THREAD_ORD: RefCell<Option<usize>> = const { RefCell::new(None) };
}

static NEXT_THREAD_ORD: AtomicUsize = AtomicUsize::new(0);

fn thread_ordinal() -> usize {
    THREAD_ORD.with(|c| {
        let mut v = c.borrow_mut();
        *v.get_or_insert_with(|| NEXT_THREAD_ORD.fetch_add(1, Ordering::Relaxed))
    })
}

impl Registry {
    /// Fresh, disabled registry.
    pub fn new() -> Registry {
        Registry {
            enabled: AtomicBool::new(false),
            state: Mutex::new(State::default()),
            seq: AtomicU64::new(0),
            epoch: Instant::now(),
        }
    }

    /// The recorded state. A thread that panicked while holding it left
    /// whole events and counts behind (each update is one push or one
    /// add), so a poisoned lock is taken as is.
    fn state(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The process-wide registry every instrumented crate reports into.
    /// Disabled by default; `tvm-prof` (and tests) enable it.
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::new)
    }

    /// Turns recording on or off. While off, spans and counters are
    /// no-ops costing one atomic load.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether recording is on.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Opens a timed span; the returned guard records one [`SpanEvent`]
    /// when dropped. Nested spans on the same thread extend the path.
    #[inline]
    pub fn span(&self, name: &str) -> Span<'_> {
        self.span_with(name, &[])
    }

    /// Opens a span with key/value annotations (exported as Chrome trace
    /// `args`).
    pub fn span_with(&self, name: &str, args: &[(&str, &str)]) -> Span<'_> {
        if !self.enabled() {
            return Span { active: None };
        }
        STACK.with(|s| s.borrow_mut().push(name.to_string()));
        Span {
            active: Some(ActiveSpan {
                reg: self,
                start: Instant::now(),
                seq: self.seq.fetch_add(1, Ordering::Relaxed),
                args: args
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.to_string()))
                    .collect(),
            }),
        }
    }

    /// Adds to a named monotonic counter.
    pub fn counter_add(&self, name: &str, delta: u64) {
        if !self.enabled() || delta == 0 {
            return;
        }
        let mut st = self.state();
        *st.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Reads a single counter (0 if never incremented or recording is
    /// disabled) without cloning the whole counter map.
    pub fn counter_get(&self, name: &str) -> u64 {
        let st = self.state();
        st.counters.get(name).copied().unwrap_or(0)
    }

    /// Snapshot of all recorded span events, sorted by begin sequence.
    pub fn events(&self) -> Vec<SpanEvent> {
        let st = self.state();
        let mut ev = st.events.clone();
        ev.sort_by_key(|e| e.seq);
        ev
    }

    /// Snapshot of the counters.
    pub fn counters(&self) -> BTreeMap<String, u64> {
        self.state().counters.clone()
    }

    /// Events dropped because the buffer hit [`MAX_EVENTS`].
    pub fn dropped(&self) -> u64 {
        self.state().dropped
    }

    /// Clears all recorded events and counters (the enabled flag
    /// is untouched).
    pub fn reset(&self) {
        let mut st = self.state();
        *st = State::default();
    }

    fn record(&self, ev: SpanEvent) {
        let mut st = self.state();
        if st.events.len() >= MAX_EVENTS {
            st.dropped += 1;
            return;
        }
        st.events.push(ev);
    }

    // ------------------------------------------------------------ export

    /// Human-readable aggregated span tree: per path, call count, total
    /// and self wall time, share of the root total. Siblings appear in
    /// first-recorded order; identical runs of a deterministic program
    /// render identically shaped trees.
    pub fn summary_tree(&self) -> String {
        let events = self.events();
        // Aggregate by path, keeping first-seen order.
        struct Agg {
            calls: u64,
            total_ns: u64,
            first_seq: u64,
        }
        let mut agg: BTreeMap<&str, Agg> = BTreeMap::new();
        for e in &events {
            let a = agg.entry(&e.path).or_insert(Agg {
                calls: 0,
                total_ns: 0,
                first_seq: e.seq,
            });
            a.calls += 1;
            a.total_ns += e.dur_ns;
            a.first_seq = a.first_seq.min(e.seq);
        }
        let mut paths: Vec<&str> = agg.keys().copied().collect();
        paths.sort_by_key(|p| agg[p].first_seq);
        // Self time: total minus direct children (same prefix, one more
        // segment).
        let child_total = |p: &str| -> u64 {
            let depth = p.matches('/').count() + 1;
            agg.iter()
                .filter(|(c, _)| {
                    c.starts_with(p)
                        && c.len() > p.len()
                        && c.as_bytes()[p.len()] == b'/'
                        && c.matches('/').count() + 1 == depth + 1
                })
                .map(|(_, a)| a.total_ns)
                .sum()
        };
        let grand: u64 = paths
            .iter()
            .filter(|p| !p.contains('/'))
            .map(|p| agg[*p].total_ns)
            .sum();
        let mut out = String::from("span tree (wall time)\n");
        let ms = |ns: u64| ns as f64 / 1e6;
        for p in &paths {
            let a = &agg[*p];
            let depth = p.matches('/').count();
            let name = p.rsplit('/').next().unwrap_or(p);
            let self_ns = a.total_ns.saturating_sub(child_total(p));
            let pct = if grand > 0 {
                100.0 * a.total_ns as f64 / grand as f64
            } else {
                0.0
            };
            out.push_str(&format!(
                "{:indent$}{:<width$} calls {:>6}  total {:>10.3} ms  self {:>10.3} ms  {:>5.1}%\n",
                "",
                name,
                a.calls,
                ms(a.total_ns),
                ms(self_ns),
                pct,
                indent = depth * 2,
                width = 32usize.saturating_sub(depth * 2).max(8),
            ));
        }
        if events.is_empty() {
            out.push_str("  (no spans recorded)\n");
        }
        out
    }

    /// Chrome `trace_event` JSON (load in `chrome://tracing` or Perfetto):
    /// every span becomes a complete (`"ph":"X"`) event with microsecond
    /// timestamps, counters become `"ph":"C"` events. The output is one
    /// self-contained JSON object.
    pub fn chrome_trace(&self) -> String {
        let events = self.events();
        let st = self.state();
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut first = true;
        let mut push = |out: &mut String, item: String| {
            if !std::mem::take(&mut first) {
                out.push(',');
            }
            out.push_str(&item);
        };
        push(
            &mut out,
            "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\
             \"args\":{\"name\":\"tvm\"}}"
                .to_string(),
        );
        let mut last_ts = 0f64;
        for e in &events {
            let ts = e.start_ns as f64 / 1e3;
            let dur = e.dur_ns as f64 / 1e3;
            last_ts = last_ts.max(ts + dur);
            let cat = match e.path.rfind('/') {
                Some(i) => &e.path[..i],
                None => "root",
            };
            let mut args = String::new();
            for (i, (k, v)) in e.args.iter().enumerate() {
                if i > 0 {
                    args.push(',');
                }
                args.push_str(&format!("{}:{}", json_str(k), json_str(v)));
            }
            push(
                &mut out,
                format!(
                    "{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{ts:.3},\"dur\":{dur:.3},\
                     \"name\":{},\"cat\":{},\"args\":{{{args}}}}}",
                    e.tid,
                    json_str(e.name()),
                    json_str(cat),
                ),
            );
        }
        for (name, v) in &st.counters {
            push(
                &mut out,
                format!(
                    "{{\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":{last_ts:.3},\"name\":{},\
                     \"args\":{{\"value\":{v}}}}}",
                    json_str(name),
                ),
            );
        }
        out.push_str("]}");
        out
    }
}

/// JSON string literal with escaping (std-only; tvm-json is not a
/// dependency by design).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

struct ActiveSpan<'a> {
    reg: &'a Registry,
    start: Instant,
    seq: u64,
    args: Vec<(String, String)>,
}

/// RAII span guard: records one event on drop. A guard from a disabled
/// registry holds nothing and records nothing.
pub struct Span<'a> {
    active: Option<ActiveSpan<'a>>,
}

impl Span<'_> {
    /// Adds an annotation after the span was opened (e.g. a result
    /// computed inside).
    pub fn arg(&mut self, key: &str, value: impl Into<String>) {
        if let Some(a) = &mut self.active {
            a.args.push((key.to_string(), value.into()));
        }
    }

    /// True when the span is actually recording.
    pub fn is_recording(&self) -> bool {
        self.active.is_some()
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let Some(a) = self.active.take() else {
            return;
        };
        let dur_ns = a.start.elapsed().as_nanos() as u64;
        let path = STACK.with(|s| {
            let mut st = s.borrow_mut();
            let path = st.join("/");
            st.pop();
            path
        });
        let start_ns = a
            .start
            .duration_since(a.reg.epoch)
            .as_nanos()
            .min(u64::MAX as u128) as u64;
        a.reg.record(SpanEvent {
            path,
            start_ns,
            dur_ns,
            seq: a.seq,
            tid: thread_ordinal(),
            args: a.args,
        });
    }
}

// ------------------------------------------------- global conveniences

/// Opens a span on the global registry.
#[inline]
pub fn span(name: &str) -> Span<'static> {
    Registry::global().span(name)
}

/// Opens an annotated span on the global registry.
#[inline]
pub fn span_with(name: &str, args: &[(&str, &str)]) -> Span<'static> {
    Registry::global().span_with(name, args)
}

/// Adds to a counter on the global registry.
#[inline]
pub fn counter_add(name: &str, delta: u64) {
    Registry::global().counter_add(name, delta);
}

/// Reads a counter from the global registry.
#[inline]
pub fn counter_get(name: &str) -> u64 {
    Registry::global().counter_get(name)
}

/// Whether the global registry is recording.
#[inline]
pub fn enabled() -> bool {
    Registry::global().enabled()
}

/// Enables/disables the global registry.
pub fn set_enabled(on: bool) {
    Registry::global().set_enabled(on);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_records_nothing() {
        let reg = Registry::new();
        {
            let mut s = reg.span("outer");
            s.arg("k", "v");
            assert!(!s.is_recording());
        }
        reg.counter_add("c", 3);
        assert!(reg.events().is_empty());
        assert!(reg.counters().is_empty());
    }

    #[test]
    fn nesting_builds_paths() {
        let reg = Registry::new();
        reg.set_enabled(true);
        {
            let _a = reg.span("compile");
            {
                let _b = reg.span("lower");
                let _c = reg.span("emit");
            }
            let _d = reg.span("plan");
        }
        let ev = reg.events();
        let paths: Vec<&str> = ev.iter().map(|e| e.path.as_str()).collect();
        // Events come back in begin order (outermost first).
        assert_eq!(
            paths,
            vec![
                "compile",
                "compile/lower",
                "compile/lower/emit",
                "compile/plan"
            ]
        );
        // Begin sequence is deterministic.
        let mut seqs: Vec<u64> = ev.iter().map(|e| e.seq).collect();
        seqs.sort_unstable();
        assert_eq!(seqs, vec![0, 1, 2, 3]);
    }

    #[test]
    fn counters_aggregate() {
        let reg = Registry::new();
        reg.set_enabled(true);
        reg.counter_add("lowerings", 2);
        reg.counter_add("lowerings", 3);
        assert_eq!(reg.counters()["lowerings"], 5);
        reg.reset();
        assert!(reg.counters().is_empty());
    }

    #[test]
    fn threads_keep_separate_stacks() {
        let reg = Registry::new();
        reg.set_enabled(true);
        std::thread::scope(|scope| {
            for name in ["w0", "w1", "w2", "w3"] {
                scope.spawn(|| {
                    let _outer = reg.span(name);
                    let _inner = reg.span("work");
                });
            }
        });
        let ev = reg.events();
        assert_eq!(ev.len(), 8);
        // Every "work" span nests under its own thread's outer span only.
        for e in &ev {
            if e.path.ends_with("/work") {
                assert_eq!(e.path.matches('/').count(), 1, "{}", e.path);
            }
        }
    }

    #[test]
    fn summary_tree_renders_hierarchy() {
        let reg = Registry::new();
        reg.set_enabled(true);
        for _ in 0..3 {
            let _a = reg.span("lower");
            let _b = reg.span("emit");
        }
        let tree = reg.summary_tree();
        assert!(tree.contains("lower"), "{tree}");
        assert!(tree.contains("emit"), "{tree}");
        assert!(tree.contains("calls      3"), "{tree}");
    }

    #[test]
    fn chrome_trace_is_valid_json() {
        let reg = Registry::new();
        reg.set_enabled(true);
        {
            let mut s = reg.span("ker\"nel");
            s.arg("n", "1");
        }
        reg.counter_add("ops", 7);
        let trace = reg.chrome_trace();
        let doc = tvm_json::from_str(&trace).expect("trace parses as JSON");
        let events = doc.get("traceEvents").expect("traceEvents");
        let tvm_json::Value::Array(items) = events else {
            panic!("traceEvents not an array");
        };
        // Metadata + 1 span + 1 counter.
        assert_eq!(items.len(), 3);
        let span = items
            .iter()
            .find(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
            .expect("span event");
        assert_eq!(span.get("name").and_then(|n| n.as_str()), Some("ker\"nel"));
        assert!(span.get("dur").and_then(|d| d.as_f64()).is_some());
    }

    #[test]
    fn event_cap_counts_drops() {
        let reg = Registry::new();
        reg.set_enabled(true);
        // Synthetic events through the public surface would be slow at 2^20;
        // drive the recorder directly.
        for i in 0..(MAX_EVENTS + 10) {
            reg.record(SpanEvent {
                path: "x".into(),
                start_ns: 0,
                dur_ns: 1,
                seq: i as u64,
                tid: 0,
                args: Vec::new(),
            });
        }
        assert_eq!(reg.dropped(), 10);
    }
}
