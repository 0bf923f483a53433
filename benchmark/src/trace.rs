//! Bench-side span recorder.
//!
//! Every layer is measured from outside, so a span brackets one call into a
//! public function of the stack. Spans are kept in memory and written in
//! Chrome trace format when the run ends. With tracing off `begin`/`end`
//! only read the clock, which is what the end-to-end metrics are taken with;
//! the difference between the two modes is `bench.trace_overhead_share`.

use std::collections::BTreeMap;
use std::time::Instant;

use tvm_json::Value;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<u32>,
    /// Identifier shared by the spans of one op (one timed call).
    op: u64,
}

/// Handle returned by [`Recorder::begin`]; give it back to [`Recorder::end`].
pub struct Tok {
    idx: Option<u32>,
    start: Instant,
}

/// Totals of all spans sharing one name.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SpanTotal {
    pub count: u64,
    /// Sum of durations, seconds.
    pub total_s: f64,
    /// Sum of durations minus the part covered by child spans, seconds.
    pub self_s: f64,
}

pub struct Recorder {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Recorder {
    pub fn new(on: bool) -> Recorder {
        Recorder {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Switches recording; the traced run alternates traced and untraced
    /// passes to measure what recording costs.
    pub fn set_on(&mut self, on: bool) {
        debug_assert!(self.stack.is_empty(), "toggled inside an open span");
        self.on = on;
    }

    pub fn begin(&mut self, name: &'static str, op: u64) -> Tok {
        let start = Instant::now();
        if !self.on {
            return Tok { idx: None, start };
        }
        let idx = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: (start - self.origin).as_nanos() as u64,
            end_ns: 0,
            parent: self.stack.last().copied(),
            op,
        });
        self.stack.push(idx);
        Tok {
            idx: Some(idx),
            start,
        }
    }

    /// Closes the span and returns its wall time in seconds.
    pub fn end(&mut self, tok: Tok) -> f64 {
        let now = Instant::now();
        if let Some(idx) = tok.idx {
            self.spans[idx as usize].end_ns = (now - self.origin).as_nanos() as u64;
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(idx), "spans must nest");
        }
        (now - tok.start).as_secs_f64()
    }

    /// Times one call under a span.
    pub fn time<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> (R, f64) {
        let tok = self.begin(name, op);
        let out = f();
        (out, self.end(tok))
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotal> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotal> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_s += dur as f64 * 1e-9;
            t.self_s += dur.saturating_sub(child) as f64 * 1e-9;
        }
        out
    }

    /// Total seconds of the spans with this name (0 when none were recorded).
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .sum()
    }

    /// Writes the spans as a Chrome trace (`chrome://tracing`, Perfetto).
    pub fn write_chrome(&self, path: &std::path::Path) -> std::io::Result<()> {
        let events: Vec<Value> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut args = BTreeMap::new();
                args.insert("id".to_string(), Value::from(i as u64));
                args.insert("op".to_string(), Value::from(s.op));
                if let Some(p) = s.parent {
                    args.insert("parent".to_string(), Value::from(u64::from(p)));
                }
                Value::object([
                    ("name", Value::from(s.name)),
                    ("ph", Value::from("X")),
                    ("pid", Value::from(1i64)),
                    ("tid", Value::from(1i64)),
                    ("ts", Value::from(s.start_ns as f64 / 1e3)),
                    ("dur", Value::from((s.end_ns - s.start_ns) as f64 / 1e3)),
                    ("args", Value::Object(args)),
                ])
            })
            .collect();
        let doc = Value::object([("traceEvents", Value::Array(events))]);
        std::fs::write(path, tvm_json::to_string(&doc))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_off_records_nothing() {
        let mut rec = Recorder::new(true);
        let outer = rec.begin("outer", 1);
        let inner = rec.begin("inner", 1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let inner_s = rec.end(inner);
        let outer_s = rec.end(outer);
        assert!(outer_s >= inner_s);
        let t = rec.totals();
        assert_eq!(t["outer"].count, 1);
        assert!(t["inner"].total_s >= 0.002);
        assert!((t["outer"].self_s - (t["outer"].total_s - t["inner"].total_s)).abs() < 1e-9);

        rec.set_on(false);
        let tok = rec.begin("untraced", 2);
        assert!(rec.end(tok) >= 0.0);
        assert!(!rec.totals().contains_key("untraced"));
    }
}
