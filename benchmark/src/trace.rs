//! Benchmark-side spans around calls into the crates' public functions.
//!
//! Nothing here reaches inside the program under test: a span is opened
//! by the benchmark before it calls a crate and closed when the call
//! returns, and a served request's `timing` phases become child spans
//! of that request after the fact. Spans stay in memory (one `Tracer`
//! per thread, merged at the end) and are written out when the run
//! ends. A layer's self time is its span minus the part its child spans
//! cover; Σ children against the parent is the closure check.

use serde_json::Value;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Operation id of spans that belong to no operation (set-up, probes).
pub const NO_OP: u64 = u64::MAX;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// `crate.call` style name.
    pub name: &'static str,
    /// Start, ns since the run's epoch.
    pub start_ns: u64,
    /// End, ns since the run's epoch.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Operation the span belongs to, or [`NO_OP`].
    pub op: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A single thread's span buffer. When switched off every method is a
/// branch and returns; durations are still measured by [`Tracer::time`]
/// because the metrics need them either way.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer recording relative to `epoch` when `on`.
    pub fn new(on: bool, epoch: Instant) -> Self {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A sibling buffer for another thread of the same run.
    pub fn fork(&self) -> Tracer {
        Tracer::new(self.on, self.epoch)
    }

    /// Starts or stops recording; spans already taken are kept.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span under the innermost open span of this thread.
    pub fn begin(&mut self, name: &'static str, op: u64) {
        if !self.on {
            return;
        }
        let now = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        if let Some(i) = self.open.pop() {
            self.spans[i].end_ns = self.ns(Instant::now());
        }
    }

    /// Runs `f` inside a span and returns its result with the seconds
    /// it took.
    pub fn time<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> (R, f64) {
        self.begin(name, op);
        let t0 = Instant::now();
        let r = f();
        let secs = t0.elapsed().as_secs_f64();
        self.end();
        (r, secs)
    }

    /// Records a span whose interval was measured elsewhere (a request's
    /// `timing` phase). Returns its index for use as a `parent`.
    pub fn record(
        &mut self,
        name: &'static str,
        op: u64,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            op,
        });
        Some(self.spans.len() - 1)
    }

    /// Appends another thread's spans, keeping parent links intact.
    pub fn merge(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// All spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Totals of one span name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NameStat {
    /// Occurrences.
    pub count: u64,
    /// Σ duration, ns.
    pub total_ns: u64,
    /// Σ (duration − time covered by direct children), ns.
    pub self_ns: u64,
    /// Σ duration of the occurrences that have children, ns.
    pub parent_ns: u64,
    /// Σ time their direct children cover, ns.
    pub children_ns: u64,
}

impl NameStat {
    /// Share of the parents' time no child accounts for.
    pub fn residual_share(&self) -> f64 {
        if self.parent_ns == 0 {
            0.0
        } else {
            1.0 - self.children_ns as f64 / self.parent_ns as f64
        }
    }
}

/// Per-name totals, self times and closure sums.
pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, NameStat> {
    let mut covered = vec![0u64; spans.len()];
    let mut has_child = vec![false; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            // Only the part of a child inside its parent's interval
            // counts against the parent.
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            covered[p] += hi.saturating_sub(lo);
            has_child[p] = true;
        }
    }
    let mut out: BTreeMap<&'static str, NameStat> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let st = out.entry(s.name).or_default();
        st.count += 1;
        st.total_ns += s.dur_ns();
        st.self_ns += s.dur_ns().saturating_sub(covered[i]);
        if has_child[i] {
            st.parent_ns += s.dur_ns();
            st.children_ns += covered[i].min(s.dur_ns());
        }
    }
    out
}

/// The table printed after a traced run: per name count, total, self
/// time, and for names with children the closure residual.
pub fn render_summary(stats: &BTreeMap<&'static str, NameStat>) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<28} {:>8} {:>12} {:>12} {:>18}",
        "span", "count", "total_ms", "self_ms", "closure_residual"
    );
    for (name, s) in stats {
        let residual = if s.parent_ns > 0 {
            format!("{:.4}", s.residual_share())
        } else {
            "-".to_string()
        };
        let _ = writeln!(
            out,
            "{:<28} {:>8} {:>12.3} {:>12.3} {:>18}",
            name,
            s.count,
            s.total_ns as f64 / 1e6,
            s.self_ns as f64 / 1e6,
            residual
        );
    }
    out
}

/// Writes the spans as a Chrome/Perfetto trace (`ph: "X"` events, µs).
pub fn write_chrome_trace(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let events: Vec<Value> = spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let mut args = vec![("span".to_string(), Value::UInt(i as u64))];
            if let Some(p) = s.parent {
                args.push(("parent".to_string(), Value::UInt(p as u64)));
            }
            if s.op != NO_OP {
                args.push(("op".to_string(), Value::UInt(s.op)));
            }
            Value::Obj(vec![
                ("name".to_string(), Value::Str(s.name.to_string())),
                ("ph".to_string(), Value::Str("X".to_string())),
                ("pid".to_string(), Value::UInt(1)),
                // One lane per root so overlapping requests stay legible.
                (
                    "tid".to_string(),
                    Value::UInt(if s.op == NO_OP { 0 } else { 1 + s.op % 16 }),
                ),
                ("ts".to_string(), Value::Float(s.start_ns as f64 / 1e3)),
                ("dur".to_string(), Value::Float(s.dur_ns() as f64 / 1e3)),
                ("args".to_string(), Value::Obj(args)),
            ])
        })
        .collect();
    let doc = Value::Obj(vec![("traceEvents".to_string(), Value::Arr(events))]);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let text = serde_json::to_string(&doc).map_err(|e| std::io::Error::other(e.to_string()))?;
    std::fs::write(path, text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_is_span_minus_children() {
        let epoch = Instant::now();
        let mut t = Tracer::new(true, epoch);
        let at = |ms: u64| epoch + Duration::from_millis(ms);
        let root = t.record("request", 7, at(0), at(10), None);
        t.record("queue_wait", 7, at(1), at(4), root);
        t.record("execute", 7, at(4), at(9), root);
        let stats = summarize(t.spans());
        let r = &stats["request"];
        assert_eq!(r.total_ns, 10_000_000);
        assert_eq!(r.self_ns, 2_000_000);
        assert!((r.residual_share() - 0.2).abs() < 1e-12);
        assert_eq!(stats["execute"].self_ns, 5_000_000);
    }

    #[test]
    fn merge_keeps_parent_links_and_off_records_nothing() {
        let epoch = Instant::now();
        let mut a = Tracer::new(true, epoch);
        a.begin("setup", NO_OP);
        a.end();
        let mut b = a.fork();
        b.begin("cycle", 1);
        b.begin("prune", 1);
        b.end();
        b.end();
        a.merge(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        let mut off = Tracer::new(false, epoch);
        let ((), secs) = off.time("x", NO_OP, || ());
        assert!(secs >= 0.0);
        assert!(off.spans().is_empty());
    }
}
