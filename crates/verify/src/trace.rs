//! Trace and exposition well-formedness checks (RV040–RV044).
//!
//! The observability layer promises structural invariants the runtime
//! emission code is carefully ordered to maintain; these passes prove a
//! given trace or Prometheus exposition actually holds them:
//!
//! - **RV040** — synchronous spans are properly nested per thread:
//!   two spans on one thread either nest or are disjoint, never
//!   partially overlapping. (Async intervals are exempt — queue waits
//!   legitimately overlap.)
//! - **RV041** — per-thread event order is monotone by end timestamp:
//!   spans are recorded at close time, so each thread's buffer must be
//!   sorted by non-decreasing end.
//! - **RV042** — every `execute` span contains at least one
//!   `layer:*` child span on its own thread: a trace whose executes
//!   are hollow means the per-layer instrumentation was lost.
//! - **RV043** — Prometheus text exposition lint: parseable lines, no
//!   series (name plus label set) written twice, each family's samples
//!   contiguous, cumulative histogram buckets with strictly increasing
//!   `le` bounds ending at `+Inf`, and `_sum`/`_count` samples
//!   agreeing with the buckets.
//! - **RV044** — the exposition round-trips against a
//!   [`MetricsSnapshot`]: parsed bucket counts reconstruct the
//!   snapshot's phase histograms exactly.

use crate::diag::{Diagnostic, Report};
use rtoss_obs::prom::{self, PromSample};
use rtoss_obs::{EventKind, Trace, TraceEvent};
use rtoss_serve::MetricsSnapshot;
use serde::Value;
use std::collections::{BTreeSet, HashMap};

/// Runs RV040–RV042 over a drained trace.
pub fn check_trace(label: &str, trace: &Trace) -> Report {
    let mut report = Report::new();
    let mut by_tid: HashMap<u64, Vec<&TraceEvent>> = HashMap::new();
    for e in &trace.events {
        by_tid.entry(e.tid).or_default().push(e);
    }
    let mut tids: Vec<u64> = by_tid.keys().copied().collect();
    tids.sort_unstable();
    for tid in tids {
        let events = &by_tid[&tid];
        check_end_order(label, tid, events, &mut report);
        let spans: Vec<&TraceEvent> = events
            .iter()
            .copied()
            .filter(|e| e.kind == EventKind::Span)
            .collect();
        check_nesting(label, tid, &spans, &mut report);
        check_execute_children(label, tid, &spans, &mut report);
    }
    report
}

/// RV041: events in buffer order have non-decreasing end timestamps.
fn check_end_order(label: &str, tid: u64, events: &[&TraceEvent], report: &mut Report) {
    let mut last_end = 0u64;
    for (i, e) in events.iter().enumerate() {
        let end = e.ts_ns.saturating_add(e.dur_ns);
        if end < last_end {
            report.push(Diagnostic::error(
                "RV041",
                format!("{label}: tid {tid}, event {i} ({})", e.name),
                format!(
                    "end timestamp {end} ns precedes the previous event's end \
                     {last_end} ns — per-thread buffers must be ordered by close time"
                ),
            ));
        }
        last_end = last_end.max(end);
    }
}

/// Sorts span references for nesting analysis: by start ascending, then
/// duration descending so a parent precedes the children it contains.
fn nesting_order<'t>(spans: &[&'t TraceEvent]) -> Vec<&'t TraceEvent> {
    let mut sorted = spans.to_vec();
    sorted.sort_by(|a, b| a.ts_ns.cmp(&b.ts_ns).then_with(|| b.dur_ns.cmp(&a.dur_ns)));
    sorted
}

/// RV040: spans on one thread nest or are disjoint.
fn check_nesting(label: &str, tid: u64, spans: &[&TraceEvent], report: &mut Report) {
    let mut stack: Vec<(u64, &TraceEvent)> = Vec::new();
    for e in nesting_order(spans) {
        let end = e.ts_ns.saturating_add(e.dur_ns);
        while let Some(&(parent_end, _)) = stack.last() {
            if e.ts_ns >= parent_end {
                stack.pop();
            } else {
                break;
            }
        }
        if let Some(&(parent_end, parent)) = stack.last() {
            if end > parent_end {
                report.push(Diagnostic::error(
                    "RV040",
                    format!("{label}: tid {tid}, span {:?}", e.name.as_ref()),
                    format!(
                        "span [{}..{end}] partially overlaps enclosing span {:?} \
                         [{}..{parent_end}] — sync spans must nest or be disjoint",
                        e.ts_ns,
                        parent.name.as_ref(),
                        parent.ts_ns,
                    ),
                ));
            }
        }
        stack.push((end, e));
    }
}

/// RV042: every `execute` span contains ≥ 1 `layer:*` span.
fn check_execute_children(label: &str, tid: u64, spans: &[&TraceEvent], report: &mut Report) {
    for exec in spans.iter().filter(|e| e.name == "execute") {
        let end = exec.ts_ns.saturating_add(exec.dur_ns);
        let has_layer = spans.iter().any(|e| {
            e.name.starts_with("layer:")
                && e.ts_ns >= exec.ts_ns
                && e.ts_ns.saturating_add(e.dur_ns) <= end
        });
        if !has_layer {
            report.push(Diagnostic::error(
                "RV042",
                format!("{label}: tid {tid}, execute span at {} ns", exec.ts_ns),
                "execute span contains no layer:* child span — per-layer \
                 instrumentation missing from the model pass"
                    .to_string(),
            ));
        }
    }
}

fn value_num(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::UInt(u) => Some(*u as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

/// Parses a Chrome trace JSON array (as written by
/// `Trace::to_chrome_json`) back into a [`Trace`] and runs
/// [`check_trace`] on it. Malformed JSON or event objects are RV040
/// errors — a trace that cannot be reconstructed is not well-formed.
pub fn check_trace_json(label: &str, json: &str) -> Report {
    let mut report = Report::new();
    let parsed: Value = match serde_json::from_str(json) {
        Ok(v) => v,
        Err(e) => {
            report.push(Diagnostic::error(
                "RV040",
                label.to_string(),
                format!("trace JSON does not parse: {e}"),
            ));
            return report;
        }
    };
    let Value::Arr(items) = &parsed else {
        report.push(Diagnostic::error(
            "RV040",
            label.to_string(),
            "trace JSON is not an array of events".to_string(),
        ));
        return report;
    };
    let mut trace = Trace::default();
    // Open async begins, keyed by (id, tid), awaiting their end event.
    let mut open_async: HashMap<(String, u64), (String, u64)> = HashMap::new();
    for (i, item) in items.iter().enumerate() {
        let ev = (|| -> Result<Option<TraceEvent>, String> {
            let name = item
                .field("name")
                .and_then(|v| v.as_str())
                .map_err(|e| e.to_string())?
                .to_string();
            let ph = item
                .field("ph")
                .and_then(|v| v.as_str())
                .map_err(|e| e.to_string())?;
            let tid = item
                .field("tid")
                .ok()
                .and_then(value_num)
                .ok_or("missing numeric tid")? as u64;
            let ts_us = item
                .field("ts")
                .ok()
                .and_then(value_num)
                .ok_or("missing numeric ts")?;
            let ts_ns = (ts_us * 1e3).round().max(0.0) as u64;
            match ph {
                "X" => {
                    let dur_us = item
                        .field("dur")
                        .ok()
                        .and_then(value_num)
                        .ok_or("complete event missing numeric dur")?;
                    Ok(Some(TraceEvent {
                        name: name.into(),
                        kind: EventKind::Span,
                        tid,
                        ts_ns,
                        dur_ns: (dur_us * 1e3).round().max(0.0) as u64,
                        args: Vec::new(),
                    }))
                }
                "b" => {
                    let id = item
                        .field("id")
                        .and_then(|v| v.as_str())
                        .map_err(|_| "async begin missing string id")?
                        .to_string();
                    open_async.insert((id, tid), (name, ts_ns));
                    Ok(None)
                }
                "e" => {
                    let id = item
                        .field("id")
                        .and_then(|v| v.as_str())
                        .map_err(|_| "async end missing string id")?
                        .to_string();
                    let (name, begin_ns) = open_async
                        .remove(&(id.clone(), tid))
                        .ok_or_else(|| format!("async end {id:?} has no open begin"))?;
                    let numeric_id =
                        u64::from_str_radix(id.trim_start_matches("0x"), 16).unwrap_or(0);
                    Ok(Some(TraceEvent {
                        name: name.into(),
                        kind: EventKind::Async { id: numeric_id },
                        tid,
                        ts_ns: begin_ns,
                        dur_ns: ts_ns.saturating_sub(begin_ns),
                        args: Vec::new(),
                    }))
                }
                "i" => Ok(Some(TraceEvent {
                    name: name.into(),
                    kind: EventKind::Instant,
                    tid,
                    ts_ns,
                    dur_ns: 0,
                    args: Vec::new(),
                })),
                other => Err(format!("unknown phase {other:?}")),
            }
        })();
        match ev {
            Ok(Some(e)) => trace.events.push(e),
            Ok(None) => {}
            Err(msg) => report.push(Diagnostic::error(
                "RV040",
                format!("{label}: event {i}"),
                msg,
            )),
        }
    }
    for ((id, tid), (name, _)) in &open_async {
        report.push(Diagnostic::error(
            "RV040",
            format!("{label}: tid {tid}"),
            format!("async begin {name:?} (id {id}) never ends"),
        ));
    }
    report.extend(check_trace(label, &trace).diagnostics);
    report
}

/// A histogram family reassembled from parsed samples.
struct BucketFamily<'s> {
    buckets: Vec<&'s PromSample>,
    sum: Option<f64>,
    count: Option<f64>,
}

fn collect_families<'s>(samples: &'s [PromSample]) -> Vec<(String, BucketFamily<'s>)> {
    let mut families: Vec<(String, BucketFamily<'s>)> = Vec::new();
    fn family<'f, 's>(
        families: &'f mut Vec<(String, BucketFamily<'s>)>,
        base: &str,
    ) -> &'f mut BucketFamily<'s> {
        let pos = families
            .iter()
            .position(|(n, _)| n == base)
            .unwrap_or_else(|| {
                families.push((
                    base.to_string(),
                    BucketFamily {
                        buckets: Vec::new(),
                        sum: None,
                        count: None,
                    },
                ));
                families.len() - 1
            });
        &mut families[pos].1
    }
    for s in samples {
        if let Some(base) = s.name.strip_suffix("_bucket") {
            family(&mut families, base).buckets.push(s);
        } else if let Some(base) = s.name.strip_suffix("_sum") {
            family(&mut families, base).sum = Some(s.value);
        } else if let Some(base) = s.name.strip_suffix("_count") {
            family(&mut families, base).count = Some(s.value);
        }
    }
    families.retain(|(_, f)| !f.buckets.is_empty());
    families
}

/// RV043: Prometheus text exposition format lint.
pub fn check_prometheus(label: &str, text: &str) -> Report {
    let mut report = Report::new();
    let samples = match prom::parse(text) {
        Ok(s) => s,
        Err(e) => {
            report.push(Diagnostic::error(
                "RV043",
                label.to_string(),
                format!("exposition does not parse: {e}"),
            ));
            return report;
        }
    };
    for s in &samples {
        if s.value.is_nan() {
            report.push(Diagnostic::error(
                "RV043",
                format!("{label}: {}", s.name),
                "sample value is NaN".to_string(),
            ));
        }
    }
    let histograms = collect_families(&samples);
    check_series_layout(label, &samples, &histograms, &mut report);
    for (base, fam) in histograms {
        let loc = format!("{label}: {base}");
        let mut prev_le = f64::NEG_INFINITY;
        let mut prev_cum = f64::NEG_INFINITY;
        let mut saw_inf = false;
        for b in &fam.buckets {
            let Some(le) = b.label("le") else {
                report.push(Diagnostic::error(
                    "RV043",
                    loc.clone(),
                    "bucket sample without an `le` label".to_string(),
                ));
                continue;
            };
            let le_v = match le {
                "+Inf" => f64::INFINITY,
                s => match s.parse::<f64>() {
                    Ok(v) => v,
                    Err(_) => {
                        report.push(Diagnostic::error(
                            "RV043",
                            loc.clone(),
                            format!("unparseable le bound {le:?}"),
                        ));
                        continue;
                    }
                },
            };
            if le_v <= prev_le {
                report.push(Diagnostic::error(
                    "RV043",
                    loc.clone(),
                    format!("le bounds not strictly increasing at {le:?}"),
                ));
            }
            if b.value < prev_cum {
                report.push(Diagnostic::error(
                    "RV043",
                    loc.clone(),
                    format!(
                        "cumulative bucket count decreases at le={le:?} ({} < {prev_cum})",
                        b.value
                    ),
                ));
            }
            prev_le = le_v;
            prev_cum = prev_cum.max(b.value);
            saw_inf = saw_inf || le_v.is_infinite();
        }
        if !saw_inf {
            report.push(Diagnostic::error(
                "RV043",
                loc.clone(),
                "histogram lacks the terminating le=\"+Inf\" bucket".to_string(),
            ));
        }
        match fam.count {
            None => report.push(Diagnostic::error(
                "RV043",
                loc.clone(),
                "histogram lacks a _count sample".to_string(),
            )),
            Some(count) => {
                if let Some(last) = fam.buckets.last() {
                    if saw_inf && last.value != count {
                        report.push(Diagnostic::error(
                            "RV043",
                            loc.clone(),
                            format!(
                                "le=\"+Inf\" bucket ({}) disagrees with _count ({count})",
                                last.value
                            ),
                        ));
                    }
                }
            }
        }
        if fam.sum.is_none() {
            report.push(Diagnostic::error(
                "RV043",
                loc,
                "histogram lacks a _sum sample".to_string(),
            ));
        }
    }
    report
}

/// RV043's layout legs: no series (name plus label set) appears twice,
/// and every family's samples are contiguous. A histogram's `_bucket`,
/// `_sum` and `_count` samples belong to one family.
fn check_series_layout(
    label: &str,
    samples: &[PromSample],
    histograms: &[(String, BucketFamily<'_>)],
    report: &mut Report,
) {
    let family = |name: &str| -> String {
        ["_bucket", "_sum", "_count"]
            .iter()
            .filter_map(|suffix| name.strip_suffix(suffix))
            .find(|base| histograms.iter().any(|(h, _)| h == base))
            .unwrap_or(name)
            .to_string()
    };
    let mut series: BTreeSet<(String, Vec<(String, String)>)> = BTreeSet::new();
    // Families whose run of samples has ended, and those already
    // reported as split (one finding per family).
    let mut closed: BTreeSet<String> = BTreeSet::new();
    let mut split: BTreeSet<String> = BTreeSet::new();
    let mut current: Option<String> = None;
    for s in samples {
        let mut labels = s.labels.clone();
        labels.sort();
        if !series.insert((s.name.clone(), labels)) {
            report.push(Diagnostic::error(
                "RV043",
                format!("{label}: {}", s.name),
                format!("series {} appears twice", series_id(s)),
            ));
        }
        let fam = family(&s.name);
        if current.as_ref() == Some(&fam) {
            continue;
        }
        if closed.contains(&fam) && split.insert(fam.clone()) {
            report.push(Diagnostic::error(
                "RV043",
                format!("{label}: {fam}"),
                format!(
                    "family {fam} is not contiguous: its samples resume at {} after other families",
                    series_id(s)
                ),
            ));
        }
        if let Some(prev) = current.replace(fam) {
            closed.insert(prev);
        }
    }
}

/// `name{k="v",…}` for diagnostics.
fn series_id(s: &PromSample) -> String {
    let labels: Vec<String> = s.labels.iter().map(|(k, v)| format!("{k}={v:?}")).collect();
    format!("{}{{{}}}", s.name, labels.join(","))
}

/// RV043 + RV044: lints the exposition, then proves the phase
/// histograms round-trip against `snapshot` bucket by bucket.
pub fn check_prometheus_snapshot(label: &str, text: &str, snapshot: &MetricsSnapshot) -> Report {
    let mut report = check_prometheus(label, text);
    let Ok(samples) = prom::parse(text) else {
        return report; // parse failure already reported as RV043
    };
    for (phase, hist) in snapshot.phase_histograms() {
        let name = format!("rtoss_{phase}_seconds");
        let loc = format!("{label}: {name}");
        let cumulative: Vec<f64> = samples
            .iter()
            .filter(|s| s.name == format!("{name}_bucket"))
            .map(|s| s.value)
            .collect();
        if cumulative.len() != hist.buckets.len() + 1 {
            report.push(Diagnostic::error(
                "RV044",
                loc.clone(),
                format!(
                    "exposition has {} bucket samples but the snapshot has {} buckets (+Inf)",
                    cumulative.len(),
                    hist.buckets.len()
                ),
            ));
            continue;
        }
        let mut prev = 0.0f64;
        for (i, snap_count) in hist.buckets.iter().enumerate() {
            let got = cumulative[i] - prev;
            if got != *snap_count as f64 {
                report.push(Diagnostic::error(
                    "RV044",
                    loc.clone(),
                    format!("bucket {i}: exposition count {got} != snapshot {snap_count}"),
                ));
            }
            prev = cumulative[i];
        }
        let inf = *cumulative.last().expect("length checked above");
        if inf != hist.count as f64 {
            report.push(Diagnostic::error(
                "RV044",
                loc.clone(),
                format!("+Inf bucket {inf} != snapshot count {}", hist.count),
            ));
        }
        let count_sample = samples
            .iter()
            .find(|s| s.name == format!("{name}_count"))
            .map(|s| s.value);
        if count_sample != Some(hist.count as f64) {
            report.push(Diagnostic::error(
                "RV044",
                loc.clone(),
                format!(
                    "_count sample {count_sample:?} != snapshot count {}",
                    hist.count
                ),
            ));
        }
        if let Some(sum) = samples
            .iter()
            .find(|s| s.name == format!("{name}_sum"))
            .map(|s| s.value)
        {
            let want = hist.sum_ns as f64 / 1e9;
            // The sum crosses a decimal formatting round trip; allow
            // one part in 1e12 of slack.
            let tol = want.abs().max(1.0) * 1e-12;
            if (sum - want).abs() > tol {
                report.push(Diagnostic::error(
                    "RV044",
                    loc,
                    format!("_sum {sum} != snapshot sum {want} s"),
                ));
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtoss_obs::metrics::LatencyHistogram;
    use rtoss_serve::ServerMetrics;
    use std::borrow::Cow;
    use std::time::Duration;

    fn span(name: &str, tid: u64, ts: u64, dur: u64) -> TraceEvent {
        TraceEvent {
            name: Cow::Owned(name.to_string()),
            kind: EventKind::Span,
            tid,
            ts_ns: ts,
            dur_ns: dur,
            args: Vec::new(),
        }
    }

    fn trace(events: Vec<TraceEvent>) -> Trace {
        Trace { events, dropped: 0 }
    }

    #[test]
    fn clean_trace_passes_all_checks() {
        // layer closes first, then execute (recorded-at-close order).
        let t = trace(vec![
            span("layer:a", 1, 10, 30),
            span("layer:b", 1, 50, 40),
            span("execute", 1, 0, 100),
        ]);
        let report = check_trace("clean", &t);
        assert!(!report.has_errors(), "{}", report.render());
    }

    #[test]
    fn partial_overlap_is_rv040() {
        let t = trace(vec![span("a", 1, 0, 100), span("b", 1, 50, 100)]);
        let report = check_trace("overlap", &t);
        assert!(report.has_code("RV040"), "{}", report.render());
    }

    #[test]
    fn overlap_on_different_threads_is_fine() {
        let t = trace(vec![span("a", 1, 0, 100), span("b", 2, 50, 100)]);
        assert!(!check_trace("threads", &t).has_errors());
    }

    #[test]
    fn decreasing_end_order_is_rv041() {
        let t = trace(vec![span("late", 1, 0, 200), span("early", 1, 10, 40)]);
        let report = check_trace("order", &t);
        assert!(report.has_code("RV041"), "{}", report.render());
        assert!(!report.has_code("RV040"), "nested spans, only order wrong");
    }

    #[test]
    fn async_events_skip_nesting_but_not_end_order() {
        let mk = |id, ts, dur| TraceEvent {
            name: Cow::Borrowed("queue_wait"),
            kind: EventKind::Async { id },
            tid: 1,
            ts_ns: ts,
            dur_ns: dur,
            args: Vec::new(),
        };
        // Ends 200 then 150: out of buffer order. The intervals also
        // partially overlap, but async events are exempt from RV040.
        let t = trace(vec![mk(1, 0, 200), mk(2, 50, 100)]);
        let report = check_trace("async", &t);
        assert!(report.has_code("RV041"), "{}", report.render());
        assert!(!report.has_code("RV040"), "{}", report.render());
    }

    #[test]
    fn async_partial_overlap_passes_when_ends_ordered() {
        let mk = |id, ts, end| TraceEvent {
            name: Cow::Borrowed("queue_wait"),
            kind: EventKind::Async { id },
            tid: 1,
            ts_ns: ts,
            dur_ns: end - ts,
            args: Vec::new(),
        };
        let t = trace(vec![mk(1, 0, 100), mk(2, 50, 150)]);
        assert!(!check_trace("async", &t).has_errors());
    }

    #[test]
    fn hollow_execute_is_rv042() {
        let t = trace(vec![span("execute", 1, 0, 100)]);
        let report = check_trace("hollow", &t);
        assert!(report.has_code("RV042"), "{}", report.render());
    }

    #[test]
    fn layer_on_other_thread_does_not_satisfy_rv042() {
        let t = trace(vec![span("layer:a", 2, 10, 20), span("execute", 1, 0, 100)]);
        assert!(check_trace("cross", &t).has_code("RV042"));
    }

    #[test]
    fn chrome_json_round_trip_checks_clean() {
        // Buffer order is close order: layer (40), queue wait (80),
        // execute (100).
        let t = trace(vec![
            span("layer:a", 1, 10, 30),
            TraceEvent {
                name: Cow::Borrowed("queue_wait"),
                kind: EventKind::Async { id: 9 },
                tid: 1,
                ts_ns: 0,
                dur_ns: 80,
                args: Vec::new(),
            },
            span("execute", 1, 0, 100),
        ]);
        let json = t.to_chrome_json();
        let report = check_trace_json("chrome", &json);
        assert!(!report.has_errors(), "{}", report.render());
    }

    #[test]
    fn malformed_trace_json_is_rv040() {
        assert!(check_trace_json("bad", "{not json").has_code("RV040"));
        assert!(check_trace_json("bad", "{}").has_code("RV040"));
        // An event object without the mandatory fields.
        assert!(check_trace_json("bad", "[{\"name\":\"x\"}]").has_code("RV040"));
    }

    #[test]
    fn real_exposition_passes_rv043_and_rv044() {
        let m = ServerMetrics::new();
        m.queue_wait.record(Duration::from_micros(3));
        m.execute.record(Duration::from_millis(7));
        m.execute.record(Duration::from_millis(9));
        let snap = m.snapshot();
        let text = snap.to_prometheus();
        let report = check_prometheus_snapshot("real", &text, &snap);
        assert!(!report.has_errors(), "{}", report.render());
    }

    #[test]
    fn corrupted_bucket_counts_are_rv044() {
        let m = ServerMetrics::new();
        m.execute.record(Duration::from_millis(7));
        let mut snap = m.snapshot();
        let text = snap.to_prometheus();
        // Tamper with the snapshot after rendering.
        let idx = LatencyHistogram::bucket_index(7e6);
        snap.execute_hist.buckets[idx] += 1;
        snap.execute_hist.count += 1;
        let report = check_prometheus_snapshot("tampered", &text, &snap);
        assert!(report.has_code("RV044"), "{}", report.render());
    }

    #[test]
    fn histogram_lint_catches_decreasing_and_mismatched_buckets() {
        let text = "\
# HELP h x
# TYPE h histogram
h_bucket{le=\"0.1\"} 5
h_bucket{le=\"0.2\"} 3
h_bucket{le=\"+Inf\"} 7
h_sum 1.0
h_count 9
";
        let report = check_prometheus("lint", text);
        assert!(report.has_code("RV043"), "{}", report.render());
        assert!(
            report.error_count() >= 2,
            "decrease AND +Inf/count mismatch"
        );
    }

    #[test]
    fn duplicate_series_is_rv043() {
        // Two writers of one ledger counter, concatenated: the same
        // name and label set (in either label order) twice.
        let text = "\
a_total{tenant=\"t\",class=\"gold\"} 3
a_total{class=\"gold\",tenant=\"t\"} 0
";
        let report = check_prometheus("dup", text);
        assert!(report.has_code("RV043"), "{}", report.render());
        assert!(
            report.render().contains("appears twice"),
            "{}",
            report.render()
        );
        // Same name, different label set: distinct series, clean.
        let ok = "a_total{tenant=\"t\"} 3\na_total{tenant=\"u\"} 0\n";
        assert!(!check_prometheus("distinct", ok).has_errors());
    }

    #[test]
    fn non_contiguous_family_is_rv043() {
        // Per-tenant pushes without grouping: `burn` resumes after
        // `firing`.
        let text = "\
burn{tenant=\"a\"} 1
firing{tenant=\"a\"} 0
burn{tenant=\"b\"} 1
firing{tenant=\"b\"} 0
";
        let report = check_prometheus("split", text);
        assert!(report.has_code("RV043"), "{}", report.render());
        assert_eq!(report.error_count(), 2, "one finding per split family");
        assert!(
            report.render().contains("not contiguous"),
            "{}",
            report.render()
        );
        // A histogram's _bucket/_sum/_count run is one family.
        let hist = "\
h_bucket{le=\"0.1\"} 1
h_bucket{le=\"+Inf\"} 2
h_sum 0.5
h_count 2
g 1
";
        assert!(!check_prometheus("histogram", hist).has_errors());
    }

    #[test]
    fn missing_inf_bucket_is_rv043() {
        let text = "\
h_bucket{le=\"0.1\"} 5
h_sum 1.0
h_count 5
";
        assert!(check_prometheus("noinf", text).has_code("RV043"));
    }
}
