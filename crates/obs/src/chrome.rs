//! Exporter: Chrome/Perfetto `trace.json`.
//!
//! The Chrome trace event format is emitted by hand (this crate is
//! dependency-free): a JSON array of event objects that
//! `chrome://tracing` and [Perfetto](https://ui.perfetto.dev) load
//! directly. Synchronous spans become complete events (`"ph":"X"`),
//! async intervals become legacy async begin/end pairs (`"ph":"b"` /
//! `"ph":"e"`, correlated by `id`), and markers become instant events
//! (`"ph":"i"`). Timestamps are microseconds since the trace epoch.

use crate::trace::{ArgValue, EventKind, Trace, TraceEvent};
use std::fmt::Write as _;

/// Appends `s` to `out` as a JSON string literal (with quotes).
pub(crate) fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

pub(crate) fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        // JSON has no Infinity/NaN; stringify so the file stays loadable.
        push_json_str(out, &format!("{v}"));
    }
}

fn push_args(out: &mut String, args: &[(&'static str, ArgValue)]) {
    out.push('{');
    for (i, (k, v)) in args.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_str(out, k);
        out.push(':');
        match v {
            ArgValue::U64(u) => {
                let _ = write!(out, "{u}");
            }
            ArgValue::I64(n) => {
                let _ = write!(out, "{n}");
            }
            ArgValue::F64(f) => push_f64(out, *f),
            ArgValue::Str(s) => push_json_str(out, s),
            ArgValue::Static(s) => push_json_str(out, s),
        }
    }
    out.push('}');
}

/// Microseconds (Chrome trace unit) from nanoseconds, keeping
/// sub-microsecond resolution as a fraction.
fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn push_common(out: &mut String, e: &TraceEvent, ph: char, ts_ns: u64) {
    out.push_str("{\"name\":");
    push_json_str(out, &e.name);
    let _ = write!(out, ",\"ph\":\"{ph}\",\"pid\":1,\"tid\":{}", e.tid);
    out.push_str(",\"ts\":");
    push_f64(out, us(ts_ns));
}

fn push_event(out: &mut String, e: &TraceEvent) {
    match e.kind {
        EventKind::Span => {
            push_common(out, e, 'X', e.ts_ns);
            out.push_str(",\"dur\":");
            push_f64(out, us(e.dur_ns));
            if !e.args.is_empty() {
                out.push_str(",\"args\":");
                push_args(out, &e.args);
            }
            out.push('}');
        }
        EventKind::Async { id } => {
            // Legacy async begin/end pair on a shared category track.
            push_common(out, e, 'b', e.ts_ns);
            let _ = write!(out, ",\"cat\":\"async\",\"id\":\"0x{id:x}\"");
            if !e.args.is_empty() {
                out.push_str(",\"args\":");
                push_args(out, &e.args);
            }
            out.push_str("},\n");
            push_common(out, e, 'e', e.ts_ns + e.dur_ns);
            let _ = write!(out, ",\"cat\":\"async\",\"id\":\"0x{id:x}\"");
            out.push('}');
        }
        EventKind::Instant => {
            push_common(out, e, 'i', e.ts_ns);
            out.push_str(",\"s\":\"t\"");
            if !e.args.is_empty() {
                out.push_str(",\"args\":");
                push_args(out, &e.args);
            }
            out.push('}');
        }
    }
}

impl Trace {
    /// Renders the trace as a Chrome/Perfetto-loadable JSON array.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(128 * self.events.len() + 16);
        out.push_str("[\n");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            push_event(&mut out, e);
        }
        out.push_str("\n]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::borrow::Cow;

    fn event(name: &'static str, kind: EventKind, ts: u64, dur: u64) -> TraceEvent {
        TraceEvent {
            name: Cow::Borrowed(name),
            kind,
            tid: 1,
            ts_ns: ts,
            dur_ns: dur,
            args: Vec::new(),
        }
    }

    #[test]
    fn chrome_json_emits_complete_async_and_instant_events() {
        let trace = Trace {
            events: vec![
                event("execute", EventKind::Span, 1_000, 2_000),
                event("queue_wait", EventKind::Async { id: 3 }, 0, 500),
                event("enqueue", EventKind::Instant, 100, 0),
            ],
            dropped: 0,
        };
        let json = trace.to_chrome_json();
        assert!(json.starts_with("[\n"));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"b\""));
        assert!(json.contains("\"ph\":\"e\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"id\":\"0x3\""));
        assert!(json.contains("\"dur\":2"));
    }

    #[test]
    fn escapes_hostile_names_and_args() {
        let mut e = event("weird \"name\"\n", EventKind::Span, 0, 1);
        e.args = vec![
            ("s", ArgValue::Str("a\\b\t".into())),
            ("f", ArgValue::F64(f64::NAN)),
        ];
        let trace = Trace {
            events: vec![e],
            dropped: 0,
        };
        let json = trace.to_chrome_json();
        assert!(json.contains("weird \\\"name\\\"\\n"));
        assert!(json.contains("a\\\\b\\t"));
        assert!(json.contains("\"NaN\""), "NaN stringified: {json}");
    }
}
