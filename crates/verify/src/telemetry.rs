//! RV080–RV083: fleet SLO telemetry invariants.
//!
//! A telemetry-enabled fleet yields a [`TelemetrySnapshot`] JSON
//! document and one flight-dump JSON per breach (the root test
//! `tests/fleet_overload.rs` writes both from a live overloaded
//! fleet); the passes here prove the telemetry plane's promises hold
//! on those artifacts:
//!
//! - **RV080** — window geometry: per-series windows strictly
//!   ascending, aligned to the storage window width, and no more of
//!   them than the ring holds; burn points ordered by tick time.
//! - **RV081** — conservation: within every admission window
//!   `offered == admitted + throttled + shed`; live windows plus
//!   evicted harvest equal the grand totals per lane; and, when the
//!   fleet ledger snapshot is supplied, series totals plus late drops
//!   reconcile against the ledger (the series is the ledger's windowed
//!   shadow, not an independent estimate).
//! - **RV082** — alert legality: burn-rate policies validate; per
//!   (rule, subject) the alert log is time-ordered and alternates
//!   firing → resolved starting with firing; every firing transition
//!   carries burns at or above `fire_burn` on *both* ranges and every
//!   resolve at or below `resolve_burn` on the short range; the
//!   snapshot's `firing` flags agree with the last logged transition.
//! - **RV083** — flight-dump well-formedness: the post-mortem JSON
//!   parses, carries the required metadata, holds no more entries than
//!   its capacity, keeps them sorted by timestamp with kind-specific
//!   fields present, and its `[first_ts_ns, last_ts_ns]` window covers
//!   the triggering instant.

use crate::diag::{Diagnostic, Report};
use rtoss_fleet::{
    AdmissionWindow, FleetSnapshot, GaugeWindow, TelemetrySnapshot, TenantTelemetrySnapshot,
};
use serde_json::Value;
use std::collections::BTreeMap;

/// RV080: window geometry of every series in the snapshot.
pub fn check_telemetry_windows(snap: &TelemetrySnapshot) -> Report {
    let mut report = Report::new();
    if snap.window_ns == 0 {
        report.push(Diagnostic::error(
            "RV080",
            "telemetry snapshot".to_string(),
            "storage window width is zero".to_string(),
        ));
        return report;
    }
    if snap.windows < 2 {
        report.push(Diagnostic::error(
            "RV080",
            "telemetry snapshot".to_string(),
            format!("ring length {} < 2", snap.windows),
        ));
    }
    for t in &snap.tenants {
        let loc = format!("tenant {:?} admission", t.id);
        check_window_starts(
            &mut report,
            &loc,
            snap,
            t.windows.iter().map(|w| w.start_ns),
        );
        check_burn_order(&mut report, &loc, &t.burns);
    }
    for r in &snap.replicas {
        for (series, windows) in [("queue_frac", &r.queue_frac), ("tier", &r.tier)] {
            let loc = format!("replica {} {series}", r.replica);
            check_window_starts(&mut report, &loc, snap, windows.iter().map(|w| w.start_ns));
            check_gauge_bounds(&mut report, &loc, windows);
        }
        check_burn_order(
            &mut report,
            &format!("replica {} deadline", r.replica),
            &r.burns,
        );
    }
    report
}

fn check_window_starts(
    report: &mut Report,
    loc: &str,
    snap: &TelemetrySnapshot,
    starts: impl Iterator<Item = u64>,
) {
    let starts: Vec<u64> = starts.collect();
    if starts.len() > snap.windows {
        report.push(Diagnostic::error(
            "RV080",
            loc.to_string(),
            format!(
                "{} live windows exceed the ring length {}",
                starts.len(),
                snap.windows
            ),
        ));
    }
    for (i, &s) in starts.iter().enumerate() {
        if s % snap.window_ns != 0 {
            report.push(Diagnostic::error(
                "RV080",
                format!("{loc} window[{i}]"),
                format!(
                    "start {s} ns is not aligned to the {} ns window width",
                    snap.window_ns
                ),
            ));
        }
        if i > 0 && s <= starts[i - 1] {
            report.push(Diagnostic::error(
                "RV080",
                format!("{loc} window[{i}]"),
                format!(
                    "start {s} ns does not strictly follow the previous window at {} ns",
                    starts[i - 1]
                ),
            ));
        }
    }
}

fn check_gauge_bounds(report: &mut Report, loc: &str, windows: &[GaugeWindow]) {
    for (i, w) in windows.iter().enumerate() {
        if w.count > 0 && !(w.min <= w.last && w.last <= w.max) {
            report.push(Diagnostic::error(
                "RV080",
                format!("{loc} window[{i}]"),
                format!(
                    "gauge bounds inconsistent: min {} / last {} / max {}",
                    w.min, w.last, w.max
                ),
            ));
        }
    }
}

fn check_burn_order(report: &mut Report, loc: &str, burns: &[rtoss_fleet::BurnPoint]) {
    for (i, pair) in burns.windows(2).enumerate() {
        if pair[1].ts_ns < pair[0].ts_ns {
            report.push(Diagnostic::error(
                "RV080",
                format!("{loc} burn[{}]", i + 1),
                format!(
                    "burn point at {} ns precedes its predecessor at {} ns",
                    pair[1].ts_ns, pair[0].ts_ns
                ),
            ));
        }
    }
}

/// RV081: admission conservation, per window, per lane, and (when the
/// fleet ledger snapshot is supplied) against the ledger.
pub fn check_telemetry_conservation(
    snap: &TelemetrySnapshot,
    ledger: Option<&FleetSnapshot>,
) -> Report {
    let mut report = Report::new();
    for t in &snap.tenants {
        check_tenant_conservation(&mut report, t);
        if let Some(ledger) = ledger {
            check_tenant_ledger(&mut report, t, ledger);
        }
    }
    report
}

fn lane_sums(windows: &[AdmissionWindow]) -> (u64, u64, u64, u64) {
    windows.iter().fold((0, 0, 0, 0), |acc, w| {
        (
            acc.0 + w.offered,
            acc.1 + w.admitted,
            acc.2 + w.throttled,
            acc.3 + w.shed,
        )
    })
}

fn check_tenant_conservation(report: &mut Report, t: &TenantTelemetrySnapshot) {
    let loc = format!("tenant {:?}", t.id);
    for (i, w) in t.windows.iter().enumerate() {
        let outcomes = w.admitted + w.throttled + w.shed;
        if w.offered != outcomes {
            report.push(Diagnostic::error(
                "RV081",
                format!("{loc} window[{i}] @ {} ns", w.start_ns),
                format!(
                    "window not conserved: offered {} != admitted {} + throttled {} + shed {}",
                    w.offered, w.admitted, w.throttled, w.shed
                ),
            ));
        }
    }
    let live = lane_sums(&t.windows);
    let lanes = [
        ("offered", live.0, t.evicted.offered, t.totals.offered),
        ("admitted", live.1, t.evicted.admitted, t.totals.admitted),
        ("throttled", live.2, t.evicted.throttled, t.totals.throttled),
        ("shed", live.3, t.evicted.shed, t.totals.shed),
    ];
    for (lane, live, evicted, total) in lanes {
        if live + evicted != total {
            report.push(Diagnostic::error(
                "RV081",
                format!("{loc} lane {lane}"),
                format!("live windows {live} + evicted {evicted} != total {total}"),
            ));
        }
    }
    let outcome_total = t.totals.admitted + t.totals.throttled + t.totals.shed;
    if t.totals.offered != outcome_total {
        report.push(Diagnostic::error(
            "RV081",
            format!("{loc} totals"),
            format!(
                "totals not conserved: offered {} != admitted {} + throttled {} + shed {}",
                t.totals.offered, t.totals.admitted, t.totals.throttled, t.totals.shed
            ),
        ));
    }
}

fn check_tenant_ledger(report: &mut Report, t: &TenantTelemetrySnapshot, ledger: &FleetSnapshot) {
    let loc = format!("tenant {:?} vs ledger", t.id);
    let Some(counters) = ledger.tenants.iter().find(|l| l.id == t.id) else {
        report.push(Diagnostic::error(
            "RV081",
            loc,
            "tenant has telemetry but no fleet-ledger entry".to_string(),
        ));
        return;
    };
    // A late sample drops the offered lane and its outcome lane
    // together (they are recorded as one pair), so the series plus the
    // late count must reproduce the ledger exactly.
    if t.totals.offered + t.late != counters.offered {
        report.push(Diagnostic::error(
            "RV081",
            loc.clone(),
            format!(
                "series offered {} + late {} != ledger offered {}",
                t.totals.offered, t.late, counters.offered
            ),
        ));
    }
    let series_outcomes = t.totals.admitted + t.totals.throttled + t.totals.shed;
    let ledger_outcomes = counters.admitted + counters.throttled + counters.shed;
    if series_outcomes + t.late != ledger_outcomes {
        report.push(Diagnostic::error(
            "RV081",
            loc.clone(),
            format!(
                "series outcomes {series_outcomes} + late {} != ledger outcomes {ledger_outcomes}",
                t.late
            ),
        ));
    }
    if t.late == 0 {
        let lanes = [
            ("admitted", t.totals.admitted, counters.admitted),
            ("throttled", t.totals.throttled, counters.throttled),
            ("shed", t.totals.shed, counters.shed),
        ];
        for (lane, series, ledger) in lanes {
            if series != ledger {
                report.push(Diagnostic::error(
                    "RV081",
                    format!("{loc} lane {lane}"),
                    format!("series total {series} != ledger count {ledger} with no late drops"),
                ));
            }
        }
    }
}

/// RV082: burn-rate policy validity and alert-log legality.
pub fn check_alert_log(snap: &TelemetrySnapshot) -> Report {
    let mut report = Report::new();
    for (rule, policy) in [
        ("admission", &snap.admission_policy),
        ("deadline", &snap.deadline_policy),
    ] {
        for problem in policy.to_policy().validate() {
            report.push(Diagnostic::error(
                "RV082",
                format!("{rule} policy"),
                problem,
            ));
        }
    }
    let mut by_subject: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
    for (i, a) in snap.alerts.iter().enumerate() {
        by_subject
            .entry((a.rule.as_str(), a.subject.as_str()))
            .or_default()
            .push(i);
    }
    for ((rule, subject), indices) in &by_subject {
        let loc = format!("alerts for {rule}/{subject:?}");
        let policy = match *rule {
            "admission" => snap.admission_policy,
            "deadline" => snap.deadline_policy,
            other => {
                report.push(Diagnostic::error(
                    "RV082",
                    loc,
                    format!("unknown alert rule {other:?}"),
                ));
                continue;
            }
        };
        let mut last_ts = 0u64;
        for (seq, &i) in indices.iter().enumerate() {
            let a = &snap.alerts[i];
            if a.ts_ns < last_ts {
                report.push(Diagnostic::error(
                    "RV082",
                    format!("{loc}[{seq}]"),
                    format!(
                        "transition at {} ns precedes the previous at {last_ts} ns",
                        a.ts_ns
                    ),
                ));
            }
            last_ts = a.ts_ns;
            let expected = if seq % 2 == 0 { "firing" } else { "resolved" };
            if a.state != expected {
                report.push(Diagnostic::error(
                    "RV082",
                    format!("{loc}[{seq}]"),
                    format!(
                        "state {:?} breaks firing/resolved alternation (expected {expected:?})",
                        a.state
                    ),
                ));
                continue;
            }
            match a.state.as_str() {
                "firing" => {
                    if a.burn_short < policy.fire_burn || a.burn_long < policy.fire_burn {
                        report.push(Diagnostic::error(
                            "RV082",
                            format!("{loc}[{seq}]"),
                            format!(
                                "firing with burns {:.3}/{:.3} below fire threshold {:.3}",
                                a.burn_short, a.burn_long, policy.fire_burn
                            ),
                        ));
                    }
                }
                _ => {
                    if a.burn_short > policy.resolve_burn {
                        report.push(Diagnostic::error(
                            "RV082",
                            format!("{loc}[{seq}]"),
                            format!(
                                "resolved with short burn {:.3} above resolve threshold {:.3}",
                                a.burn_short, policy.resolve_burn
                            ),
                        ));
                    }
                }
            }
        }
    }
    let last_state = |rule: &str, subject: &str| {
        by_subject
            .get(&(rule, subject))
            .and_then(|v| v.last())
            .map(|&i| snap.alerts[i].state == "firing")
            .unwrap_or(false)
    };
    for t in &snap.tenants {
        if t.firing != last_state("admission", &t.id) {
            report.push(Diagnostic::error(
                "RV082",
                format!("tenant {:?}", t.id),
                format!(
                    "snapshot firing flag {} disagrees with the alert log",
                    t.firing
                ),
            ));
        }
    }
    for r in &snap.replicas {
        let subject = format!("replica/{}", r.replica);
        if r.firing != last_state("deadline", &subject) {
            report.push(Diagnostic::error(
                "RV082",
                subject,
                format!(
                    "snapshot firing flag {} disagrees with the alert log",
                    r.firing
                ),
            ));
        }
    }
    report
}

/// RV083: flight-dump well-formedness and trigger coverage.
pub fn check_flight_dump(label: &str, json: &str) -> Report {
    let mut report = Report::new();
    let parsed: Value = match serde_json::from_str(json) {
        Ok(v) => v,
        Err(e) => {
            report.push(Diagnostic::error(
                "RV083",
                label.to_string(),
                format!("flight dump does not parse: {e}"),
            ));
            return report;
        }
    };
    let err = |report: &mut Report, what: String| {
        report.push(Diagnostic::error("RV083", label.to_string(), what));
    };
    let reason = parsed.field("reason").ok().and_then(|v| v.as_str().ok());
    match reason {
        Some("") | None => err(&mut report, "missing or empty `reason`".to_string()),
        Some(_) => {}
    }
    let mut meta = |key: &str| -> Option<u64> {
        let v = parsed.field(key).ok().and_then(value_u64);
        if v.is_none() {
            err(&mut report, format!("missing numeric `{key}`"));
        }
        v
    };
    let trigger = meta("trigger_ts_ns");
    let _ = meta("dumped_at_ns");
    let capacity = meta("capacity");
    let _ = meta("displaced");
    let first = meta("first_ts_ns");
    let last = meta("last_ts_ns");
    if capacity == Some(0) {
        err(&mut report, "capacity is zero".to_string());
    }
    let entries = match parsed.field("entries") {
        Ok(Value::Arr(items)) => items.as_slice(),
        _ => {
            err(&mut report, "missing `entries` array".to_string());
            return report;
        }
    };
    if let Some(cap) = capacity {
        if entries.len() as u64 > cap {
            err(
                &mut report,
                format!("{} entries exceed capacity {cap}", entries.len()),
            );
        }
    }
    let mut prev_ts: Option<u64> = None;
    for (i, e) in entries.iter().enumerate() {
        let Some(ts) = check_entry(&mut report, label, i, e) else {
            continue;
        };
        if let Some(prev) = prev_ts {
            if ts < prev {
                err(
                    &mut report,
                    format!(
                        "entry[{i}] at {ts} ns precedes entry[{}] at {prev} ns",
                        i - 1
                    ),
                );
            }
        }
        prev_ts = Some(ts);
        if i == 0 && first.is_some_and(|f| f != ts) {
            err(
                &mut report,
                format!("first_ts_ns {} != first entry ts {ts}", first.unwrap_or(0)),
            );
        }
        if i == entries.len() - 1 && last.is_some_and(|l| l != ts) {
            err(
                &mut report,
                format!("last_ts_ns {} != last entry ts {ts}", last.unwrap_or(0)),
            );
        }
    }
    if let (Some(first), Some(trigger), Some(last)) = (first, trigger, last) {
        if !(first <= trigger && trigger <= last) {
            err(
                &mut report,
                format!("window [{first}, {last}] ns does not cover the trigger at {trigger} ns"),
            );
        }
    }
    report
}

/// Validates one dump entry's kind-specific fields; returns its
/// timestamp when present.
fn check_entry(report: &mut Report, label: &str, i: usize, e: &Value) -> Option<u64> {
    let loc = format!("{label} entry[{i}]");
    let mut fail = |what: String| {
        report.push(Diagnostic::error("RV083", loc.clone(), what));
    };
    let Some(kind) = e.field("kind").ok().and_then(|v| v.as_str().ok()) else {
        fail("entry has no string `kind`".to_string());
        return None;
    };
    let required: &[&str] = match kind {
        "span" => &["name", "dur_ns"],
        "instant" => &["name", "detail"],
        "sample" => &["series", "value"],
        "alert" => &["rule", "subject", "state", "burn_short", "burn_long"],
        other => {
            fail(format!("unknown entry kind {other:?}"));
            return None;
        }
    };
    for key in required {
        if e.field(key).is_err() {
            fail(format!("{kind} entry missing `{key}`"));
        }
    }
    if kind == "alert" {
        let state = e.field("state").ok().and_then(|v| v.as_str().ok());
        if !matches!(state, Some("firing") | Some("resolved")) {
            fail(format!(
                "alert state {state:?} is neither firing nor resolved"
            ));
        }
    }
    let ts = e.field("ts_ns").ok().and_then(value_u64);
    if ts.is_none() {
        fail(format!("{kind} entry missing numeric `ts_ns`"));
    }
    ts
}

fn value_u64(v: &Value) -> Option<u64> {
    match v {
        Value::Int(i) if *i >= 0 => Some(*i as u64),
        Value::UInt(u) => Some(*u),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtoss_obs::FlightRecorder;

    #[test]
    fn clean_artifacts_pass_every_check() {
        let snap = crate::fixtures::telemetry_fixture_base();
        assert!(!check_telemetry_windows(&snap).has_errors());
        assert!(!check_telemetry_conservation(&snap, None).has_errors());
        assert!(!check_alert_log(&snap).has_errors());
        let dump = crate::fixtures::flight_fixture_dump();
        assert!(!check_flight_dump("fixture dump", &dump).has_errors());
    }

    #[test]
    fn garbage_flight_dump_is_an_rv083_error() {
        assert!(check_flight_dump("garbage", "not json").has_code("RV083"));
        assert!(check_flight_dump("hollow", "{}").has_code("RV083"));
    }

    #[test]
    fn trigger_outside_the_covered_window_is_detected() {
        let r = FlightRecorder::new(8);
        r.span("tick", 100, 5);
        r.instant("evt", 50, "earlier");
        let dump = r.dump("manual", 10);
        assert!(check_flight_dump("fixture", &dump).has_code("RV083"));
    }
}
