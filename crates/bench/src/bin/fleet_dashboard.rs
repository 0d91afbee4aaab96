//! Renders a fleet `TelemetrySnapshot` JSON (as the root test
//! `tests/fleet_overload.rs` writes it) as a plain-text operator
//! dashboard: per-tenant admission lanes and burn-rate sparklines,
//! per-replica queue/tier gauges, and the alert transition log.
//!
//! ```text
//! fleet_dashboard --in PATH [--out PATH]
//! ```
//!
//! Prints to stdout; `--out` additionally writes the rendering to a
//! file (CI uploads it next to the raw JSON).

use rtoss_bench::format_table;
use rtoss_fleet::{BurnPoint, TelemetrySnapshot};
use std::fmt::Write as _;

fn usage_error(msg: &str) -> ! {
    eprintln!("fleet_dashboard: {msg}");
    eprintln!("usage: fleet_dashboard --in PATH [--out PATH]");
    std::process::exit(2);
}

/// Fixed-width short-burn sparkline, height scaled to the series peak.
/// Longer series are downsampled by max-pooling so a breach spike
/// never disappears between columns.
fn sparkline(burns: &[BurnPoint], fire_burn: f64) -> String {
    const RAMP: [char; 8] = ['.', ':', '-', '=', '+', '*', '#', '@'];
    const WIDTH: usize = 80;
    if burns.is_empty() {
        return String::new();
    }
    let peak = burns.iter().map(|b| b.short).fold(fire_burn, f64::max);
    let columns = burns.len().min(WIDTH);
    (0..columns)
        .map(|c| {
            let lo = c * burns.len() / columns;
            let hi = ((c + 1) * burns.len() / columns).max(lo + 1);
            let v = burns[lo..hi].iter().map(|b| b.short).fold(0.0, f64::max);
            if v <= 0.0 {
                ' '
            } else {
                let frac = (v / peak).clamp(0.0, 1.0);
                RAMP[((frac * (RAMP.len() - 1) as f64).round()) as usize]
            }
        })
        .collect()
}

fn ms(ts_ns: u64) -> String {
    format!("{:.1}", ts_ns as f64 / 1e6)
}

/// Renders the full dashboard text for one snapshot.
fn render(snap: &TelemetrySnapshot) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "fleet telemetry: {} ms windows x {}, admission objective {:.2} \
         (fire {:.1}, resolve {:.1}), deadline objective {:.2}",
        snap.window_ns as f64 / 1e6,
        snap.windows,
        snap.admission_policy.objective,
        snap.admission_policy.fire_burn,
        snap.admission_policy.resolve_burn,
        snap.deadline_policy.objective,
    );
    out.push('\n');

    let tenant_rows: Vec<Vec<String>> = snap
        .tenants
        .iter()
        .map(|t| {
            let (short, long) = t.burns.last().map_or((0.0, 0.0), |b| (b.short, b.long));
            let peak = t.burns.iter().map(|b| b.short).fold(0.0, f64::max);
            vec![
                t.id.clone(),
                t.class.clone(),
                t.totals.offered.to_string(),
                t.totals.admitted.to_string(),
                t.totals.throttled.to_string(),
                t.totals.shed.to_string(),
                t.late.to_string(),
                format!("{short:.2}/{long:.2}"),
                format!("{peak:.2}"),
                if t.firing { "FIRING" } else { "ok" }.to_string(),
            ]
        })
        .collect();
    out.push_str(&format_table(
        "Tenants (admission SLO)",
        &[
            "tenant",
            "class",
            "offered",
            "admitted",
            "throttled",
            "shed",
            "late",
            "burn s/l",
            "peak",
            "state",
        ],
        &tenant_rows,
    ));
    out.push('\n');
    for t in &snap.tenants {
        if !t.burns.is_empty() {
            let _ = writeln!(
                out,
                "  {:<16} [{}]",
                t.id,
                sparkline(&t.burns, snap.admission_policy.fire_burn)
            );
        }
    }
    out.push('\n');

    let replica_rows: Vec<Vec<String>> = snap
        .replicas
        .iter()
        .map(|r| {
            let queue = r.queue_frac.last().map_or(0.0, |w| w.last);
            let tier = r.tier.last().map_or(0.0, |w| w.last);
            let (short, long) = r.burns.last().map_or((0.0, 0.0), |b| (b.short, b.long));
            vec![
                r.replica.to_string(),
                format!("{queue:.2}"),
                format!("{tier:.0}"),
                format!("{short:.2}/{long:.2}"),
                if r.firing { "FIRING" } else { "ok" }.to_string(),
            ]
        })
        .collect();
    out.push_str(&format_table(
        "Replicas (deadline SLO)",
        &["replica", "queue frac", "tier", "burn s/l", "state"],
        &replica_rows,
    ));
    out.push('\n');

    if snap.alerts.is_empty() {
        let _ = writeln!(out, "no alert transitions");
    } else {
        let alert_rows: Vec<Vec<String>> = snap
            .alerts
            .iter()
            .map(|a| {
                vec![
                    ms(a.ts_ns),
                    a.rule.clone(),
                    a.subject.clone(),
                    a.state.clone(),
                    format!("{:.2}", a.burn_short),
                    format!("{:.2}", a.burn_long),
                ]
            })
            .collect();
        out.push_str(&format_table(
            "Alert transitions",
            &[
                "t (ms)",
                "rule",
                "subject",
                "state",
                "burn short",
                "burn long",
            ],
            &alert_rows,
        ));
    }
    let _ = writeln!(
        out,
        "\nflight dumps: {} rendered, {} suppressed",
        snap.dump_count, snap.dumps_suppressed
    );
    out
}

fn main() {
    let mut input: Option<String> = None;
    let mut output: Option<String> = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| usage_error(&format!("missing value for {flag}")))
        };
        match flag.as_str() {
            "--in" => input = Some(value()),
            "--out" => output = Some(value()),
            other => usage_error(&format!("unknown flag {other}")),
        }
    }
    let input = input.unwrap_or_else(|| usage_error("--in PATH is required"));
    let text = std::fs::read_to_string(&input)
        .unwrap_or_else(|e| usage_error(&format!("cannot read {input}: {e}")));
    let snap: TelemetrySnapshot = serde_json::from_str(&text)
        .unwrap_or_else(|e| usage_error(&format!("{input} is not a telemetry snapshot: {e}")));
    let rendering = render(&snap);
    print!("{rendering}");
    if let Some(path) = output {
        if let Some(dir) = std::path::Path::new(&path).parent() {
            std::fs::create_dir_all(dir).expect("output dir");
        }
        std::fs::write(&path, &rendering).expect("write output");
        println!("dashboard: {path}");
    }
}
