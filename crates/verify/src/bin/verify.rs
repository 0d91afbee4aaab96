//! Pre-flight static analysis over the seed pruned models.
//!
//! Default mode runs [`rtoss_verify::check_seed_artifacts`]: the
//! scaled YOLOv5s / RetinaNet twins pruned at every seed entry-pattern
//! configuration, their compiled engines, and the seed fleet
//! configurations; the exit code is non-zero if any invariant is
//! violated. `--fixture NAME` instead runs one
//! seeded-corruption fixture — there the checks are *supposed* to
//! fire, so a non-zero exit proves the verifier can fail. `--json`
//! (combinable with any mode) switches the output to the stable
//! machine-readable schema of [`Report::to_json`] for CI artifacts.

use rtoss_verify::{fixtures, Report};
use std::process::ExitCode;

/// Prints the report in the selected format and maps it to an exit
/// code: failure iff any finding is present.
fn emit(report: &Report, json: bool) -> ExitCode {
    if json {
        println!("{}", report.to_json());
    } else {
        print!("{}", report.render());
    }
    if report.has_errors() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn full_run(json: bool) -> ExitCode {
    match rtoss_verify::check_seed_artifacts() {
        Ok(report) => emit(&report, json),
        Err(e) => {
            eprintln!("verify: {e}");
            ExitCode::from(2)
        }
    }
}

/// Reads `path` and runs `check` over its contents, exiting non-zero on
/// any error finding. Shared by the `--trace` and `--prom` modes.
fn file_run(path: &str, json: bool, check: impl FnOnce(&str, &str) -> Report) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("verify: cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };
    emit(&check(path, &text), json)
}

/// Parses a `TelemetrySnapshot` JSON document and runs the RV080–RV082
/// telemetry passes over it (conservation without the ledger
/// cross-check — the bench validates against the live ledger itself).
fn check_telemetry_file(label: &str, text: &str) -> Report {
    let snap: rtoss_fleet::TelemetrySnapshot = match serde_json::from_str(text) {
        Ok(s) => s,
        Err(e) => {
            let mut report = Report::new();
            report.push(rtoss_verify::Diagnostic::error(
                "RV080",
                label.to_string(),
                format!("telemetry snapshot does not parse: {e}"),
            ));
            return report;
        }
    };
    let mut report = rtoss_verify::check_telemetry_windows(&snap);
    report.extend(rtoss_verify::check_telemetry_conservation(&snap, None).diagnostics);
    report.extend(rtoss_verify::check_alert_log(&snap).diagnostics);
    report
}

fn fixture_run(name: &str, json: bool) -> ExitCode {
    let Some(&(_, run, _)) = fixtures::FIXTURES.iter().find(|f| f.0 == name) else {
        let known: Vec<&str> = fixtures::FIXTURES.iter().map(|f| f.0).collect();
        eprintln!(
            "verify: unknown fixture {name:?}; known: {}",
            known.join(", ")
        );
        return ExitCode::from(2);
    };
    emit(&run(), json)
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    args.retain(|a| a != "--json");
    match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        [] => full_run(json),
        ["--fixture", name] => fixture_run(name, json),
        ["--trace", path] => file_run(path, json, rtoss_verify::check_trace_json),
        ["--prom", path] => file_run(path, json, rtoss_verify::check_prometheus),
        ["--telemetry", path] => file_run(path, json, check_telemetry_file),
        ["--flight", path] => file_run(path, json, rtoss_verify::check_flight_dump),
        ["--list-fixtures"] => {
            for (name, _, _) in fixtures::FIXTURES {
                println!("{name}");
            }
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!(
                "usage: verify [--json] [--fixture NAME | --trace FILE | --prom FILE | \
                 --telemetry FILE | --flight FILE | --list-fixtures]"
            );
            ExitCode::from(2)
        }
    }
}
