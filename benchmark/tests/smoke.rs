//! Runs every workload of `BENCHMARK.json` in smoke mode (2 s phases),
//! untraced and traced, and checks that the result line carries exactly
//! the declared metrics, each finite and with the declared unit, and
//! that no end-to-end metric reads 0.

use serde_json::Value;
use std::path::Path;
use std::process::Command;

const EXE: &str = env!("CARGO_BIN_EXE_rtoss-benchmark");

fn declared() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn items<'a>(doc: &'a Value, key: &str) -> &'a [Value] {
    match doc.field(key) {
        Ok(Value::Arr(items)) => items,
        other => panic!("{key} is not an array: {other:?}"),
    }
}

fn text<'a>(item: &'a Value, key: &str) -> &'a str {
    item.field(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|e| panic!("{key}: {e}"))
}

fn smoke_run(workload: &str, trace: &str) -> Value {
    let out = Command::new(EXE)
        .args(["--workload", workload, "--seed", "3", "--seconds", "4"])
        .args(["--trace", trace, "--smoke"])
        .env_remove("RTOSS_THREADS")
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} --trace {trace} exited {}:\n{stdout}",
        out.status
    );
    let last = stdout.lines().last().expect("a result line");
    serde_json::from_str(last).unwrap_or_else(|e| panic!("result line is not JSON ({e}): {last}"))
}

#[test]
fn every_workload_reports_every_declared_metric() {
    let doc = declared();
    for workload in items(&doc, "workloads") {
        let workload = text(workload, "name");
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let result = smoke_run(workload, trace);
            assert!(
                matches!(result.field("correct"), Ok(Value::Bool(true))),
                "{workload} --trace {trace} was not correct"
            );
            assert!(matches!(
                result.field("failed"),
                Ok(Value::Int(0) | Value::UInt(0))
            ));
            let Ok(Value::Obj(metrics)) = result.field("metrics") else {
                panic!("{workload}: metrics is not an object");
            };
            let want = items(&doc, key);
            let got: Vec<&str> = metrics.iter().map(|(name, _)| name.as_str()).collect();
            let names: Vec<&str> = want.iter().map(|m| text(m, "name")).collect();
            assert_eq!(got, names, "{workload} --trace {trace}: metric names");
            for (declared, (name, entry)) in want.iter().zip(metrics) {
                assert_eq!(
                    text(entry, "unit"),
                    text(declared, "unit"),
                    "{workload}: unit of {name}"
                );
                let value = match entry.field("value") {
                    Ok(Value::Float(v)) => *v,
                    Ok(Value::Int(v)) => *v as f64,
                    Ok(Value::UInt(v)) => *v as f64,
                    other => panic!("{workload}: {name} has no numeric value: {other:?}"),
                };
                assert!(value.is_finite(), "{workload}: {name} is not finite");
                // A gated metric that reads 0 would pass any bound.
                assert!(
                    key == "per_layer" || value > 0.0,
                    "{workload}: end-to-end metric {name} is {value}"
                );
            }
        }
    }
}

#[test]
fn refuses_to_run_with_an_execution_knob_set() {
    let out = Command::new(EXE)
        .args([
            "--workload",
            "stream_closed",
            "--seed",
            "1",
            "--seconds",
            "1",
        ])
        .args(["--trace", "0", "--smoke"])
        .env("RTOSS_THREADS", "1")
        .output()
        .expect("benchmark binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "a refused run prints no result");
}
