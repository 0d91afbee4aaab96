//! Named metrics, the result line, and the `--repeat` report.

use crate::stats::{median, quartiles_exclusive, sorted};
use serde_json::Value;
use std::fmt::Write as _;
use std::path::Path;

/// Named values with units, in the order they were filed.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
    not_finite: Vec<String>,
}

impl Metrics {
    /// Files `value` under `name`. A value that is not finite (a phase
    /// with nothing to take a median of or to divide by) is filed as 0
    /// so the result line stays valid JSON, and remembered: it fails
    /// the run, because a 0 would read as an improvement.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        if !value.is_finite() {
            self.not_finite.push(name.to_string());
        }
        let value = if value.is_finite() { value } else { 0.0 };
        self.entries.push((name.to_string(), value, unit));
    }

    /// Names of the metrics whose value was not finite.
    pub fn not_finite(&self) -> &[String] {
        &self.not_finite
    }

    /// One `name value unit` line per metric.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, value, unit) in &self.entries {
            let _ = writeln!(out, "  {name:<36} {value:>16.6} {unit}");
        }
        out
    }
}

/// The single JSON object a run prints as its last line.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let metrics = metrics
        .entries
        .iter()
        .map(|(name, value, unit)| {
            (
                name.clone(),
                Value::Obj(vec![
                    ("value".to_string(), Value::Float(*value)),
                    ("unit".to_string(), Value::Str((*unit).to_string())),
                ]),
            )
        })
        .collect();
    let doc = Value::Obj(vec![
        ("correct".to_string(), Value::Bool(correct)),
        ("attempted".to_string(), Value::UInt(attempted.max(1))),
        ("failed".to_string(), Value::UInt(failed)),
        ("metrics".to_string(), Value::Obj(metrics)),
    ]);
    serde_json::to_string(&doc).expect("a Value tree always serializes")
}

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::Float(f) => Some(*f),
        Value::Int(i) => Some(*i as f64),
        Value::UInt(u) => Some(*u as f64),
        _ => None,
    }
}

/// A parsed result line.
#[derive(Debug)]
pub struct ParsedResult {
    /// The run's own verdict.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// `(name, value, unit)` in printed order.
    pub metrics: Vec<(String, f64, String)>,
}

/// Parses the result line back (used by `--repeat` and the smoke test).
pub fn parse_result_line(line: &str) -> Result<ParsedResult, String> {
    let doc: Value = serde_json::from_str(line).map_err(|e| e.to_string())?;
    let field = |name: &str| doc.field(name).map_err(|e| e.to_string());
    let Value::Obj(pairs) = field("metrics")? else {
        return Err("metrics is not an object".into());
    };
    let mut metrics = Vec::with_capacity(pairs.len());
    for (name, entry) in pairs {
        let value = entry
            .field("value")
            .ok()
            .and_then(number)
            .ok_or_else(|| format!("metric {name} has no numeric value"))?;
        let unit = entry
            .field("unit")
            .and_then(Value::as_str)
            .map_err(|e| format!("metric {name}: {e}"))?;
        metrics.push((name.clone(), value, unit.to_string()));
    }
    let count = |name: &str| -> Result<u64, String> {
        number(field(name)?)
            .map(|v| v as u64)
            .ok_or_else(|| format!("{name} is not a number"))
    };
    Ok(ParsedResult {
        correct: matches!(field("correct")?, Value::Bool(true)),
        attempted: count("attempted")?,
        failed: count("failed")?,
        metrics,
    })
}

/// An end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone)]
pub struct Declared {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Whether `higher` values are better.
    pub higher_is_better: bool,
    /// Share of the median it may worsen by.
    pub bound: f64,
}

/// Reads the end-to-end declarations of `BENCHMARK.json`.
pub fn declared_end_to_end(benchmark_json: &Path) -> Result<Vec<Declared>, String> {
    let text = std::fs::read_to_string(benchmark_json)
        .map_err(|e| format!("{}: {e}", benchmark_json.display()))?;
    let doc: Value = serde_json::from_str(&text).map_err(|e| e.to_string())?;
    let Value::Arr(items) = doc.field("end_to_end").map_err(|e| e.to_string())? else {
        return Err("end_to_end is not an array".into());
    };
    items
        .iter()
        .map(|item| {
            let text = |f: &str| {
                item.field(f)
                    .and_then(Value::as_str)
                    .map(str::to_string)
                    .map_err(|e| e.to_string())
            };
            Ok(Declared {
                name: text("name")?,
                unit: text("unit")?,
                higher_is_better: text("better")? == "higher",
                bound: item
                    .field("bound")
                    .ok()
                    .and_then(number)
                    .ok_or("bound is not a number")?,
            })
        })
        .collect()
}

/// Spread of one metric over one set of runs, the way the acceptance
/// driver computes it: (Q3 − Q1) / median with exclusive quartiles.
pub fn spread(values: &[f64]) -> f64 {
    match quartiles_exclusive(values) {
        Some([q1, q2, q3]) if q2 != 0.0 => (q3 - q1) / q2.abs(),
        _ => 0.0,
    }
}

/// The value of metric `name` in every run that reported it.
fn values_of(runs: &[ParsedResult], name: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|r| r.metrics.iter().find(|m| m.0 == name).map(|m| m.1))
        .collect()
}

/// The per-set table of a `--repeat` report.
pub fn render_set(label: &str, declared: &[Declared], runs: &[ParsedResult]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{label}: {} runs", runs.len());
    let _ = writeln!(
        out,
        "  {:<22} {:>6} {:>12} {:>12} {:>12} {:>12} {:>8} {:>7}  verdict",
        "metric", "unit", "median", "q1", "q3", "max-min", "spread", "bound"
    );
    for d in declared {
        let values = values_of(runs, &d.name);
        let s = sorted(&values);
        let (q1, q3) = quartiles_exclusive(&values).map_or((0.0, 0.0), |q| (q[0], q[2]));
        let range = s.last().copied().unwrap_or(0.0) - s.first().copied().unwrap_or(0.0);
        let sp = spread(&values);
        let verdict = if sp <= d.bound / 3.0 {
            "steady"
        } else if sp <= d.bound {
            "within bound"
        } else if d.name == "setup_s" {
            // The acceptance driver checks the set medians of the
            // set-up time, not its spread.
            "wide (spread not gated)"
        } else {
            "NOISY"
        };
        let _ = writeln!(
            out,
            "  {:<22} {:>6} {:>12.5} {:>12.5} {:>12.5} {:>12.5} {:>8.4} {:>7.3}  {verdict}",
            d.name,
            d.unit,
            median(&values),
            q1,
            q3,
            range,
            sp,
            d.bound
        );
    }
    out
}

/// How much worse `later` is than `earlier`, as a share of `earlier`,
/// in the metric's own direction (negative = better).
pub fn worsening(d: &Declared, earlier: f64, later: f64) -> f64 {
    if earlier == 0.0 {
        return 0.0;
    }
    let change = (later - earlier) / earlier.abs();
    if d.higher_is_better {
        -change
    } else {
        change
    }
}

/// The agreement table between consecutive sets of the same code.
pub fn render_agreement(declared: &[Declared], sets: &[Vec<ParsedResult>]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "agreement of set medians (same code; a cell disagreeing by more than half its bound is redesigned)"
    );
    let _ = writeln!(
        out,
        "  {:<22} {:>12} {:>12} {:>10} {:>10}  verdict",
        "metric", "median A", "median B", "|B-A|/A", "bound/2"
    );
    for d in declared {
        let med = |set: &Vec<ParsedResult>| median(&values_of(set, &d.name));
        for pair in sets.windows(2) {
            let (a, b) = (med(&pair[0]), med(&pair[1]));
            let gap = worsening(d, a, b).abs();
            let verdict = if gap <= d.bound / 2.0 {
                "agree"
            } else {
                "DISAGREE"
            };
            let _ = writeln!(
                out,
                "  {:<22} {:>12.5} {:>12.5} {:>10.4} {:>10.4}  {verdict}",
                d.name,
                a,
                b,
                gap,
                d.bound / 2.0
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips() {
        let mut m = Metrics::default();
        m.put("latency_ms_p50", 6.25, "ms");
        m.put("broken", f64::NAN, "x");
        let parsed = parse_result_line(&result_line(true, 10, 0, &m)).unwrap();
        assert!(parsed.correct);
        assert_eq!((parsed.attempted, parsed.failed), (10, 0));
        assert_eq!(
            parsed.metrics[0],
            ("latency_ms_p50".into(), 6.25, "ms".into())
        );
        assert_eq!(parsed.metrics[1].1, 0.0);
        assert_eq!(m.not_finite(), ["broken".to_string()]);
    }

    #[test]
    fn worsening_follows_direction() {
        let mut d = Declared {
            name: "x".into(),
            unit: "ms".into(),
            higher_is_better: false,
            bound: 0.1,
        };
        assert!((worsening(&d, 10.0, 11.0) - 0.1).abs() < 1e-12);
        d.higher_is_better = true;
        assert!((worsening(&d, 10.0, 11.0) + 0.1).abs() < 1e-12);
        assert_eq!(spread(&[1.0, 1.0, 1.0]), 0.0);
    }
}
