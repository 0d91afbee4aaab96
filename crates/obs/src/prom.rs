//! Prometheus text-format exposition (version 0.0.4) and a matching
//! parser for round-trip checks.
//!
//! This module is format-only: it knows nothing about the serving
//! metrics themselves. `rtoss-serve` converts its
//! `MetricsSnapshot` into [`PromMetric`]s and renders them here;
//! `rtoss-verify` parses the rendered text back and checks the bucket
//! counts against the snapshot (RV044).
//!
//! Histograms follow the Prometheus convention: cumulative
//! `<name>_bucket{le="..."}` samples (ending in `le="+Inf"`), plus
//! `<name>_sum` and `<name>_count`.

use std::borrow::Cow;
use std::fmt::Write as _;

/// A histogram in exposition form.
#[derive(Debug, Clone, PartialEq)]
pub struct PromHistogram {
    /// Per-bucket upper bounds, strictly increasing (the `+Inf` bucket
    /// is implicit and must not be listed here).
    pub upper_bounds: Vec<f64>,
    /// Per-bucket (non-cumulative) sample counts, same length as
    /// `upper_bounds`; samples above the last bound surface only in
    /// `count`.
    pub counts: Vec<u64>,
    /// Sum of all observed values.
    pub sum: f64,
    /// Total number of observations (≥ the bucket counts' sum; the
    /// excess lands in the implicit `+Inf` bucket).
    pub count: u64,
}

/// The value of one metric.
#[derive(Debug, Clone, PartialEq)]
pub enum PromValue {
    /// Monotonic counter.
    Counter(f64),
    /// Point-in-time gauge.
    Gauge(f64),
    /// Bucketed histogram.
    Histogram(PromHistogram),
}

/// One metric to expose.
#[derive(Debug, Clone, PartialEq)]
pub struct PromMetric {
    /// Metric name (`[a-zA-Z_:][a-zA-Z0-9_:]*`).
    pub name: String,
    /// HELP line content.
    pub help: String,
    /// Label key/value pairs applied to every sample of this metric.
    pub labels: Vec<(String, String)>,
    /// The value.
    pub value: PromValue,
}

impl PromMetric {
    /// A counter metric.
    pub fn counter(name: impl Into<String>, help: impl Into<String>, v: f64) -> Self {
        PromMetric {
            name: name.into(),
            help: help.into(),
            labels: Vec::new(),
            value: PromValue::Counter(v),
        }
    }

    /// A gauge metric.
    pub fn gauge(name: impl Into<String>, help: impl Into<String>, v: f64) -> Self {
        PromMetric {
            name: name.into(),
            help: help.into(),
            labels: Vec::new(),
            value: PromValue::Gauge(v),
        }
    }

    /// Adds a label pair (builder style).
    #[must_use]
    pub fn with_label(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.labels.push((key.into(), value.into()));
        self
    }
}

/// Coerces `s` into a valid Prometheus name
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`): invalid characters become `_`, a
/// leading digit gets a `_` prefix, and an empty input becomes `"_"`.
/// Valid names pass through without allocating. Metric names and
/// *label keys* go through this at render time — label keys often come
/// from dynamic, caller-controlled strings (tenant ids, replica
/// names), and a hostile key would otherwise break the whole
/// exposition for every scraper.
pub fn sanitize_name(s: &str) -> Cow<'_, str> {
    if valid_name(s) {
        return Cow::Borrowed(s);
    }
    let mut out = String::with_capacity(s.len() + 1);
    for (i, c) in s.chars().enumerate() {
        let ok = c.is_ascii_alphanumeric() || c == '_' || c == ':';
        if i == 0 && c.is_ascii_digit() {
            out.push('_');
        }
        out.push(if ok { c } else { '_' });
    }
    if out.is_empty() {
        out.push('_');
    }
    Cow::Owned(out)
}

fn fmt_value(v: f64) -> String {
    if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

fn push_label_set(out: &mut String, labels: &[(String, String)]) {
    if labels.is_empty() {
        return;
    }
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}=\"", sanitize_name(k));
        for c in v.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    out.push('}');
}

fn push_sample(out: &mut String, name: &str, labels: &[(String, String)], value: f64) {
    out.push_str(name);
    push_label_set(out, labels);
    let _ = writeln!(out, " {}", fmt_value(value));
}

/// Renders metrics in Prometheus text exposition format.
///
/// Every metric of one name is one family: it gets one HELP/TYPE
/// header (taken from its first occurrence) and all its samples are
/// written together, families in first-occurrence order. Callers may
/// therefore push metrics in whatever order their data comes in (e.g.
/// per tenant) and the exposition still keeps each family contiguous,
/// as the format requires (RV043).
pub fn render(metrics: &[PromMetric]) -> String {
    let names: Vec<Cow<'_, str>> = metrics.iter().map(|m| sanitize_name(&m.name)).collect();
    let mut out = String::new();
    for (first, name) in names.iter().enumerate() {
        if names[..first].contains(name) {
            continue;
        }
        let kind = match metrics[first].value {
            PromValue::Counter(_) => "counter",
            PromValue::Gauge(_) => "gauge",
            PromValue::Histogram(_) => "histogram",
        };
        let help = metrics[first].help.replace('\n', " ");
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} {kind}");
        for (m, _) in metrics[first..]
            .iter()
            .zip(&names[first..])
            .filter(|(_, n)| *n == name)
        {
            push_metric(&mut out, name, m);
        }
    }
    out
}

/// Writes the sample lines of one metric under the family `name`.
fn push_metric(out: &mut String, name: &str, m: &PromMetric) {
    match &m.value {
        PromValue::Counter(v) | PromValue::Gauge(v) => {
            push_sample(out, name, &m.labels, *v);
        }
        PromValue::Histogram(h) => {
            let bucket_name = format!("{name}_bucket");
            let mut cumulative = 0u64;
            for (ub, c) in h.upper_bounds.iter().zip(&h.counts) {
                cumulative += c;
                let mut labels = m.labels.clone();
                labels.push(("le".to_string(), fmt_value(*ub)));
                push_sample(out, &bucket_name, &labels, cumulative as f64);
            }
            let mut labels = m.labels.clone();
            labels.push(("le".to_string(), "+Inf".to_string()));
            push_sample(out, &bucket_name, &labels, h.count as f64);
            push_sample(out, &format!("{name}_sum"), &m.labels, h.sum);
            push_sample(out, &format!("{name}_count"), &m.labels, h.count as f64);
        }
    }
}

/// One parsed sample line.
#[derive(Debug, Clone, PartialEq)]
pub struct PromSample {
    /// Sample name (e.g. `rtoss_execute_seconds_bucket`).
    pub name: String,
    /// Label pairs in file order.
    pub labels: Vec<(String, String)>,
    /// Sample value.
    pub value: f64,
}

impl PromSample {
    /// The value of a label, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

fn valid_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn parse_labels(raw: &str, line_no: usize) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    let mut rest = raw;
    loop {
        rest = rest.trim_start_matches(',').trim_start();
        if rest.is_empty() {
            return Ok(labels);
        }
        let eq = rest
            .find('=')
            .ok_or_else(|| format!("line {line_no}: label without `=`"))?;
        let key = rest[..eq].trim().to_string();
        if !valid_name(&key) {
            return Err(format!("line {line_no}: invalid label name {key:?}"));
        }
        rest = rest[eq + 1..].trim_start();
        if !rest.starts_with('"') {
            return Err(format!("line {line_no}: label value must be quoted"));
        }
        let mut value = String::new();
        let mut chars = rest[1..].char_indices();
        let mut consumed = None;
        while let Some((i, c)) = chars.next() {
            match c {
                '"' => {
                    consumed = Some(i + 2); // opening quote + content + closing
                    break;
                }
                '\\' => match chars.next() {
                    Some((_, 'n')) => value.push('\n'),
                    Some((_, '\\')) => value.push('\\'),
                    Some((_, '"')) => value.push('"'),
                    other => {
                        return Err(format!("line {line_no}: bad escape {other:?}"));
                    }
                },
                c => value.push(c),
            }
        }
        let consumed =
            consumed.ok_or_else(|| format!("line {line_no}: unterminated label value"))?;
        labels.push((key, value));
        rest = &rest[consumed..];
    }
}

/// Parses Prometheus text exposition into samples (comments and blank
/// lines skipped).
///
/// # Errors
///
/// Returns a message naming the first malformed line.
pub fn parse(text: &str) -> Result<Vec<PromSample>, String> {
    let mut samples = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name_part, rest) = match line.find('{') {
            Some(open) => {
                let close = line
                    .rfind('}')
                    .ok_or_else(|| format!("line {line_no}: unterminated label set"))?;
                if close < open {
                    return Err(format!("line {line_no}: mismatched braces"));
                }
                (&line[..open], {
                    let labels = parse_labels(&line[open + 1..close], line_no)?;
                    (labels, line[close + 1..].trim())
                })
            }
            None => {
                let sp = line
                    .find(char::is_whitespace)
                    .ok_or_else(|| format!("line {line_no}: sample without value"))?;
                (&line[..sp], (Vec::new(), line[sp..].trim()))
            }
        };
        let (labels, value_part) = rest;
        let name = name_part.trim().to_string();
        if !valid_name(&name) {
            return Err(format!("line {line_no}: invalid metric name {name:?}"));
        }
        // A timestamp may follow the value; take the first token.
        let value_tok = value_part
            .split_whitespace()
            .next()
            .ok_or_else(|| format!("line {line_no}: sample without value"))?;
        let value = match value_tok {
            "+Inf" => f64::INFINITY,
            "-Inf" => f64::NEG_INFINITY,
            "NaN" => f64::NAN,
            tok => tok
                .parse::<f64>()
                .map_err(|_| format!("line {line_no}: bad value {tok:?}"))?,
        };
        samples.push(PromSample {
            name,
            labels,
            value,
        });
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn histogram() -> PromMetric {
        PromMetric {
            name: "rtoss_execute_seconds".into(),
            help: "Execute phase latency".into(),
            labels: vec![("variant".into(), "2EP".into())],
            value: PromValue::Histogram(PromHistogram {
                upper_bounds: vec![0.001, 0.002, 0.004],
                counts: vec![3, 2, 1],
                sum: 0.0123,
                count: 7, // one observation above the last bound
            }),
        }
    }

    #[test]
    fn renders_and_parses_counters_and_gauges() {
        let text = render(&[
            PromMetric::counter("rtoss_completed_total", "Requests completed", 42.0),
            PromMetric::gauge("rtoss_mean_batch_size", "Mean batch", 2.5)
                .with_label("variant", "dense"),
        ]);
        assert!(text.contains("# TYPE rtoss_completed_total counter"));
        assert!(text.contains("rtoss_completed_total 42"));
        let samples = parse(&text).expect("round trip");
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[1].label("variant"), Some("dense"));
        assert_eq!(samples[1].value, 2.5);
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_end_at_inf() {
        let text = render(&[histogram()]);
        let samples = parse(&text).expect("parses");
        let buckets: Vec<&PromSample> = samples
            .iter()
            .filter(|s| s.name == "rtoss_execute_seconds_bucket")
            .collect();
        assert_eq!(buckets.len(), 4);
        let values: Vec<f64> = buckets.iter().map(|b| b.value).collect();
        assert_eq!(values, vec![3.0, 5.0, 6.0, 7.0]);
        assert_eq!(buckets[3].label("le"), Some("+Inf"));
        let count = samples
            .iter()
            .find(|s| s.name == "rtoss_execute_seconds_count")
            .expect("count sample");
        assert_eq!(count.value, 7.0);
        let sum = samples
            .iter()
            .find(|s| s.name == "rtoss_execute_seconds_sum")
            .expect("sum sample");
        assert!((sum.value - 0.0123).abs() < 1e-12);
    }

    #[test]
    fn interleaved_pushes_render_one_contiguous_group_per_family() {
        // Pushed per tenant, as a caller iterating its tenants would.
        let mut metrics = Vec::new();
        for tenant in ["a", "b"] {
            metrics.push(PromMetric::gauge("burn", "Burn rate", 1.0).with_label("tenant", tenant));
            metrics.push(PromMetric::gauge("firing", "Firing", 0.0).with_label("tenant", tenant));
        }
        let text = render(&metrics);
        let names: Vec<String> = parse(&text)
            .expect("parses")
            .into_iter()
            .map(|s| s.name)
            .collect();
        assert_eq!(names, ["burn", "burn", "firing", "firing"]);
        assert_eq!(text.matches("# TYPE burn gauge").count(), 1);
        assert!(text.find("# TYPE burn").unwrap() < text.find("# TYPE firing").unwrap());
    }

    #[test]
    fn label_values_escape_and_unescape() {
        let text =
            render(&[PromMetric::gauge("g", "a gauge", 1.0).with_label("weird", "a\"b\\c\nd")]);
        let samples = parse(&text).expect("parses");
        assert_eq!(samples[0].label("weird"), Some("a\"b\\c\nd"));
    }

    #[test]
    fn sanitize_name_coerces_and_passes_valid_through() {
        assert!(matches!(sanitize_name("rtoss_ok:name"), Cow::Borrowed(_)));
        assert_eq!(sanitize_name("tenant-a.b c"), "tenant_a_b_c");
        assert_eq!(sanitize_name("9lives"), "_9lives");
        assert_eq!(sanitize_name(""), "_");
        assert_eq!(sanitize_name("bulk\"x\"\ny"), "bulk_x__y");
        assert!(valid_name(&sanitize_name("läbel-kéy")));
    }

    #[test]
    fn hostile_tenant_names_round_trip_as_labels() {
        // A tenant id chosen to break both the label key and the value:
        // quotes, backslashes, newlines, unicode, leading digit.
        let hostile = "9bulk\"x\\y\nz-ü";
        let text = render(&[
            PromMetric::counter("rtoss_fleet_admitted_total", "Admitted", 3.0)
                .with_label("tenant", hostile),
            PromMetric::gauge("bad metric\nname", "help", 1.0).with_label(hostile, "v"),
        ]);
        // Every non-comment line must parse back cleanly.
        let samples = parse(&text).expect("hostile names must not corrupt exposition");
        assert_eq!(samples.len(), 2);
        // Label *values* survive verbatim through escaping...
        assert_eq!(samples[0].label("tenant"), Some(hostile));
        // ...while metric names and label *keys* are coerced to the
        // legal charset.
        assert_eq!(samples[1].name, "bad_metric_name");
        assert_eq!(samples[1].labels[0].0, "_9bulk_x_y_z__");
        assert_eq!(samples[1].labels[0].1, "v");
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        assert!(parse("9bad_name 1").is_err());
        assert!(parse("name{le=\"unterminated} 1").is_err());
        assert!(parse("name_without_value").is_err());
        assert!(parse("name not_a_number").is_err());
    }
}
