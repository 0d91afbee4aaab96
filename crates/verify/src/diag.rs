//! Diagnostic types shared by every rtoss-verify pass.
//!
//! A pass reports problems as [`Diagnostic`]s — a stable `RV0xx` code
//! (see DESIGN.md §9 for the registry), the location of the offending
//! artifact, and a human-readable message. Passes never panic on
//! malformed input; they collect everything they find into a [`Report`]
//! so one run surfaces *all* violations, not just the first.

use std::fmt;

/// One finding from a verification pass. Every finding is an
/// invariant violation: an artifact with one must not be executed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable registry code, e.g. `"RV002"`.
    pub code: &'static str,
    /// Where the violation lives — a node name, layer index, file:line,
    /// or other artifact coordinate.
    pub location: String,
    /// What is wrong, in one sentence.
    pub message: String,
}

impl Diagnostic {
    /// Builds a diagnostic.
    pub fn error(
        code: &'static str,
        location: impl Into<String>,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic {
            code,
            location: location.into(),
            message: message.into(),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "error[{}] {}: {}",
            self.code, self.location, self.message
        )
    }
}

/// The collected output of one or more verification passes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Report {
    /// All findings, in pass order.
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// An empty (clean) report.
    pub fn new() -> Self {
        Report::default()
    }

    /// Appends a finding.
    pub fn push(&mut self, d: Diagnostic) {
        self.diagnostics.push(d);
    }

    /// Appends every finding from another pass.
    pub fn extend(&mut self, ds: impl IntoIterator<Item = Diagnostic>) {
        self.diagnostics.extend(ds);
    }

    /// Whether any finding is present.
    pub fn has_errors(&self) -> bool {
        !self.diagnostics.is_empty()
    }

    /// Number of findings.
    pub fn error_count(&self) -> usize {
        self.diagnostics.len()
    }

    /// Whether a finding with the given registry code is present.
    pub fn has_code(&self, code: &str) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }

    /// Renders the report as a machine-readable JSON document with a
    /// stable schema: `{"errors", "warnings", "findings": [{"severity",
    /// "code", "location", "message"}, …]}`. Findings keep pass order;
    /// every finding's severity is `"error"`, so `warnings` is always 0.
    /// CI consumes this via `verify --json`.
    pub fn to_json(&self) -> String {
        use serde_json::Value;
        let findings = Value::Arr(
            self.diagnostics
                .iter()
                .map(|d| {
                    Value::Obj(vec![
                        ("severity".to_string(), Value::Str("error".to_string())),
                        ("code".to_string(), Value::Str(d.code.to_string())),
                        ("location".to_string(), Value::Str(d.location.clone())),
                        ("message".to_string(), Value::Str(d.message.clone())),
                    ])
                })
                .collect(),
        );
        let doc = Value::Obj(vec![
            ("errors".to_string(), Value::UInt(self.error_count() as u64)),
            ("warnings".to_string(), Value::UInt(0)),
            ("findings".to_string(), findings),
        ]);
        serde_json::to_string_pretty(&doc).expect("report JSON serializes")
    }

    /// Renders the report to a string, one diagnostic per line, with a
    /// trailing summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        out.push_str(&format!("verify: {} error(s)\n", self.error_count()));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_tracks_errors_and_codes() {
        let mut r = Report::new();
        assert!(!r.has_errors());
        r.push(Diagnostic::error("RV001", "layer 3", "bad entry count"));
        assert!(r.has_errors());
        assert_eq!(r.error_count(), 1);
        assert!(r.has_code("RV001"));
        assert!(!r.has_code("RV002"));
        let text = r.render();
        assert!(text.contains("error[RV001] layer 3: bad entry count"));
        assert!(text.ends_with("verify: 1 error(s)\n"));
    }

    #[test]
    fn json_schema_is_stable_and_round_trips() {
        let mut r = Report::new();
        r.push(Diagnostic::error("RV999", "here", "odd"));
        r.push(Diagnostic::error("RV001", "layer 3", "bad \"entry\" count"));
        let doc: serde_json::Value =
            serde_json::from_str(&r.to_json()).expect("to_json emits valid JSON");
        // The stand-in parser reads small integers back as `Int`.
        assert_eq!(doc.field("errors").unwrap(), &serde_json::Value::Int(2));
        assert_eq!(doc.field("warnings").unwrap(), &serde_json::Value::Int(0));
        let findings = doc.field("findings").expect("findings present");
        let first = findings.element(0).expect("two findings");
        let second = findings.element(1).expect("two findings");
        assert!(findings.element(2).is_err());
        assert_eq!(first.field("severity").unwrap().as_str().unwrap(), "error");
        assert_eq!(second.field("code").unwrap().as_str().unwrap(), "RV001");
        assert_eq!(
            second.field("location").unwrap().as_str().unwrap(),
            "layer 3"
        );
        assert_eq!(
            second.field("message").unwrap().as_str().unwrap(),
            "bad \"entry\" count"
        );
    }
}
