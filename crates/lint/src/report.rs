//! Finding and report types shared by all passes.

use std::fmt::{self, Write as _};

use sal_des::json::Json;

/// How serious a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational: an intentional structure worth surfacing (an
    /// exempted oscillator loop, a positive timing margin).
    Info,
    /// Suspicious but not necessarily wrong (a driven-never-read
    /// signal, an unconstrained capture).
    Warning,
    /// A structural defect: the netlist violates an invariant the
    /// async links rely on.
    Error,
}

impl Severity {
    /// Lowercase label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One finding of one pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Severity level.
    pub severity: Severity,
    /// The pass that produced the finding (`"connectivity"`,
    /// `"loops"`, `"timing"`, `"handshake"`).
    pub pass: &'static str,
    /// Hierarchical path of the offending signal, cell or label.
    pub path: String,
    /// Human-readable description.
    pub message: String,
}

/// The merged result of the lint passes, ordered deterministically
/// (severity descending, then pass, path, message).
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    /// All findings.
    pub findings: Vec<Finding>,
}

impl LintReport {
    /// An empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a finding.
    pub fn push(&mut self, severity: Severity, pass: &'static str, path: &str, message: String) {
        self.findings.push(Finding { severity, pass, path: path.to_string(), message });
    }

    /// Sorts findings into the canonical deterministic order.
    pub fn sort(&mut self) {
        self.findings.sort_by(|a, b| {
            b.severity
                .cmp(&a.severity)
                .then_with(|| a.pass.cmp(b.pass))
                .then_with(|| a.path.cmp(&b.path))
                .then_with(|| a.message.cmp(&b.message))
        });
    }

    /// Number of findings at a given severity.
    pub fn count(&self, severity: Severity) -> usize {
        self.findings.iter().filter(|f| f.severity == severity).count()
    }

    /// The error-severity findings.
    pub fn errors(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| f.severity == Severity::Error)
    }

    /// Whether the report contains any error-severity finding.
    pub fn has_errors(&self) -> bool {
        self.findings.iter().any(|f| f.severity == Severity::Error)
    }

    /// A compact one-line-per-finding text rendering.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            writeln!(out, "[{}] {}: {} — {}", f.severity, f.pass, f.path, f.message)
                .expect("writing to a String cannot fail");
        }
        out
    }

    /// Deterministic JSON rendering: call [`LintReport::sort`] first
    /// (done by `run_all`).
    pub fn to_json(&self) -> String {
        let mut j = Json::new();
        j.obj_block();
        j.key("errors").num(self.count(Severity::Error));
        j.key("warnings").num(self.count(Severity::Warning));
        j.key("infos").num(self.count(Severity::Info));
        j.key("findings").arr_block();
        for f in &self.findings {
            j.obj();
            j.key("severity").str(f.severity.label());
            j.key("pass").str(f.pass);
            j.key("path").str(&f.path);
            j.key("message").str(&f.message);
            j.end();
        }
        j.end();
        j.end();
        j.finish()
    }
}
