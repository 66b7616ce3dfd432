//! The diagnostic type every lint rule produces.

use provbench_rdf::{Iri, Span};
use provbench_workflow::execution::fnv1a;
use std::fmt;

/// How serious a diagnostic is. Ordered: `Info < Warning < Error`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Noteworthy but expected; never fails a lint run.
    Info,
    /// A profile smell a curator should look at.
    Warning,
    /// A violation that makes the trace inconsistent or unusable.
    Error,
}

impl Severity {
    /// Lowercase name as printed by the text renderer.
    pub fn name(&self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }

    /// The SARIF `level` for this severity.
    pub fn sarif_level(&self) -> &'static str {
        match self {
            Severity::Info => "note",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Static metadata for one lint rule: the stable `PB0xxx` identifier, the
/// human-oriented slug, default severity and a one-line summary.
#[derive(Debug, PartialEq, Eq)]
pub struct RuleInfo {
    /// Stable identifier, e.g. `PB0201`. Never reused or renumbered.
    pub id: &'static str,
    /// Readable slug, e.g. `taverna/process-run-parent` (the names the
    /// pre-registry linter used).
    pub slug: &'static str,
    /// Default severity of diagnostics from this rule.
    pub severity: Severity,
    /// One-line description of what the rule checks.
    pub summary: &'static str,
}

/// A secondary location a multi-span diagnostic points at — a member
/// edge of a cycle, or (for corpus rules) another document involved in
/// the finding. Rendered as SARIF `relatedLocations`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RelatedLocation {
    /// What this location contributes to the finding.
    pub message: String,
    /// Source file, when known (may differ from the diagnostic's file).
    pub file: Option<String>,
    /// Source region, when the parser recorded spans.
    pub span: Option<Span>,
}

/// One finding, tied to a rule and (when known) a source location.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// The rule that produced this diagnostic.
    pub rule: &'static RuleInfo,
    /// Severity (defaults to the rule's, may be escalated by `--deny`).
    pub severity: Severity,
    /// Human-readable detail.
    pub message: String,
    /// Source file the finding is about, when linting files.
    pub file: Option<String>,
    /// Source region, when the parser recorded spans.
    pub span: Option<Span>,
    /// The offending node, when the rule points at one.
    pub node: Option<Iri>,
    /// Secondary locations (cycle members, other involved documents).
    /// Not part of the fingerprint: the primary finding identifies the
    /// baseline entry.
    pub related: Vec<RelatedLocation>,
}

impl Diagnostic {
    /// A diagnostic with the rule's default severity and no location.
    pub fn new(rule: &'static RuleInfo, message: impl Into<String>) -> Self {
        Diagnostic {
            rule,
            severity: rule.severity,
            message: message.into(),
            file: None,
            span: None,
            node: None,
            related: Vec::new(),
        }
    }

    /// Attach the offending node.
    pub fn with_node(mut self, node: Iri) -> Self {
        self.node = Some(node);
        self
    }

    /// Attach a source span (no-op when `None` — rules pass through
    /// whatever the span table had).
    pub fn with_span(mut self, span: Option<Span>) -> Self {
        self.span = span;
        self
    }

    /// Attach the source file path.
    pub fn with_file(mut self, file: impl Into<String>) -> Self {
        self.file = Some(file.into());
        self
    }

    /// Attach secondary locations (replacing any already present).
    pub fn with_related(mut self, related: Vec<RelatedLocation>) -> Self {
        self.related = related;
        self
    }

    /// A stable fingerprint for baseline suppression: rule id, file and
    /// offending node/message — deliberately *not* the line number, so a
    /// baseline survives unrelated edits that shift lines. The file path
    /// is separator-normalized (`\` → `/`, leading `./` stripped) so a
    /// baseline written on one OS or from one invocation directory keeps
    /// matching on another.
    pub fn fingerprint(&self) -> String {
        let file = self.file.as_deref().unwrap_or_default().replace('\\', "/");
        let file = file.strip_prefix("./").unwrap_or(&file);
        let subject = match &self.node {
            Some(n) => n.as_str(),
            None => &self.message,
        };
        let key = format!("{}|{file}|{subject}", self.rule.id);
        format!("{}-{:016x}", self.rule.id, fnv1a(key.as_bytes()))
    }

    /// Sort key giving deterministic output order: file, position, rule
    /// id, then message.
    pub fn sort_key(&self) -> (String, usize, usize, &'static str, String) {
        let (line, column) = self.span.map(|s| (s.line, s.column)).unwrap_or((0, 0));
        (
            self.file.clone().unwrap_or_default(),
            line,
            column,
            self.rule.id,
            self.message.clone(),
        )
    }
}

/// `file:line:col: severity: message [PBxxxx]`, dropping the location
/// parts that are unknown. This is also the text renderer's line format.
impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(file) = &self.file {
            write!(f, "{file}:")?;
        }
        if let Some(span) = &self.span {
            write!(f, "{}:{}:", span.line, span.column)?;
        }
        if self.file.is_some() || self.span.is_some() {
            write!(f, " ")?;
        }
        write!(f, "{}: {} [{}]", self.severity, self.message, self.rule.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    static TEST_RULE: RuleInfo = RuleInfo {
        id: "PB9999",
        slug: "test/rule",
        severity: Severity::Warning,
        summary: "a rule for tests",
    };

    #[test]
    fn severity_orders() {
        assert!(Severity::Info < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
    }

    #[test]
    fn display_with_and_without_location() {
        let d = Diagnostic::new(&TEST_RULE, "something odd");
        assert_eq!(d.to_string(), "warning: something odd [PB9999]");
        let d = d.with_file("a/b.ttl").with_span(Some(Span::point(4, 2)));
        assert_eq!(
            d.to_string(),
            "a/b.ttl:4:2: warning: something odd [PB9999]"
        );
    }

    #[test]
    fn fingerprint_is_stable_across_line_moves() {
        let a = Diagnostic::new(&TEST_RULE, "m")
            .with_file("f.ttl")
            .with_span(Some(Span::point(1, 1)));
        let b = Diagnostic::new(&TEST_RULE, "m")
            .with_file("f.ttl")
            .with_span(Some(Span::point(99, 7)));
        assert_eq!(a.fingerprint(), b.fingerprint());
        let c = Diagnostic::new(&TEST_RULE, "m").with_file("other.ttl");
        assert_ne!(a.fingerprint(), c.fingerprint());
        assert!(a.fingerprint().starts_with("PB9999-"));
    }

    #[test]
    fn fingerprint_normalizes_path_separators_and_cwd_prefix() {
        let unix = Diagnostic::new(&TEST_RULE, "m").with_file("examples/a/b.ttl");
        let windows = Diagnostic::new(&TEST_RULE, "m").with_file("examples\\a\\b.ttl");
        let dotted = Diagnostic::new(&TEST_RULE, "m").with_file("./examples/a/b.ttl");
        assert_eq!(unix.fingerprint(), windows.fingerprint());
        assert_eq!(unix.fingerprint(), dotted.fingerprint());
    }

    #[test]
    fn related_locations_do_not_change_the_fingerprint() {
        let plain = Diagnostic::new(&TEST_RULE, "m").with_file("f.ttl");
        let related = plain.clone().with_related(vec![RelatedLocation {
            message: "also here".into(),
            file: Some("g.ttl".into()),
            span: Some(Span::point(3, 1)),
        }]);
        assert_eq!(plain.fingerprint(), related.fingerprint());
    }
}
