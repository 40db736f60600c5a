//! The shared finding model: what both analysis engines report.

use std::fmt;
use std::path::Path;
use wdm_core::verify::{Check, Violation};

/// Which rule produced a finding.
///
/// `L*` rules come from the source linter ([`crate::source`] and
/// [`crate::rules_v2`]); `M*` rules are the construction checks of
/// [`wdm_core::verify`], reported through [`crate::model`]. The slug (see
/// [`Rule::slug`]) is what suppression comments name:
/// `// wdm-lint: allow(panic_reach) — reason`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Rule {
    /// L3 — every `unsafe` token needs an immediately preceding
    /// `// SAFETY:` comment.
    UnsafeNeedsSafety,
    /// L4 — every `Ordering::` use needs a justification comment or must
    /// live in a `// wdm-lint: audited-orderings` module.
    OrderingJustification,
    /// L5 — public items need doc comments.
    MissingDocs,
    /// L6 — library code in deny-tier crates must not contain or *reach*
    /// a panic primitive (`unwrap`/`expect`/`panic!`/bare
    /// `unreachable!()`/unguarded arithmetic indexing) through any call
    /// chain in the workspace call graph.
    PanicReach,
    /// L7 — `// wdm-lint: hot-path` functions must not contain or reach
    /// an allocating call through any call chain.
    AllocReach,
    /// L8 — lossy `as` casts (integer narrowing, sign loss, float→int)
    /// outside `// wdm-lint: cast-checked: <reason>` sites.
    LossyCast,
    /// L9 — seqlock/shard-claim protocol conformance in
    /// `// wdm-lint: protocol: seqlock` files: claims ascend, snapshots
    /// validate before publishes, publishes follow claims, seqlock reads
    /// revalidate.
    ProtocolOrder,
    /// M1–M8 — a construction check of [`wdm_core::verify`] failed.
    Model(Check),
}

impl Rule {
    /// Every rule, in report order.
    pub const ALL: [Rule; 15] = [
        Rule::UnsafeNeedsSafety,
        Rule::OrderingJustification,
        Rule::MissingDocs,
        Rule::PanicReach,
        Rule::AllocReach,
        Rule::LossyCast,
        Rule::ProtocolOrder,
        Rule::Model(Check::Theorem1NodeCount),
        Rule::Model(Check::Theorem1EdgeCount),
        Rule::Model(Check::GadgetShape),
        Rule::Model(Check::TraversalShape),
        Rule::Model(Check::TerminalShape),
        Rule::Model(Check::MaskIndex),
        Rule::Model(Check::RestrictionGate),
        Rule::Model(Check::PotentialConsistency),
    ];

    /// Stable machine name, used in JSON output and suppression comments.
    pub fn slug(self) -> &'static str {
        match self {
            Rule::UnsafeNeedsSafety => "unsafe_needs_safety",
            Rule::OrderingJustification => "ordering_justification",
            Rule::MissingDocs => "missing_docs",
            Rule::PanicReach => "panic_reach",
            Rule::AllocReach => "alloc_reach",
            Rule::LossyCast => "lossy_cast",
            Rule::ProtocolOrder => "protocol_order",
            Rule::Model(check) => check.slug(),
        }
    }

    /// Short display code (`L3`..`L9`, `M1`..`M8`).
    pub fn code(self) -> &'static str {
        match self {
            Rule::UnsafeNeedsSafety => "L3",
            Rule::OrderingJustification => "L4",
            Rule::MissingDocs => "L5",
            Rule::PanicReach => "L6",
            Rule::AllocReach => "L7",
            Rule::LossyCast => "L8",
            Rule::ProtocolOrder => "L9",
            Rule::Model(check) => check.code(),
        }
    }

    /// Looks a rule up by its [`slug`](Self::slug).
    pub fn from_slug(slug: &str) -> Option<Rule> {
        Rule::ALL.into_iter().find(|r| r.slug() == slug)
    }

    /// One-line rule description, used in the SARIF rules table.
    pub fn description(self) -> &'static str {
        match self {
            Rule::UnsafeNeedsSafety => "every `unsafe` needs a preceding // SAFETY: comment",
            Rule::OrderingJustification => {
                "atomic Ordering uses need justification or an audited module"
            }
            Rule::MissingDocs => "public items need doc comments",
            Rule::PanicReach => {
                "deny-tier library code must not reach a panic primitive through any call chain"
            }
            Rule::AllocReach => {
                "hot-path functions must not reach an allocating call through any call chain"
            }
            Rule::LossyCast => "lossy `as` casts need try_from or a cast-checked justification",
            Rule::ProtocolOrder => "seqlock/shard-claim protocol order in protocol-marked files",
            Rule::Model(check) => check.description(),
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({})", self.code(), self.slug())
    }
}

/// How severe a finding is for the exit code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Reported but never fails the run (report-only scopes, e.g. L6
    /// extended over `wdm-cli`).
    Warning,
    /// Fails the run under `--deny`.
    Deny,
}

impl Severity {
    /// Stable machine name.
    pub fn slug(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Deny => "deny",
        }
    }
}

/// One reported violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The rule that fired.
    pub rule: Rule,
    /// Whether the finding fails a `--deny` run.
    pub severity: Severity,
    /// Source file (source engine) or instance label (model engine).
    pub file: String,
    /// 1-based line (0 for model findings).
    pub line: usize,
    /// 1-based column (0 for model findings).
    pub col: usize,
    /// Human-readable description.
    pub message: String,
}

impl Finding {
    /// A deny-severity source finding at `file:line:col`.
    pub fn source(rule: Rule, file: &str, line: usize, col: usize, message: String) -> Self {
        Finding {
            rule,
            severity: Severity::Deny,
            file: file.to_string(),
            line,
            col,
            message,
        }
    }

    /// A deny-severity model finding: `violation` found in `instance`.
    pub fn model(violation: Violation, instance: &str) -> Self {
        Finding {
            rule: Rule::Model(violation.check),
            severity: Severity::Deny,
            file: instance.to_string(),
            line: 0,
            col: 0,
            message: violation.message,
        }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(
                f,
                "{}: [{}] {}: {}",
                self.severity.slug(),
                self.rule.code(),
                self.file,
                self.message
            )
        } else {
            write!(
                f,
                "{}: [{}] {}:{}:{}: {}",
                self.severity.slug(),
                self.rule.code(),
                self.file,
                self.line,
                self.col,
                self.message
            )
        }
    }
}

/// Escapes `s` for a JSON string literal (same rules as
/// `wdm_obs::json`).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => {
                let mut buf = String::new();
                let _ = fmt::Write::write_fmt(&mut buf, format_args!("\\u{:04x}", u32::from(c)));
                out.push_str(&buf);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders findings as a machine-readable JSON document:
/// `{"findings": [...], "deny_count": N, "warning_count": N}`.
pub fn render_json(findings: &[Finding]) -> String {
    let mut out = String::from("{\n  \"findings\": [\n");
    for (i, f) in findings.iter().enumerate() {
        let sep = if i + 1 == findings.len() { "" } else { "," };
        let _ = fmt::Write::write_fmt(
            &mut out,
            format_args!(
                "    {{\"rule\": \"{}\", \"code\": \"{}\", \"severity\": \"{}\", \
                 \"file\": \"{}\", \"line\": {}, \"col\": {}, \"message\": \"{}\"}}{}\n",
                f.rule.slug(),
                f.rule.code(),
                f.severity.slug(),
                json_escape(&f.file),
                f.line,
                f.col,
                json_escape(&f.message),
                sep
            ),
        );
    }
    let deny = findings
        .iter()
        .filter(|f| f.severity == Severity::Deny)
        .count();
    let warn = findings.len() - deny;
    let _ = fmt::Write::write_fmt(
        &mut out,
        format_args!("  ],\n  \"deny_count\": {deny},\n  \"warning_count\": {warn}\n}}\n"),
    );
    out
}

/// Renders findings as a SARIF 2.1.0 document (one run, one driver),
/// suitable for CI upload. Model findings (no source span) anchor at
/// line 1 of their instance label.
pub fn render_sarif(findings: &[Finding]) -> String {
    let mut rules_used: Vec<Rule> = Vec::new();
    for f in findings {
        if !rules_used.contains(&f.rule) {
            rules_used.push(f.rule);
        }
    }
    let mut out = String::from(
        "{\n  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n  \
         \"version\": \"2.1.0\",\n  \"runs\": [\n    {\n      \"tool\": {\n        \
         \"driver\": {\n          \"name\": \"wdm-lint\",\n          \"rules\": [\n",
    );
    for (i, rule) in rules_used.iter().enumerate() {
        let sep = if i + 1 == rules_used.len() { "" } else { "," };
        let _ = fmt::Write::write_fmt(
            &mut out,
            format_args!(
                "            {{\"id\": \"{}\", \"name\": \"{}\", \
                 \"shortDescription\": {{\"text\": \"{}\"}}}}{}\n",
                rule.code(),
                rule.slug(),
                json_escape(rule.description()),
                sep
            ),
        );
    }
    out.push_str("          ]\n        }\n      },\n      \"results\": [\n");
    for (i, f) in findings.iter().enumerate() {
        let sep = if i + 1 == findings.len() { "" } else { "," };
        let level = match f.severity {
            Severity::Warning => "warning",
            Severity::Deny => "error",
        };
        let _ = fmt::Write::write_fmt(
            &mut out,
            format_args!(
                "        {{\"ruleId\": \"{}\", \"level\": \"{}\", \
                 \"message\": {{\"text\": \"{}\"}}, \"locations\": [{{\
                 \"physicalLocation\": {{\"artifactLocation\": {{\"uri\": \"{}\"}}, \
                 \"region\": {{\"startLine\": {}, \"startColumn\": {}}}}}}}]}}{}\n",
                f.rule.code(),
                level,
                json_escape(&f.message),
                json_escape(&f.file),
                f.line.max(1),
                f.col.max(1),
                sep
            ),
        );
    }
    out.push_str("      ]\n    }\n  ]\n}\n");
    out
}

/// Renders findings as human-readable text, one per line, with a
/// trailing summary.
pub fn render_text(findings: &[Finding], root: &Path) -> String {
    let mut out = String::new();
    for f in findings {
        let _ = fmt::Write::write_fmt(&mut out, format_args!("{f}\n"));
    }
    let deny = findings
        .iter()
        .filter(|f| f.severity == Severity::Deny)
        .count();
    let warn = findings.len() - deny;
    let _ = fmt::Write::write_fmt(
        &mut out,
        format_args!(
            "wdm-lint: {deny} deny, {warn} warning finding(s) under {}\n",
            root.display()
        ),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn violation(check: Check) -> Violation {
        Violation {
            check,
            message: "bad".into(),
        }
    }

    #[test]
    fn slugs_round_trip() {
        for rule in Rule::ALL {
            assert_eq!(Rule::from_slug(rule.slug()), Some(rule));
        }
        assert_eq!(Rule::from_slug("nope"), None);
    }

    #[test]
    fn json_escapes_and_counts() {
        let findings = vec![
            Finding::source(Rule::PanicReach, "a \"b\".rs", 3, 7, "uses\nunwrap".into()),
            Finding {
                severity: Severity::Warning,
                ..Finding::model(violation(Check::MaskIndex), "inst")
            },
        ];
        let json = render_json(&findings);
        assert!(json.contains("\\\"b\\\""));
        assert!(json.contains("uses\\nunwrap"));
        assert!(json.contains("\"deny_count\": 1"));
        assert!(json.contains("\"warning_count\": 1"));
    }

    #[test]
    fn display_forms() {
        let f = Finding::source(Rule::PanicReach, "x.rs", 3, 7, "m".into());
        assert_eq!(f.to_string(), "deny: [L6] x.rs:3:7: m");
        let m = Finding::model(violation(Check::GadgetShape), "chain");
        assert_eq!(m.to_string(), "deny: [M3] chain: bad");
    }
}
