//! Per-rule fixture tests for the source linter.
//!
//! Each fixture under `tests/fixtures/` intentionally violates exactly
//! one rule; the assertions pin the rule, severity, and the exact
//! `line:col` span of every finding. The `l1_`/`l2_` fixtures hold
//! direct panic and allocation sinks, which the call-graph rules L6 and
//! L7 report where they stand. The `fixtures/`
//! directory is excluded from workspace scans by `collect_rs_files`, so
//! these files never fail the real `--deny all` gate.

use wdm_lint::{analyze_file, scan_graph_rules, Finding, ItemIndex, Rule, Severity};

/// (rule, severity, line, col) of each finding, in emission order.
fn spans(findings: &[Finding]) -> Vec<(Rule, Severity, usize, usize)> {
    findings
        .iter()
        .map(|f| (f.rule, f.severity, f.line, f.col))
        .collect()
}

/// Runs the call-graph rules L6–L9 over one file.
fn scan_graph(rel: &str, src: &str) -> Vec<Finding> {
    scan_graph_rules(&ItemIndex::build(&[(rel.to_string(), src.to_string())]))
}

#[test]
fn l1_fixture_flags_unwrap_and_panic_with_exact_spans() {
    let src = include_str!("fixtures/l1_unwrap.rs");
    let findings = scan_graph("crates/wdm-core/src/l1_fixture.rs", src);
    assert_eq!(
        spans(&findings),
        vec![
            (Rule::PanicReach, Severity::Deny, 5, 16),
            (Rule::PanicReach, Severity::Deny, 10, 5),
        ],
        "{findings:?}"
    );
    assert!(findings[0].message.contains(".unwrap()"));
    assert!(findings[1].message.contains("panic!"));
}

#[test]
fn l1_is_warning_in_cli_and_silent_outside_scoped_crates() {
    let src = include_str!("fixtures/l1_unwrap.rs");
    let cli = scan_graph("crates/wdm-cli/src/l1_fixture.rs", src);
    assert_eq!(
        spans(&cli),
        vec![
            (Rule::PanicReach, Severity::Warning, 5, 16),
            (Rule::PanicReach, Severity::Warning, 10, 5),
        ]
    );
    // wdm-obs is not in L6 scope at all, and neither is test code.
    let obs = scan_graph("crates/wdm-obs/src/l1_fixture.rs", src);
    assert!(obs.is_empty(), "{obs:?}");
    let tests = scan_graph("crates/wdm-core/tests/l1_fixture.rs", src);
    assert!(tests.is_empty(), "{tests:?}");
}

#[test]
fn l2_fixture_flags_allocations_in_hot_path_with_exact_spans() {
    let src = include_str!("fixtures/l2_hot_alloc.rs");
    let findings = scan_graph("crates/wdm-core/src/l2_fixture.rs", src);
    assert_eq!(
        spans(&findings),
        vec![
            (Rule::AllocReach, Severity::Deny, 6, 18),
            (Rule::AllocReach, Severity::Deny, 7, 17),
        ],
        "{findings:?}"
    );
    assert!(findings[0].message.contains("to_vec"));
    assert!(findings[0].message.contains("hot_sum"));
    assert!(findings[1].message.contains("Box::new"));
}

#[test]
fn l3_fixture_flags_unsafe_without_safety_comment() {
    let src = include_str!("fixtures/l3_unsafe.rs");
    let findings = analyze_file("crates/wdm-core/src/l3_fixture.rs", src);
    assert_eq!(
        spans(&findings),
        vec![(Rule::UnsafeNeedsSafety, Severity::Deny, 5, 5)],
        "{findings:?}"
    );
    // The same code with a SAFETY comment passes.
    let fixed = src.replace(
        "    unsafe",
        "    // SAFETY: fixture pointer is valid by contract.\n    unsafe",
    );
    assert!(analyze_file("crates/wdm-core/src/l3_fixture.rs", &fixed).is_empty());
}

#[test]
fn l4_fixture_flags_bare_ordering_with_exact_span() {
    let src = include_str!("fixtures/l4_ordering.rs");
    let findings = analyze_file("crates/wdm-obs/src/l4_fixture.rs", src);
    assert_eq!(
        spans(&findings),
        vec![(Rule::OrderingJustification, Severity::Deny, 6, 18)],
        "{findings:?}"
    );
    assert!(findings[0].message.contains("Ordering::Relaxed"));
    // An audited module is exempt wholesale.
    let audited = format!("// wdm-lint: audited-orderings\n{src}");
    assert!(analyze_file("crates/wdm-obs/src/l4_fixture.rs", &audited).is_empty());
}

#[test]
fn l5_fixture_flags_undocumented_public_items_with_exact_spans() {
    let src = include_str!("fixtures/l5_missing_docs.rs");
    let findings = analyze_file("crates/wdm-core/src/l5_fixture.rs", src);
    assert_eq!(
        spans(&findings),
        vec![
            (Rule::MissingDocs, Severity::Deny, 3, 1),
            (Rule::MissingDocs, Severity::Deny, 7, 1),
            (Rule::MissingDocs, Severity::Deny, 8, 5),
        ],
        "{findings:?}"
    );
    assert!(findings[0].message.contains("undocumented"));
    assert!(findings[1].message.contains("Bare"));
    assert!(findings[2].message.contains("field"));
}

#[test]
fn allow_comment_suppresses_the_named_rule() {
    let src = "/// Docs.\n\
               pub fn f(v: &[u32]) -> u32 {\n\
               \x20   // wdm-lint: allow(panic_reach)\n\
               \x20   *v.first().unwrap()\n\
               }\n";
    assert!(scan_graph("crates/wdm-core/src/allowed.rs", src).is_empty());
    // The suppression names only L6; a different rule still fires.
    let findings = scan_graph(
        "crates/wdm-core/src/allowed.rs",
        &src.replace("panic_reach", "missing_docs"),
    );
    assert_eq!(
        spans(&findings),
        vec![(Rule::PanicReach, Severity::Deny, 4, 16)]
    );
}
