//! The workspace source linter, plus a front end for the Liang–Shen
//! construction verifier.
//!
//! One source linter, two tiers over the same hand-rolled lexer, and one
//! finding model:
//!
//! * [`source`] — tier 1: a token-level scanner over the workspace's own
//!   `.rs` files enforcing per-function rules **L3–L5** (`// SAFETY:`
//!   before every `unsafe`, justified atomic `Ordering`s, docs on public
//!   items);
//! * [`graph`] + [`dataflow`] + [`rules_v2`] — tier 2: an item/symbol
//!   indexer that resolves `fn` definitions and call sites into a
//!   workspace call graph, then runs dataflow passes enforcing
//!   call-graph-closed rules **L6–L9** (panic primitives in or reachable
//!   from deny-tier library code, allocations in or reachable from
//!   `// wdm-lint: hot-path` functions, lossy `as` narrowing outside
//!   `// wdm-lint: cast-checked` sites, and seqlock/shard-claim protocol
//!   conformance in files marked `// wdm-lint: protocol: seqlock`).
//!
//! [`model`] reports the construction checks **M1–M8** of
//! [`wdm_core::verify`] (Theorem 1 node/edge-count formulas, bipartite
//! conversion gadgets with zero-cost diagonals, traversal and terminal
//! shape, mask cross-index integrity and involution, the Restriction
//! 1/2 gates, and the goal-directed search's potential rows) over `.wdm`
//! instances. The verifier itself lives in
//! `wdm-core`, beside the construction it checks, so runtime crates run
//! it in debug builds without depending on this crate.
//!
//! All report through [`Finding`] and render as human text, JSON, or
//! SARIF 2.1.0. The `wdm-lint` binary drives them; `--deny all` turns
//! any deny-severity finding into a non-zero exit, which CI gates on. A
//! committed [`baseline`] file grandfathers known findings so CI fails
//! only on new ones.
//!
//! Suppression is explicit and per-site: a comment
//! `// wdm-lint: allow(panic_reach) — reason` (or the
//! `wdm_lint::panic_reach` spelling) silences that rule on its own line,
//! the line it ends on, and the next line. There is no blanket off
//! switch.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Grandfathered-findings baseline (the CI ratchet).
pub mod baseline;
/// Call-graph reachability passes shared by the tier-2 rules.
pub mod dataflow;
/// Finding types, rule metadata, and the text/JSON/SARIF renderers.
pub mod findings;
/// The workspace item/symbol index and call-site resolution.
pub mod graph;
/// The comment/string-aware token lexer both tiers scan with.
pub mod lexer;
/// The construction checks (M1–M8) of `wdm_core::verify` as findings.
pub mod model;
/// Tier-2 rules L6–L9 over the workspace call graph.
pub mod rules_v2;
/// Tier-1 token rules L3–L5 and workspace file discovery.
pub mod source;

pub use baseline::Baseline;
pub use findings::{render_json, render_sarif, render_text, Finding, Rule, Severity};
pub use graph::ItemIndex;
pub use rules_v2::scan_graph_rules;
pub use source::{analyze_file, collect_rs_files, scan_workspace};
