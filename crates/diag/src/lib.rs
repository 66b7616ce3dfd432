//! `provbench-diag` — the corpus static-analysis engine ("provlint").
//!
//! This crate unifies every check the workbench can run over a corpus
//! file — W3C PROV-CONSTRAINTS validation, Taverna/Wings profile lints,
//! and vocabulary coverage — behind one [`Rule`] registry that produces
//! uniform [`Diagnostic`]s with stable `PB0xxx` rule IDs and, where the
//! parser recorded them, line/column [`Span`](provbench_rdf::Span)s.
//!
//! The pipeline is:
//!
//! 1. [`lint_corpus_incremental`] discovers `.ttl`/`.trig`/`.nt` files
//!    ([`runner`]), parses each with span recording on, and runs the
//!    [`Registry`] over a [`FileContext`] — in parallel, with
//!    deterministic output order. Every lint entry point runs it.
//! 2. [`baseline`] subtracts a committed set of accepted-finding
//!    fingerprints so CI fails only on *new* findings.
//! 3. [`render`] serializes the surviving reports as human text, JSON
//!    Lines, or SARIF 2.1.0.
//!
//! On top of the per-file pipeline sits the corpus layer: [`summary`]
//! distills each parsed graph into an [`AnalysisSummary`], the
//! [`dataflow`] fixpoint framework propagates facts across the
//! inter-graph reference edges, [`rules::corpus`] turns the solved
//! facts into `PB021x` diagnostics, and [`incremental`] caches the
//! per-file summaries and diagnostics in a lint snapshot so warm runs
//! re-solve only the cheap corpus fixpoint.

pub mod baseline;
pub mod catalog;
pub mod dataflow;
pub mod diagnostic;
pub mod incremental;
pub mod json;
pub mod render;
pub mod rules;
pub mod runner;
pub mod summary;

pub use baseline::{apply_baseline, format_baseline, parse_baseline};
pub use catalog::{all_rule_docs, rule_doc, RuleDoc};
pub use diagnostic::{Diagnostic, RelatedLocation, RuleInfo, Severity};
pub use incremental::{
    catalog_fingerprint, lint_corpus_incremental, lint_corpus_incremental_fs, CorpusLintOptions,
    CorpusLintOutcome,
};
pub use render::{render_jsonl, render_lint_json, render_sarif, render_text};
pub use rules::{corpus::check_corpus, FileContext, Registry, Rule};
pub use runner::{
    collect_rdf_files, corpus_label, default_jobs, detect_system, lint_content, severity_counts,
    FileReport,
};
pub use summary::AnalysisSummary;
