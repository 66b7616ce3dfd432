//! The incremental corpus lint engine.
//!
//! A corpus lint run has two halves with very different costs:
//!
//! * **per-file analysis** — parse with span recording, run every rule
//!   pack, extract the [`AnalysisSummary`]; linear in file size and by
//!   far the expensive part, and
//! * **the corpus fixpoint** — [`check_corpus`] over the summaries;
//!   cheap (it never looks at a graph, only at summaries).
//!
//! This module caches the first half in `corpus.lint.snapshot` (format
//! owned by `provbench_core::snapshot`), keyed per file by the FNV-1a-64
//! of the file's bytes and globally by a hash of the rule catalog. On a
//! warm run, unchanged files replay their cached diagnostics and
//! summaries byte-for-byte; only changed files re-run rule bodies. The
//! corpus fixpoint is *always* re-solved from the (cached or fresh)
//! summaries, so its diagnostics are never persisted — which is what
//! makes cold and warm output identical by construction.
//!
//! [`lint_corpus_incremental`] is the one lint driver: `provbench lint`
//! in every mode and the `GET /lint` report of `provbench serve` run it.

use crate::diagnostic::{Diagnostic, RelatedLocation, RuleInfo, Severity};
use crate::rules::corpus::check_corpus;
use crate::rules::Registry;
use crate::runner::{
    check_graph, collect_rdf_files, corpus_label, parse_spanned, severity_counts, FileReport,
};
use crate::summary::{AnalysisSummary, EventKind, SummaryEdge};
use provbench_core::snapshot::{
    decode_lint, encode_lint, DiagnosticRecord, EventEdgeRecord, LintCache, LintEntry,
    RelatedRecord, SummaryRecord, LINT_SNAPSHOT_FILE,
};
use provbench_rdf::{Iri, Span};
use provbench_workflow::execution::fnv1a;
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Histogram of per-file lint (read+parse+rules) times, observed for
/// each analyzed file.
const LINT_FILE_SECONDS: &str = "provbench_lint_file_seconds";
/// Counter of findings in a run's final reports
/// (`severity="error"|"warning"|"info"`).
const LINT_FINDINGS_TOTAL: &str = "provbench_lint_findings_total";

/// How a corpus lint run should behave.
#[derive(Clone, Debug)]
pub struct CorpusLintOptions {
    /// Worker threads for per-file analysis.
    pub jobs: usize,
    /// Run the corpus-wide `PB021x` rules over the summaries.
    pub corpus_rules: bool,
    /// Load and save the lint snapshot.
    pub incremental: bool,
    /// Where the lint snapshot lives; defaults to
    /// `<root>/corpus.lint.snapshot` (or next to a single-file root).
    pub cache_path: Option<PathBuf>,
}

impl Default for CorpusLintOptions {
    fn default() -> Self {
        CorpusLintOptions {
            jobs: crate::runner::default_jobs(),
            corpus_rules: true,
            incremental: false,
            cache_path: None,
        }
    }
}

/// What a corpus lint run produced, plus its cache accounting.
#[derive(Debug)]
pub struct CorpusLintOutcome {
    /// Per-file reports in deterministic order, corpus diagnostics
    /// merged in.
    pub reports: Vec<FileReport>,
    /// Files whose rule bodies actually ran this time.
    pub analyzed: usize,
    /// Files served entirely from the lint snapshot.
    pub reused: usize,
    /// Where the cache was (or would have been) stored.
    pub cache_path: PathBuf,
    /// Whether a fresh snapshot was written this run.
    pub cache_written: bool,
}

/// Hash of the rule catalog plus the crate version. Baked into the lint
/// snapshot; any change to the rule set (new rule, changed severity or
/// summary, new linter release) invalidates every cached entry, since
/// rule bodies may have changed behaviour without changing inputs.
pub fn catalog_fingerprint(registry: &Registry) -> u64 {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(env!("CARGO_PKG_VERSION").as_bytes());
    for info in registry.rule_infos() {
        bytes.push(0);
        bytes.extend_from_slice(info.id.as_bytes());
        bytes.push(0);
        bytes.extend_from_slice(info.slug.as_bytes());
        bytes.push(severity_code(info.severity));
        bytes.extend_from_slice(info.summary.as_bytes());
    }
    fnv1a(&bytes)
}

fn severity_code(s: Severity) -> u8 {
    match s {
        Severity::Info => 0,
        Severity::Warning => 1,
        Severity::Error => 2,
    }
}

fn severity_from_code(code: u8) -> Option<Severity> {
    match code {
        0 => Some(Severity::Info),
        1 => Some(Severity::Warning),
        2 => Some(Severity::Error),
        _ => None,
    }
}

fn span_to_wire(span: &Span) -> (u64, u64, u64, u64) {
    (
        span.line as u64,
        span.column as u64,
        span.end_line as u64,
        span.end_column as u64,
    )
}

fn span_from_wire((line, column, end_line, end_column): (u64, u64, u64, u64)) -> Span {
    Span {
        line: line as usize,
        column: column as usize,
        end_line: end_line as usize,
        end_column: end_column as usize,
    }
}

fn diagnostic_to_record(d: &Diagnostic) -> DiagnosticRecord {
    DiagnosticRecord {
        rule_id: d.rule.id.to_owned(),
        severity: severity_code(d.severity),
        message: d.message.clone(),
        file: d.file.clone(),
        span: d.span.as_ref().map(span_to_wire),
        node: d.node.as_ref().map(|n| n.as_str().to_owned()),
        related: d
            .related
            .iter()
            .map(|r| RelatedRecord {
                message: r.message.clone(),
                file: r.file.clone(),
                span: r.span.as_ref().map(span_to_wire),
            })
            .collect(),
    }
}

/// Rebuild a [`Diagnostic`] from its wire form, consuming the record
/// (warm replay moves the cached strings instead of cloning them).
/// `None` when the record names a rule the current catalog does not
/// have or carries a bad severity code — the caller treats the whole
/// entry as a cache miss.
fn diagnostic_from_record(
    record: DiagnosticRecord,
    rules: &BTreeMap<&str, &'static RuleInfo>,
) -> Option<Diagnostic> {
    let rule = rules.get(record.rule_id.as_str())?;
    let mut d = Diagnostic::new(rule, record.message);
    d.severity = severity_from_code(record.severity)?;
    d.file = record.file;
    d.span = record.span.map(span_from_wire);
    d.node = record.node.map(Iri::new_unchecked);
    d.related = record
        .related
        .into_iter()
        .map(|r| RelatedLocation {
            message: r.message,
            file: r.file,
            span: r.span.map(span_from_wire),
        })
        .collect();
    Some(d)
}

fn summary_to_record(s: &AnalysisSummary) -> SummaryRecord {
    SummaryRecord {
        declared: s.declared.iter().cloned().collect(),
        used_targets: s.used_targets.iter().cloned().collect(),
        derived_targets: s.derived_targets.iter().cloned().collect(),
        references: s.references.iter().cloned().collect(),
        derivations: s.derivations.clone(),
        events: s
            .events
            .iter()
            .map(|e| EventEdgeRecord {
                from_kind: e.from.0.code(),
                from: e.from.1.clone(),
                to_kind: e.to.0.code(),
                to: e.to.1.clone(),
                strict: e.strict,
                derivation: e.derivation,
            })
            .collect(),
        time_min: s.time_min.clone(),
        time_max: s.time_max.clone(),
    }
}

/// Inverse of [`summary_to_record`], consuming the record; `None` on an
/// unknown event kind code (the caller treats the entry as a cache
/// miss).
fn summary_from_record(record: SummaryRecord) -> Option<AnalysisSummary> {
    let mut events = Vec::with_capacity(record.events.len());
    for e in record.events {
        events.push(SummaryEdge {
            from: (EventKind::from_code(e.from_kind)?, e.from),
            to: (EventKind::from_code(e.to_kind)?, e.to),
            strict: e.strict,
            derivation: e.derivation,
        });
    }
    Some(AnalysisSummary {
        declared: record.declared.into_iter().collect(),
        used_targets: record.used_targets.into_iter().collect(),
        derived_targets: record.derived_targets.into_iter().collect(),
        references: record.references.into_iter().collect(),
        derivations: record.derivations,
        events,
        time_min: record.time_min,
        time_max: record.time_max,
    })
}

/// The result of analyzing (or replaying) one file.
struct FileAnalysis {
    label: String,
    fingerprint: u64,
    summary: AnalysisSummary,
    diagnostics: Vec<Diagnostic>,
    /// True when the rule bodies actually ran (a cache miss).
    fresh: bool,
}

/// Parse one document and run the per-file rules *and* the summary
/// extraction in a single pass over the same graph.
fn analyze_content(label: &str, content: &str, registry: &Registry) -> FileAnalysis {
    let (summary, diagnostics) = match parse_spanned(label, content) {
        Err(d) => (AnalysisSummary::default(), vec![*d]),
        Ok((graph, spans)) => (
            AnalysisSummary::of_graph(&graph),
            check_graph(label, &graph, &spans, registry),
        ),
    };
    FileAnalysis {
        label: label.to_owned(),
        fingerprint: fnv1a(content.as_bytes()),
        summary,
        diagnostics,
        fresh: true,
    }
}

/// Load the lint snapshot at `path`, if present, valid and produced by
/// the same rule catalog. Any failure degrades to a cold run.
fn load_cache(path: &Path, catalog: u64) -> BTreeMap<String, LintEntry> {
    let Ok(bytes) = std::fs::read(path) else {
        return BTreeMap::new();
    };
    match decode_lint(&bytes) {
        Ok(cache) if cache.catalog == catalog => cache
            .entries
            .into_iter()
            .map(|e| (e.path.clone(), e))
            .collect(),
        _ => BTreeMap::new(),
    }
}

/// Atomically replace the lint snapshot: write a temp file next to it,
/// then rename over the target so readers never see a torn file.
fn save_cache(path: &Path, cache: &LintCache) -> io::Result<()> {
    let tmp = path.with_extension("snapshot.tmp");
    std::fs::write(&tmp, encode_lint(cache))?;
    std::fs::rename(&tmp, path)
}

/// Lint every file [`collect_rdf_files`] finds under `root`, each under
/// its [`corpus_label`], with optional corpus rules and optional
/// snapshot-backed incrementality. This is the one lint driver.
///
/// Guarantees:
///
/// * output is deterministic and identical between cold and warm runs
///   over the same tree (asserted by tests — cached diagnostics replay
///   byte-for-byte, corpus diagnostics are re-derived from summaries),
/// * after editing one file, only that file's rule bodies re-run
///   ([`CorpusLintOutcome::analyzed`] counts them).
pub fn lint_corpus_incremental(
    root: &Path,
    registry: &Registry,
    opts: &CorpusLintOptions,
) -> io::Result<CorpusLintOutcome> {
    let _span = provbench_obs::span("lint.corpus");
    let files = collect_rdf_files(root)?;
    let cache_path = opts.cache_path.clone().unwrap_or_else(|| {
        if root.is_dir() {
            root.join(LINT_SNAPSHOT_FILE)
        } else {
            root.with_file_name(LINT_SNAPSHOT_FILE)
        }
    });
    let catalog = catalog_fingerprint(registry);
    let cached_len;
    let cached: Mutex<BTreeMap<String, LintEntry>> = {
        let map = if opts.incremental {
            load_cache(&cache_path, catalog)
        } else {
            BTreeMap::new()
        };
        cached_len = map.len();
        Mutex::new(map)
    };
    let rule_map: BTreeMap<&str, &'static RuleInfo> = registry
        .rule_infos()
        .into_iter()
        .map(|info| (info.id, info))
        .collect();

    // Per-file pass: replay a cache hit, analyze a miss. Parallel over
    // worker threads; results re-ordered by input index afterwards. A
    // hit *moves* its entry out of the cache — warm replay never clones
    // the cached strings.
    let obs = provbench_obs::global();
    let file_seconds = obs.histogram(
        LINT_FILE_SECONDS,
        "Per-file lint (read+parse+rules) time",
        provbench_obs::LATENCY_BUCKETS,
    );
    let labels: Vec<String> = files.iter().map(|p| corpus_label(root, p)).collect();
    let process = |i: usize| -> FileAnalysis {
        let (path, label) = (&files[i], &labels[i]);
        let start = Instant::now();
        let analysis = match std::fs::read_to_string(path) {
            Ok(content) => {
                let fingerprint = fnv1a(content.as_bytes());
                let hit = cached
                    .lock()
                    .expect("no poisoned workers")
                    .remove(label)
                    .filter(|e| e.fingerprint == fingerprint);
                if let Some(replayed) = hit.and_then(|e| replay_entry(e, &rule_map)) {
                    return replayed;
                }
                analyze_content(label, &content, registry)
            }
            Err(e) => FileAnalysis {
                label: label.clone(),
                fingerprint: 0,
                summary: AnalysisSummary::default(),
                diagnostics: vec![Diagnostic::new(
                    &crate::rules::PARSE_ERROR,
                    format!("cannot read file: {e}"),
                )
                .with_file(label)],
                fresh: true,
            },
        };
        file_seconds.observe_duration(start.elapsed());
        analysis
    };
    let jobs = opts.jobs.max(1).min(files.len().max(1));
    let analyses: Vec<FileAnalysis> = if jobs <= 1 {
        // Single worker: run inline — spawning a scoped thread costs
        // more than replaying a small warm corpus.
        (0..files.len()).map(process).collect()
    } else {
        let next = AtomicUsize::new(0);
        let results: Mutex<Vec<(usize, FileAnalysis)>> =
            Mutex::new(Vec::with_capacity(files.len()));
        std::thread::scope(|scope| {
            for _ in 0..jobs {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= files.len() {
                        break;
                    }
                    let analysis = process(i);
                    results
                        .lock()
                        .expect("no poisoned workers")
                        .push((i, analysis));
                });
            }
        });
        let mut indexed = results.into_inner().expect("workers joined");
        indexed.sort_by_key(|(i, _)| *i);
        indexed.into_iter().map(|(_, a)| a).collect()
    };

    let analyzed = analyses.iter().filter(|a| a.fresh).count();
    let reused = analyses.len() - analyzed;
    for (mode, count) in [("analyzed", analyzed), ("replayed", reused)] {
        if count > 0 {
            obs.counter_with(
                "provbench_lint_files_total",
                "Files linted, by mode (cold analysis vs snapshot replay)",
                &[("mode", mode)],
            )
            .add(count as u64);
        }
    }

    // Persist the per-file half before corpus diagnostics are merged in
    // — corpus findings depend on the whole tree and are re-solved from
    // summaries every run, so caching them would be both redundant and a
    // staleness hazard.
    let mut cache_written = false;
    if opts.incremental {
        // Hits were moved out of `cached`, so leftovers are exactly the
        // entries whose files vanished; together with the count check
        // this detects any change to the path set.
        let leftovers = !cached.lock().expect("no poisoned workers").is_empty();
        let stale_paths = cached_len != analyses.len() || leftovers;
        if analyzed > 0 || stale_paths {
            let cache = LintCache {
                catalog,
                entries: analyses
                    .iter()
                    .map(|a| LintEntry {
                        path: a.label.clone(),
                        fingerprint: a.fingerprint,
                        summary: summary_to_record(&a.summary),
                        diagnostics: a.diagnostics.iter().map(diagnostic_to_record).collect(),
                    })
                    .collect(),
            };
            save_cache(&cache_path, &cache)?;
            cache_written = true;
        }
    }

    // Consume the analyses: diagnostics and summaries move into the
    // reports / corpus-rule entries instead of being cloned.
    let mut reports: Vec<FileReport> = Vec::with_capacity(analyses.len());
    let mut entries: Vec<(String, AnalysisSummary)> = Vec::new();
    for a in analyses {
        if opts.corpus_rules {
            entries.push((a.label.clone(), a.summary));
        }
        reports.push(FileReport {
            path: a.label,
            diagnostics: a.diagnostics,
        });
    }
    if opts.corpus_rules {
        apply_corpus_rules(&mut reports, &entries);
    }
    let (errors, warnings, infos) = severity_counts(&reports);
    for (severity, count) in [("error", errors), ("warning", warnings), ("info", infos)] {
        if count > 0 {
            obs.counter_with(
                LINT_FINDINGS_TOTAL,
                "Lint diagnostics emitted, by severity",
                &[("severity", severity)],
            )
            .add(count as u64);
        }
    }

    Ok(CorpusLintOutcome {
        reports,
        analyzed,
        reused,
        cache_path,
        cache_written,
    })
}

/// Solve the corpus fixpoint over `entries` and merge the resulting
/// `PB021x` diagnostics into per-file reports (matched by label; a
/// diagnostic whose label has no report gets a fresh one).
fn apply_corpus_rules(reports: &mut Vec<FileReport>, entries: &[(String, AnalysisSummary)]) {
    for d in check_corpus(entries) {
        let target = d.file.as_deref().unwrap_or_default().to_owned();
        match reports.iter_mut().find(|r| r.path == target) {
            Some(report) => report.diagnostics.push(d),
            None => reports.push(FileReport {
                path: target,
                diagnostics: vec![d],
            }),
        }
    }
    for report in reports.iter_mut() {
        report.diagnostics.sort_by_key(Diagnostic::sort_key);
    }
}

/// Turn a cache entry back into a [`FileAnalysis`]. `None` when any
/// record fails to convert (unknown rule id, bad code) — the file is
/// then re-analyzed as if the entry were absent.
fn replay_entry(
    entry: LintEntry,
    rules: &BTreeMap<&str, &'static RuleInfo>,
) -> Option<FileAnalysis> {
    let summary = summary_from_record(entry.summary)?;
    let mut diagnostics = Vec::with_capacity(entry.diagnostics.len());
    for record in entry.diagnostics {
        diagnostics.push(diagnostic_from_record(record, rules)?);
    }
    Some(FileAnalysis {
        label: entry.path,
        fingerprint: entry.fingerprint,
        summary,
        diagnostics,
        fresh: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write(dir: &Path, name: &str, content: &str) -> PathBuf {
        let path = dir.join(name);
        std::fs::write(&path, content).expect("write fixture");
        path
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("provbench-incr-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create tempdir");
        dir
    }

    const GOOD: &str = r#"
        @prefix prov: <http://www.w3.org/ns/prov#> .
        @prefix ex: <http://example.org/> .
        ex:out a prov:Entity ; prov:wasGeneratedBy ex:run ; prov:wasDerivedFrom ex:in .
        ex:in a prov:Entity .
        ex:run a prov:Activity ; prov:used ex:in .
    "#;

    #[test]
    fn warm_run_reuses_everything_and_matches_cold_output() {
        let dir = tempdir("warm");
        write(&dir, "a.ttl", GOOD);
        write(&dir, "b.ttl", &GOOD.replace("example.org", "example.net"));
        let registry = Registry::with_corpus_rules();
        let opts = CorpusLintOptions {
            jobs: 2,
            corpus_rules: true,
            incremental: true,
            cache_path: None,
        };
        let cold = lint_corpus_incremental(&dir, &registry, &opts).expect("cold run");
        assert_eq!(cold.analyzed, 2);
        assert_eq!(cold.reused, 0);
        assert!(cold.cache_written);
        assert!(cold.cache_path.exists());
        let warm = lint_corpus_incremental(&dir, &registry, &opts).expect("warm run");
        assert_eq!(warm.analyzed, 0, "warm run must not re-run rule bodies");
        assert_eq!(warm.reused, 2);
        assert!(!warm.cache_written, "unchanged corpus must not rewrite");
        assert_eq!(
            crate::render::render_jsonl(&cold.reports),
            crate::render::render_jsonl(&warm.reports),
            "cold and warm output must be byte-identical"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn editing_one_file_reanalyzes_only_that_file() {
        let dir = tempdir("edit");
        let a = write(&dir, "a.ttl", GOOD);
        write(&dir, "b.ttl", &GOOD.replace("example.org", "example.net"));
        let registry = Registry::with_corpus_rules();
        let opts = CorpusLintOptions {
            jobs: 1,
            corpus_rules: true,
            incremental: true,
            cache_path: None,
        };
        lint_corpus_incremental(&dir, &registry, &opts).expect("cold run");
        let mut content = std::fs::read_to_string(&a).expect("read a.ttl");
        content.push_str("\n# a trailing comment\n");
        std::fs::write(&a, content).expect("rewrite a.ttl");
        let warm = lint_corpus_incremental(&dir, &registry, &opts).expect("warm run");
        assert_eq!(warm.analyzed, 1, "only the edited file re-runs");
        assert_eq!(warm.reused, 1);
        assert!(warm.cache_written);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn catalog_change_invalidates_the_cache() {
        let dir = tempdir("catalog");
        write(&dir, "a.ttl", GOOD);
        let corpus_registry = Registry::with_corpus_rules();
        let default_registry = Registry::with_default_rules();
        let opts = CorpusLintOptions {
            jobs: 1,
            corpus_rules: false,
            incremental: true,
            cache_path: None,
        };
        lint_corpus_incremental(&dir, &corpus_registry, &opts).expect("cold run");
        let other = lint_corpus_incremental(&dir, &default_registry, &opts).expect("other run");
        assert_eq!(
            other.analyzed, 1,
            "a different rule catalog must miss the cache"
        );
        assert_ne!(
            catalog_fingerprint(&corpus_registry),
            catalog_fingerprint(&default_registry)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_cache_degrades_to_a_cold_run() {
        let dir = tempdir("corrupt");
        write(&dir, "a.ttl", GOOD);
        let registry = Registry::with_corpus_rules();
        let opts = CorpusLintOptions {
            jobs: 1,
            corpus_rules: true,
            incremental: true,
            cache_path: None,
        };
        let cold = lint_corpus_incremental(&dir, &registry, &opts).expect("cold run");
        std::fs::write(&cold.cache_path, b"PBLINTgarbage").expect("corrupt cache");
        let rerun = lint_corpus_incremental(&dir, &registry, &opts).expect("re-run");
        assert_eq!(rerun.analyzed, 1);
        assert_eq!(
            crate::render::render_jsonl(&cold.reports),
            crate::render::render_jsonl(&rerun.reports)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn parse_error_files_are_cached_too() {
        let dir = tempdir("parse-error");
        write(&dir, "bad.ttl", "this is not turtle @@@");
        let registry = Registry::with_corpus_rules();
        let opts = CorpusLintOptions {
            jobs: 1,
            corpus_rules: true,
            incremental: true,
            cache_path: None,
        };
        let cold = lint_corpus_incremental(&dir, &registry, &opts).expect("cold run");
        assert!(cold.reports[0]
            .diagnostics
            .iter()
            .any(|d| d.rule.id == "PB0001"));
        let warm = lint_corpus_incremental(&dir, &registry, &opts).expect("warm run");
        assert_eq!(warm.analyzed, 0);
        assert_eq!(
            crate::render::render_jsonl(&cold.reports),
            crate::render::render_jsonl(&warm.reports)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
