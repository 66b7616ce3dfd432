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
//! This module caches the first half in `corpus.lint.snapshot`, keyed
//! per file by the source manifest of `provbench_core::manifest` and
//! globally by a hash of the rule catalog. On a warm run, a file whose stat matches its record is
//! not even read: it replays its cached diagnostics and summary
//! byte-for-byte. A file whose stat moved is read and hashed, and only a
//! changed hash re-runs rule bodies. The corpus fixpoint is *always*
//! re-solved from the (cached or fresh) summaries, so its diagnostics
//! are never persisted — which is what makes cold and warm output
//! identical by construction.
//!
//! [`lint_corpus_incremental`] is the one lint driver: `provbench lint`
//! in every mode and the `GET /lint` report of `provbench serve` run it.

use crate::diagnostic::{Diagnostic, RelatedLocation, RuleInfo, Severity};
use crate::rules::corpus::check_corpus;
use crate::rules::Registry;
use crate::runner::{
    check_graph, corpus_label, parse_spanned, rdf_sources, severity_counts, FileReport,
};
use crate::summary::{AnalysisSummary, EventKind, SummaryEdge};
use provbench_core::manifest::{self, Fresh, Manifest, SourceRecord};
use provbench_core::snapshot::{self, LINT_MAGIC, LINT_SNAPSHOT_FILE, LINT_VERSION};
use provbench_core::{StoreFs, REAL_FS};
use provbench_rdf::codec::{write_bytes, write_string, write_varint, Reader};
use provbench_rdf::{Iri, Span};
use provbench_workflow::execution::fnv1a;
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
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

// The cache file: sealed with `LINT_MAGIC` and `LINT_VERSION`, its
// body is the catalog fingerprint, the manifest of the files it holds
// (keyed by label), then one length-prefixed entry per record — summary
// then diagnostics — so that a worker decodes only the entry it
// replays.

fn write_opt(out: &mut Vec<u8>, value: Option<&str>) {
    match value {
        Some(s) => {
            out.push(1);
            write_string(out, s);
        }
        None => out.push(0),
    }
}

fn write_span(out: &mut Vec<u8>, span: Option<&Span>) {
    match span {
        Some(s) => {
            out.push(1);
            for v in [s.line, s.column, s.end_line, s.end_column] {
                write_varint(out, v as u64);
            }
        }
        None => out.push(0),
    }
}

/// Append one file's summary and diagnostics.
fn write_entry(out: &mut Vec<u8>, a: &FileAnalysis) {
    let s = &a.summary;
    for set in [
        &s.declared,
        &s.used_targets,
        &s.derived_targets,
        &s.references,
    ] {
        write_varint(out, set.len() as u64);
        set.iter().for_each(|iri| write_string(out, iri));
    }
    write_varint(out, s.derivations.len() as u64);
    for (derived, source) in &s.derivations {
        write_string(out, derived);
        write_string(out, source);
    }
    write_varint(out, s.events.len() as u64);
    for e in &s.events {
        for (kind, iri) in [&e.from, &e.to] {
            out.push(kind.code());
            write_string(out, iri);
        }
        out.push(u8::from(e.strict) | (u8::from(e.derivation) << 1));
    }
    write_opt(out, s.time_min.as_deref());
    write_opt(out, s.time_max.as_deref());
    write_varint(out, a.diagnostics.len() as u64);
    for d in &a.diagnostics {
        write_string(out, d.rule.id);
        out.push(severity_code(d.severity));
        write_string(out, &d.message);
        write_opt(out, d.file.as_deref());
        write_span(out, d.span.as_ref());
        write_opt(out, d.node.as_ref().map(Iri::as_str));
        write_varint(out, d.related.len() as u64);
        for r in &d.related {
            write_string(out, &r.message);
            write_opt(out, r.file.as_deref());
            write_span(out, r.span.as_ref());
        }
    }
}

/// A small tag written with `push`.
fn read_tag(r: &mut Reader<'_>) -> Option<u8> {
    u8::try_from(r.read_varint().ok()?).ok()
}

fn read_opt(r: &mut Reader<'_>) -> Option<Option<String>> {
    match read_tag(r)? {
        0 => Some(None),
        1 => r.read_string().ok().map(Some),
        _ => None,
    }
}

fn read_span(r: &mut Reader<'_>) -> Option<Option<Span>> {
    let tag = read_tag(r)?;
    let mut v = || Some(r.read_varint().ok()? as usize);
    match tag {
        0 => Some(None),
        1 => Some(Some(Span {
            line: v()?,
            column: v()?,
            end_line: v()?,
            end_column: v()?,
        })),
        _ => None,
    }
}

/// Replay one cached entry as the analysis of the file `record`
/// describes. `None` when the entry is malformed or names a rule the
/// catalog lacks — the file is then analyzed as if it had no entry.
fn replay_entry(
    bytes: &[u8],
    record: SourceRecord,
    rules: &BTreeMap<&str, &'static RuleInfo>,
) -> Option<FileAnalysis> {
    let r = &mut Reader::new(bytes);
    let mut strings = || -> Option<std::collections::BTreeSet<String>> {
        let n = r.read_varint().ok()?;
        (0..n).map(|_| r.read_string().ok()).collect()
    };
    let mut summary = AnalysisSummary {
        declared: strings()?,
        used_targets: strings()?,
        derived_targets: strings()?,
        references: strings()?,
        ..AnalysisSummary::default()
    };
    for _ in 0..r.read_varint().ok()? {
        summary
            .derivations
            .push((r.read_string().ok()?, r.read_string().ok()?));
    }
    for _ in 0..r.read_varint().ok()? {
        let mut end = || Some((EventKind::from_code(read_tag(r)?)?, r.read_string().ok()?));
        let (from, to) = (end()?, end()?);
        let flags = read_tag(r).filter(|f| *f <= 0b11)?;
        summary.events.push(SummaryEdge {
            from,
            to,
            strict: flags & 1 != 0,
            derivation: flags & 2 != 0,
        });
    }
    summary.time_min = read_opt(r)?;
    summary.time_max = read_opt(r)?;
    let mut diagnostics = Vec::new();
    for _ in 0..r.read_varint().ok()? {
        let rule = rules.get(r.read_string().ok()?.as_str())?;
        let severity = severity_from_code(read_tag(r)?)?;
        let mut d = Diagnostic::new(rule, r.read_string().ok()?);
        d.severity = severity;
        d.file = read_opt(r)?;
        d.span = read_span(r)?;
        d.node = read_opt(r)?.map(Iri::new_unchecked);
        for _ in 0..r.read_varint().ok()? {
            d.related.push(RelatedLocation {
                message: r.read_string().ok()?,
                file: read_opt(r)?,
                span: read_span(r)?,
            });
        }
        diagnostics.push(d);
    }
    r.is_empty().then(|| FileAnalysis {
        label: record.path.clone(),
        record: Some(record),
        summary,
        diagnostics,
        fresh: false,
    })
}

/// A cache of this catalog, split into its manifest and one entry per
/// record; `None` for anything else.
fn split_cache(bytes: &[u8], stamp_ns: u64, catalog: u64) -> Option<(Manifest, Vec<&[u8]>)> {
    let r = &mut Reader::new(snapshot::unseal(bytes, LINT_MAGIC, LINT_VERSION).ok()?);
    if r.read_varint().ok()? != catalog {
        return None;
    }
    let records = snapshot::read_manifest(r).ok()?;
    let entries = records
        .iter()
        .map(|_| r.read_bytes().ok())
        .collect::<Option<Vec<_>>>()?;
    r.is_empty()
        .then_some((Manifest { records, stamp_ns }, entries))
}

/// The result of analyzing (or replaying) one file.
struct FileAnalysis {
    label: String,
    /// The file's source record; `None` when it could not be read, so
    /// that it is read again next time.
    record: Option<SourceRecord>,
    summary: AnalysisSummary,
    diagnostics: Vec<Diagnostic>,
    /// True when the rule bodies actually ran (a cache miss).
    fresh: bool,
}

/// Parse one document and run the per-file rules *and* the summary
/// extraction in a single pass over the same graph. A file whose text
/// could not be had (`Err`) gets one `PB0001` finding; its `record` is
/// `None` when the read itself failed, so that it is read again next
/// time.
fn analyze(
    label: &str,
    record: Option<SourceRecord>,
    text: io::Result<String>,
    registry: &Registry,
) -> FileAnalysis {
    let (summary, diagnostics) = match text {
        Ok(content) => match parse_spanned(label, &content) {
            Err(d) => (AnalysisSummary::default(), vec![*d]),
            Ok((graph, spans)) => (
                AnalysisSummary::of_graph(&graph),
                check_graph(label, &graph, &spans, registry),
            ),
        },
        Err(e) => (
            AnalysisSummary::default(),
            vec![
                Diagnostic::new(&crate::rules::PARSE_ERROR, format!("cannot read file: {e}"))
                    .with_file(label),
            ],
        ),
    };
    FileAnalysis {
        label: label.to_owned(),
        record,
        summary,
        diagnostics,
        fresh: true,
    }
}

/// Lint every file [`collect_rdf_files`](crate::collect_rdf_files) finds
/// under `root`, each under its [`corpus_label`], with optional corpus
/// rules and optional snapshot-backed incrementality. This is the one
/// lint driver; [`lint_corpus_incremental_fs`] runs it through a given
/// filesystem.
///
/// Guarantees:
///
/// * output is deterministic and identical between cold and warm runs
///   over the same tree (asserted by tests — cached diagnostics replay
///   byte-for-byte, corpus diagnostics are re-derived from summaries),
/// * after editing one file, only that file's rule bodies re-run
///   ([`CorpusLintOutcome::analyzed`] counts them), and a file whose
///   stat says it is unchanged is not read.
pub fn lint_corpus_incremental(
    root: &Path,
    registry: &Registry,
    opts: &CorpusLintOptions,
) -> io::Result<CorpusLintOutcome> {
    lint_corpus_incremental_fs(root, registry, opts, &REAL_FS)
}

/// [`lint_corpus_incremental`] with every stat, read and cache write
/// going through `fs`.
pub fn lint_corpus_incremental_fs(
    root: &Path,
    registry: &Registry,
    opts: &CorpusLintOptions,
    fs: &dyn StoreFs,
) -> io::Result<CorpusLintOutcome> {
    let _span = provbench_obs::span("lint.corpus");
    let mut files = rdf_sources(root, fs)?;
    // The cache records each file under the label it is linted under.
    for file in &mut files {
        file.rel = corpus_label(root, &file.path);
    }
    let cache_path = opts.cache_path.clone().unwrap_or_else(|| {
        if root.is_dir() {
            root.join(LINT_SNAPSHOT_FILE)
        } else {
            root.with_file_name(LINT_SNAPSHOT_FILE)
        }
    });
    let catalog = catalog_fingerprint(registry);
    // Any failure to read or decode the cache degrades to a cold run.
    let read = opts
        .incremental
        .then(|| manifest::read_dated(fs, &cache_path));
    let (manifest, entries) = match &read {
        Some(Ok((bytes, stamp_ns))) => split_cache(bytes, *stamp_ns, catalog),
        _ => None,
    }
    .unwrap_or_default();
    let entries: BTreeMap<&str, &[u8]> = manifest
        .records
        .iter()
        .map(|r| r.path.as_str())
        .zip(entries)
        .collect();
    let rule_map: BTreeMap<&str, &'static RuleInfo> = registry
        .rule_infos()
        .into_iter()
        .map(|info| (info.id, info))
        .collect();

    // Per-file pass: replay an unchanged file, analyze a changed one, on
    // up to `jobs` workers, in file order. Each worker decodes only the
    // cache entries it replays.
    let obs = provbench_obs::global();
    let file_seconds = obs.histogram(
        LINT_FILE_SECONDS,
        "Per-file lint (read+parse+rules) time",
        provbench_obs::LATENCY_BUCKETS,
    );
    let (analyses, _) = manifest.refresh(&files, fs, opts.jobs, |file, fresh| {
        let start = Instant::now();
        let unchanged = match &fresh {
            Fresh::Clean(old) => Some((*old).clone()),
            Fresh::Read {
                record,
                old: Some(old),
                ..
            } if old.hash == record.hash => Some(record.clone()),
            _ => None,
        };
        if let Some(record) = unchanged {
            let entry = entries.get(record.path.as_str());
            if let Some(replayed) = entry.and_then(|e| replay_entry(e, record, &rule_map)) {
                return replayed;
            }
        }
        let (record, text) = match fresh {
            Fresh::Read { text, record, .. } => (Some(record), text),
            // Unchanged, but its entry does not replay: read it after all.
            Fresh::Clean(_) => match manifest::read_source(file, fs) {
                Ok((record, text)) => (Some(record), text),
                Err(e) => (None, Err(e)),
            },
            Fresh::Unreadable(e) => (None, Err(e)),
        };
        let analysis = analyze(&file.rel, record, text, registry);
        file_seconds.observe_duration(start.elapsed());
        analysis
    });

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
    // staleness hazard. Rewrite the cache when any file was analyzed or
    // any record moved (a file added, removed or touched).
    let mut cache_written = false;
    if opts.incremental {
        let recorded: Vec<&FileAnalysis> = analyses.iter().filter(|a| a.record.is_some()).collect();
        let records: Vec<SourceRecord> = recorded.iter().filter_map(|a| a.record.clone()).collect();
        if analyzed > 0 || records != manifest.records {
            let cache = snapshot::seal(LINT_MAGIC, LINT_VERSION, |body| {
                write_varint(body, catalog);
                snapshot::write_manifest(body, &records);
                let mut entry = Vec::new();
                for a in recorded {
                    entry.clear();
                    write_entry(&mut entry, a);
                    write_bytes(body, &entry);
                }
            });
            let tmp = cache_path.with_extension("snapshot.tmp");
            fs.write_atomic(&tmp, &cache_path, &cache)?;
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
    fn an_entry_that_does_not_replay_is_re_analyzed() {
        let dir = tempdir("entry");
        write(&dir, "a.ttl", GOOD);
        write(&dir, "b.ttl", &GOOD.replace("example.org", "example.net"));
        let registry = Registry::with_corpus_rules();
        let opts = CorpusLintOptions {
            jobs: 1,
            corpus_rules: true,
            incremental: true,
            cache_path: None,
        };
        let cold = lint_corpus_incremental(&dir, &registry, &opts).expect("cold run");
        // Reseal the cache with a first entry that ends too soon.
        let bytes = std::fs::read(&cold.cache_path).expect("read cache");
        let catalog = catalog_fingerprint(&registry);
        let (manifest, entries) = split_cache(&bytes, 0, catalog).expect("a valid cache");
        let resealed = snapshot::seal(LINT_MAGIC, LINT_VERSION, |body| {
            write_varint(body, catalog);
            snapshot::write_manifest(body, &manifest.records);
            write_bytes(body, &[5]);
            entries[1..].iter().for_each(|e| write_bytes(body, e));
        });
        std::fs::write(&cold.cache_path, resealed).expect("reseal cache");
        let warm = lint_corpus_incremental(&dir, &registry, &opts).expect("warm run");
        assert_eq!(warm.analyzed, 1, "only the entry that does not replay");
        assert_eq!(
            crate::render::render_jsonl(&cold.reports),
            crate::render::render_jsonl(&warm.reports)
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
