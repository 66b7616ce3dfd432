//! Deterministic fault-injection ("chaos") suite for the corpus store.
//!
//! Gated behind the `fault-inject` feature:
//!
//! ```text
//! cargo test --features fault-inject --test chaos
//! ```
//!
//! The harness measures how many filesystem operations one clean
//! cold open performs, then replays the open once per (fault kind ×
//! operation index) pair, injecting exactly one fault at that point.
//! A seeded pseudo-random schedule tops the sweep up past 200 injected
//! fault points. After every faulted open, two invariants must hold and
//! nothing may panic:
//!
//! 1. the open itself still succeeds in default (quarantining) mode,
//!    and its corpus is either verbatim-correct or accompanied by a
//!    non-empty quarantine report;
//! 2. a follow-up open on the *real* filesystem recovers: it serves the
//!    correct corpus, or degrades explicitly through a persisted
//!    quarantine report — never a silently partial corpus.
//!
//! A second sweep does the same to the incremental lint: a cold lint,
//! an edit, then the edit's lint, one fault per replay.

use provbench::corpus::fsio::{FaultFs, FaultKind};
use provbench::corpus::snapshot::SNAPSHOT_FILE;
use provbench::corpus::store::{self, CorpusStore, StoreOptions, SNAPSHOT_LOCK, SNAPSHOT_TMP};
use provbench::corpus::{Corpus, CorpusSpec, INGEST_REPORT_FILE};
use provbench::diag::{self, CorpusLintOptions, FileReport, Registry};
use provbench::rdf::Graph;
use std::path::{Path, PathBuf};
use std::time::Duration;

const KINDS: [FaultKind; 4] = [
    FaultKind::ReadError,
    FaultKind::Interrupted,
    FaultKind::ShortWrite,
    FaultKind::TornRename,
];

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("provbench-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A corpus big enough that one cold open performs a meaningful number
/// of filesystem operations, small enough to replay hundreds of times.
fn chaos_corpus() -> Corpus {
    let spec = CorpusSpec {
        max_workflows: Some(8),
        total_runs: 10,
        failed_runs: 2,
        ..CorpusSpec::default()
    };
    Corpus::generate(&spec)
}

/// Remove every store-managed artifact so each replay starts from the
/// identical cold state (faults are addressed by operation index, so
/// the operation sequence must be reproducible).
fn reset(dir: &Path) {
    for name in [
        SNAPSHOT_FILE,
        SNAPSHOT_TMP,
        SNAPSHOT_LOCK,
        INGEST_REPORT_FILE,
        "corpus.ingest-report.tmp",
    ] {
        let _ = std::fs::remove_file(dir.join(name));
    }
}

/// Store options routed through the fault shim. Single-threaded parsing
/// keeps the operation order (and thus the fault schedule) deterministic.
fn faulty_opts(fs: &FaultFs) -> StoreOptions<'_> {
    StoreOptions {
        jobs: 1,
        strict: false,
        lock_timeout: Duration::from_millis(200),
        fs,
        metrics: std::sync::Arc::clone(provbench::obs::global()),
    }
}

/// The store's core robustness contract: a clean report means the
/// corpus is verbatim-correct; anything less must be reported.
fn check_outcome(context: &str, store: &CorpusStore, reference: &Graph) {
    if store.ingest.is_clean() {
        assert_eq!(
            &store.union, reference,
            "{context}: clean ingest must mean a verbatim corpus"
        );
    } else {
        assert!(
            !store.ingest.errors.is_empty(),
            "{context}: dirty report with no errors"
        );
        assert_eq!(
            store.corpus.traces.len() + store.corpus.descriptions.len(),
            store.ingest.attempted - store.ingest.errors.len(),
            "{context}: loaded files + quarantined files must cover every attempt"
        );
    }
}

#[test]
fn every_fault_point_recovers_or_reports() {
    let corpus = chaos_corpus();
    let dir = tmpdir("sweep");
    store::save(&corpus, &dir).unwrap();
    let reference = corpus.combined_dataset().union_graph();

    // Dry run: count the operations of one clean cold open. A fault
    // index beyond the end never fires, so this measures the whole
    // clean path.
    reset(&dir);
    let probe = FaultFs::fail_nth(FaultKind::Interrupted, usize::MAX);
    let clean = CorpusStore::open_or_build_opts(&dir, &faulty_opts(&probe)).unwrap();
    assert!(clean.ingest.is_clean());
    assert_eq!(clean.union, reference);
    let total_ops = probe.ops();
    assert!(total_ops >= 40, "suspiciously few fs ops: {total_ops}");

    let mut injected_total = 0usize;
    for kind in KINDS {
        for op in 0..total_ops {
            let context = format!("{kind:?} at op {op}/{total_ops}");
            reset(&dir);
            let fs = FaultFs::fail_nth(kind, op);
            let store = CorpusStore::open_or_build_opts(&dir, &faulty_opts(&fs))
                .unwrap_or_else(|e| panic!("{context}: default-mode open must not fail: {e}"));
            // The clean prefix up to `op` is shared with the dry run, so
            // the fault point is always reached.
            assert_eq!(fs.injected(), 1, "{context}: fault not reached");
            injected_total += fs.injected();
            check_outcome(&context, &store, &reference);

            // Recovery: the next open on the real filesystem self-heals
            // (stale temp/lock litter, torn snapshots) or reports.
            let recovered = CorpusStore::open_or_build_with_threads(&dir, 1)
                .unwrap_or_else(|e| panic!("{context}: recovery open failed: {e}"));
            check_outcome(&format!("{context} (recovery)"), &recovered, &reference);
        }
    }

    // Seeded schedule on top of the exhaustive sweep: multiple faults
    // per open, different mixes per seed, fully reproducible.
    let mut seed = 0xC0FFEE_u64;
    while injected_total < 220 {
        seed += 1;
        let context = format!("seeded run {seed:#x}");
        reset(&dir);
        let fs = FaultFs::seeded(seed, 4);
        let store = CorpusStore::open_or_build_opts(&dir, &faulty_opts(&fs))
            .unwrap_or_else(|e| panic!("{context}: default-mode open must not fail: {e}"));
        injected_total += fs.injected();
        check_outcome(&context, &store, &reference);
        let recovered = CorpusStore::open_or_build_with_threads(&dir, 1)
            .unwrap_or_else(|e| panic!("{context}: recovery open failed: {e}"));
        check_outcome(&format!("{context} (recovery)"), &recovered, &reference);
    }
    assert!(
        injected_total >= 200,
        "only {injected_total} faults injected"
    );

    // Once the chaos stops, the store converges back to a clean warm state.
    reset(&dir);
    let settled = CorpusStore::open_or_build_with_threads(&dir, 1).unwrap();
    assert!(settled.ingest.is_clean());
    assert_eq!(settled.union, reference);
    let warm = CorpusStore::open_or_build_with_threads(&dir, 1).unwrap();
    assert!(warm.provenance.warm);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `--strict` under injected read faults: the open either stays clean or
/// fails fast with the strict-ingestion error — never a partial corpus.
#[test]
fn strict_mode_surfaces_injected_read_faults() {
    let corpus = chaos_corpus();
    let dir = tmpdir("strict");
    store::save(&corpus, &dir).unwrap();
    let reference = corpus.combined_dataset().union_graph();

    reset(&dir);
    let probe = FaultFs::fail_nth(FaultKind::ReadError, usize::MAX);
    let clean = CorpusStore::open_or_build_opts(&dir, &faulty_opts(&probe)).unwrap();
    assert_eq!(clean.union, reference);
    let total_ops = probe.ops();

    let mut failures = 0usize;
    for op in 0..total_ops {
        reset(&dir);
        let fs = FaultFs::fail_nth(FaultKind::ReadError, op);
        let opts = StoreOptions {
            strict: true,
            ..faulty_opts(&fs)
        };
        match CorpusStore::open_or_build_opts(&dir, &opts) {
            Ok(s) => {
                assert!(s.ingest.is_clean(), "strict mode returned a dirty store");
                assert_eq!(s.union, reference);
            }
            Err(e) => {
                assert!(
                    e.to_string().contains("strict ingestion"),
                    "unexpected strict failure at op {op}: {e}"
                );
                failures += 1;
            }
        }
    }
    assert!(
        failures > 0,
        "no read fault ever hit a source file in {total_ops} ops"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Each report rendered on its own, in order.
fn rendered(reports: &[FileReport]) -> Vec<String> {
    reports
        .iter()
        .map(|r| diag::render_jsonl(std::slice::from_ref(r)))
        .collect()
}

/// A faulted lint must return an error or the clean reports, except
/// that the one file whose read was faulted may report `cannot read
/// file` (PB0001) instead of its own findings.
fn check_lint(context: &str, outcome: std::io::Result<diag::CorpusLintOutcome>, clean: &[String]) {
    let Ok(outcome) = outcome else { return };
    let got = rendered(&outcome.reports);
    assert_eq!(got.len(), clean.len(), "{context}: report count");
    let unreadable = |r: &FileReport| match &r.diagnostics[..] {
        [d] => d.rule.id == "PB0001" && d.message.starts_with("cannot read file"),
        _ => false,
    };
    let mut faulted = 0;
    for ((g, c), report) in got.iter().zip(clean).zip(&outcome.reports) {
        if g != c {
            assert!(unreadable(report), "{context}: {g} instead of {c}");
            faulted += 1;
        }
    }
    assert!(
        faulted <= 1,
        "{context}: {faulted} files report a read fault"
    );
}

/// The incremental lint under every single fault: a cold lint of a
/// corpus, an edit to one trace, and the edit's lint, both through the
/// shim. Corpus rules are off: a file that cannot be read contributes
/// no summary, so cross-file findings move with it.
#[test]
fn every_lint_fault_point_errors_or_reports_cleanly() {
    let corpus = Corpus::generate(&CorpusSpec {
        max_workflows: Some(3),
        total_runs: 4,
        failed_runs: 1,
        ..CorpusSpec::default()
    });
    let dir = tmpdir("lint");
    store::save(&corpus, &dir).unwrap();
    let registry = Registry::with_default_rules();
    let opts = CorpusLintOptions {
        jobs: 1,
        corpus_rules: false,
        incremental: true,
        cache_path: None,
    };
    let cache = dir.join(provbench::corpus::snapshot::LINT_SNAPSHOT_FILE);
    let tmp = cache.with_extension("snapshot.tmp");
    let target = diag::collect_rdf_files(&dir)
        .unwrap()
        .into_iter()
        .find(|p| p.to_string_lossy().ends_with(".prov.ttl"))
        .unwrap();
    let original = std::fs::read_to_string(&target).unwrap();
    let edited = format!("{original}# edited\n");
    let lint = |fs: &dyn provbench::corpus::StoreFs| {
        diag::lint_corpus_incremental_fs(&dir, &registry, &opts, fs)
    };
    let clean_of = |content: &str| {
        std::fs::write(&target, content).unwrap();
        let _ = std::fs::remove_file(&cache);
        rendered(
            &diag::lint_corpus_incremental(&dir, &registry, &opts)
                .unwrap()
                .reports,
        )
    };
    let (clean_cold, clean_edit) = (clean_of(&original), clean_of(&edited));

    // Dry run: the operations of one clean cold-then-edit sequence.
    let sequence = |fs: &FaultFs, context: &str| {
        std::fs::write(&target, &original).unwrap();
        let _ = std::fs::remove_file(&cache);
        check_lint(&format!("{context} (cold)"), lint(fs), &clean_cold);
        std::fs::write(&target, &edited).unwrap();
        check_lint(&format!("{context} (edit)"), lint(fs), &clean_edit);
    };
    let probe = FaultFs::fail_nth(FaultKind::Interrupted, usize::MAX);
    sequence(&probe, "dry run");
    let total_ops = probe.ops();
    assert!(total_ops >= 20, "suspiciously few fs ops: {total_ops}");

    for kind in KINDS {
        for op in 0..total_ops {
            let context = format!("{kind:?} at op {op}/{total_ops}");
            let fs = FaultFs::fail_nth(kind, op);
            sequence(&fs, &context);
            assert_eq!(fs.injected(), 1, "{context}: fault not reached");
            // Recovery: the next lint on the real filesystem prints the
            // clean bytes and leaves no temp file behind.
            let recovered = diag::lint_corpus_incremental(&dir, &registry, &opts)
                .unwrap_or_else(|e| panic!("{context}: recovery lint failed: {e}"));
            assert_eq!(
                rendered(&recovered.reports),
                clean_edit,
                "{context}: recovery"
            );
            assert!(!tmp.exists(), "{context}: {} left behind", tmp.display());
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
