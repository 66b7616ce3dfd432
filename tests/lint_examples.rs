//! The committed `examples/` corpus and its lint baseline stay in sync:
//! the two clean traces lint clean, the dissected files produce exactly
//! the documented findings, and the committed baseline suppresses all of
//! them — the contract the CI lint gate relies on.

use provbench::diag::{
    apply_baseline, collect_rdf_files, json, lint_corpus_incremental, parse_baseline, render_sarif,
    CorpusLintOptions, FileReport, Registry, Severity,
};
use std::path::Path;

// Lint via the same relative path CI uses: diagnostic fingerprints
// include the file path as given, so the baseline is tied to linting
// `examples` from the repository root (cargo's cwd for these tests).
fn examples_dir() -> &'static Path {
    let dir = Path::new("examples");
    assert!(
        dir.is_dir(),
        "test must run from the repository root (cargo does this)"
    );
    dir
}

/// The per-file rule packs over `examples/`, cold, no corpus rules.
fn lint_examples(registry: &Registry) -> Vec<FileReport> {
    let opts = CorpusLintOptions {
        jobs: 2,
        corpus_rules: false,
        incremental: false,
        cache_path: None,
    };
    lint_corpus_incremental(examples_dir(), registry, &opts)
        .expect("lint examples/")
        .reports
}

#[test]
fn examples_match_their_committed_baseline() {
    let registry = Registry::with_default_rules();
    let mut reports = lint_examples(&registry);
    assert_eq!(reports.len(), 12, "expected 12 example files");

    // The clean traces are clean; the dissected files are not.
    for report in &reports {
        let dissected = report.path.contains("dissected");
        assert_eq!(
            !report.diagnostics.is_empty(),
            dissected,
            "{}: unexpected diagnostics state: {:#?}",
            report.path,
            report.diagnostics
        );
    }

    // The dissected fixtures demonstrate the documented rules.
    let fired: Vec<&str> = reports
        .iter()
        .flat_map(|r| r.diagnostics.iter().map(|d| d.rule.id))
        .collect();
    for id in ["PB0107", "PB0201", "PB0204", "PB0206", "PB0401", "PB0403"] {
        assert!(
            fired.contains(&id),
            "{id} should fire on examples/dissected"
        );
    }
    // Spanned Turtle diagnostics: every finding carries line/column.
    assert!(reports
        .iter()
        .flat_map(|r| &r.diagnostics)
        .all(|d| d.span.is_some() && d.file.is_some()));

    // The committed baseline accepts all of it.
    let baseline = parse_baseline(
        &std::fs::read_to_string(examples_dir().join("lint.baseline"))
            .expect("read examples/lint.baseline"),
    );
    let suppressed = apply_baseline(&mut reports, &baseline);
    assert!(suppressed > 0);
    let remaining: Vec<_> = reports.iter().flat_map(|r| &r.diagnostics).collect();
    assert!(
        remaining.is_empty(),
        "baseline out of date — regenerate with `provbench lint --write-baseline \
         examples/lint.baseline examples`; unsuppressed: {remaining:#?}"
    );
}

/// The corpus-wide rules fire on the examples tree (the dissected
/// files share no IRIs with the run series, so each is an orphan
/// document) and the committed baseline — regenerated with
/// `--corpus-rules` — suppresses every finding, which is what the CI
/// corpus-lint gate asserts.
#[test]
fn corpus_rules_on_examples_match_the_baseline() {
    let registry = Registry::with_corpus_rules();
    let opts = CorpusLintOptions {
        jobs: 2,
        corpus_rules: true,
        incremental: false,
        cache_path: None,
    };
    let outcome =
        lint_corpus_incremental(examples_dir(), &registry, &opts).expect("lint examples/");
    let mut reports = outcome.reports;
    let fired: Vec<&str> = reports
        .iter()
        .flat_map(|r| r.diagnostics.iter().map(|d| d.rule.id))
        .collect();
    assert!(
        fired.contains(&"PB0213"),
        "isolated example files should each be orphan documents; fired: {fired:?}"
    );
    let baseline = parse_baseline(
        &std::fs::read_to_string(examples_dir().join("lint.baseline"))
            .expect("read examples/lint.baseline"),
    );
    apply_baseline(&mut reports, &baseline);
    let remaining: Vec<_> = reports.iter().flat_map(|r| &r.diagnostics).collect();
    assert!(
        remaining.is_empty(),
        "baseline out of date — regenerate with `provbench lint --corpus-rules \
         --write-baseline examples/lint.baseline examples`; unsuppressed: {remaining:#?}"
    );
}

/// Incrementality end to end on a copy of the examples tree: a warm run
/// replays everything byte-identically, and editing one file re-runs
/// exactly that file's rule bodies.
#[test]
fn incremental_lint_over_examples_is_cold_warm_identical() {
    let dir = std::env::temp_dir().join(format!("provbench-lint-examples-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let files = collect_rdf_files(examples_dir()).expect("collect examples");
    for path in &files {
        let rel = path.strip_prefix(examples_dir()).expect("under examples/");
        let target = dir.join(rel);
        std::fs::create_dir_all(target.parent().expect("parent")).expect("mkdir");
        std::fs::copy(path, &target).expect("copy example");
    }
    let registry = Registry::with_corpus_rules();
    let opts = CorpusLintOptions {
        jobs: 2,
        corpus_rules: true,
        incremental: true,
        cache_path: None,
    };
    let cold = lint_corpus_incremental(&dir, &registry, &opts).expect("cold run");
    assert_eq!(cold.analyzed, files.len());
    let warm = lint_corpus_incremental(&dir, &registry, &opts).expect("warm run");
    assert_eq!(warm.analyzed, 0, "warm run must re-run zero rule bodies");
    assert_eq!(warm.reused, files.len());
    assert_eq!(
        provbench::diag::render_jsonl(&cold.reports),
        provbench::diag::render_jsonl(&warm.reports),
        "cold and warm diagnostics must be byte-identical"
    );
    assert_eq!(
        provbench::diag::render_sarif(&cold.reports, &registry),
        provbench::diag::render_sarif(&warm.reports, &registry),
    );
    // Append a comment to one file: content fingerprint changes, rules
    // re-run for that file alone, summaries of the rest are reused.
    let victim = dir.join("dissected/ordering-cycle.ttl");
    let mut content = std::fs::read_to_string(&victim).expect("read victim");
    content.push_str("\n# touched\n");
    std::fs::write(&victim, content).expect("touch victim");
    let edited = lint_corpus_incremental(&dir, &registry, &opts).expect("edited run");
    assert_eq!(edited.analyzed, 1, "only the edited file re-analyzes");
    assert_eq!(edited.reused, files.len() - 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Measurement behind the EXPERIMENTS.md number — run with
/// `cargo test --release --test lint_examples -- --ignored --nocapture`.
/// Times cold (full parse + rules) vs warm (snapshot replay) corpus
/// lint over the examples tree and asserts the ≥5× the docs claim.
#[test]
#[ignore = "timing measurement; run explicitly with --ignored --nocapture"]
fn measure_cold_vs_warm_lint_wall_time() {
    let dir = std::env::temp_dir().join(format!("provbench-lint-timing-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let files = collect_rdf_files(examples_dir()).expect("collect examples");
    for path in &files {
        let rel = path.strip_prefix(examples_dir()).expect("under examples/");
        let target = dir.join(rel);
        std::fs::create_dir_all(target.parent().expect("parent")).expect("mkdir");
        std::fs::copy(path, &target).expect("copy example");
    }
    let registry = Registry::with_corpus_rules();
    let opts = CorpusLintOptions {
        jobs: 1,
        corpus_rules: true,
        incremental: true,
        cache_path: None,
    };
    let cache_path = lint_corpus_incremental(&dir, &registry, &opts)
        .expect("seed run")
        .cache_path;
    // Best-of-batches: the minimum batch mean estimates the true cost
    // with scheduler noise stripped, applied identically to both sides.
    const BATCHES: u32 = 20;
    const ITERS: u32 = 20;
    let time = |cold: bool| {
        let mut best = f64::INFINITY;
        for _ in 0..BATCHES {
            let start = std::time::Instant::now();
            for _ in 0..ITERS {
                if cold {
                    let _ = std::fs::remove_file(&cache_path);
                }
                let outcome = lint_corpus_incremental(&dir, &registry, &opts).expect("lint");
                assert_eq!(outcome.analyzed, if cold { files.len() } else { 0 });
            }
            best = best.min(start.elapsed().as_secs_f64() / f64::from(ITERS));
        }
        best
    };
    let warm = time(false);
    let cold = time(true);
    println!(
        "examples corpus ({} files): cold {:.1} µs/run, warm {:.1} µs/run — {:.1}× speedup",
        files.len(),
        cold * 1e6,
        warm * 1e6,
        cold / warm
    );
    assert!(
        cold / warm >= 5.0,
        "warm lint should be ≥5× faster than cold (got {:.1}×)",
        cold / warm
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Multi-span diagnostics (the PB0107 cycle) surface their cycle
/// members as SARIF `relatedLocations` with messages and regions.
#[test]
fn sarif_related_locations_carry_cycle_members() {
    let registry = Registry::with_default_rules();
    let reports = lint_examples(&registry);
    let cycle = reports
        .iter()
        .flat_map(|r| &r.diagnostics)
        .find(|d| d.rule.id == "PB0107")
        .expect("ordering-cycle.ttl fires PB0107");
    assert!(
        !cycle.related.is_empty(),
        "PB0107 should point at its cycle members"
    );
    let log = json::parse(&render_sarif(&reports, &registry)).expect("valid SARIF JSON");
    let results = log.get("runs").and_then(json::Json::as_array).unwrap()[0]
        .get("results")
        .and_then(json::Json::as_array)
        .unwrap();
    let sarif_cycle = results
        .iter()
        .find(|r| r.get("ruleId").and_then(json::Json::as_str) == Some("PB0107"))
        .expect("PB0107 in SARIF results");
    let related = sarif_cycle
        .get("relatedLocations")
        .and_then(json::Json::as_array)
        .expect("relatedLocations array");
    assert_eq!(related.len(), cycle.related.len());
    for loc in related {
        assert!(loc
            .get("message")
            .and_then(|m| m.get("text"))
            .and_then(json::Json::as_str)
            .is_some_and(|t| t.contains("cycle member")));
        assert!(loc
            .get("physicalLocation")
            .and_then(|p| p.get("artifactLocation"))
            .and_then(|a| a.get("uri"))
            .and_then(json::Json::as_str)
            .is_some());
    }
}

#[test]
fn examples_render_as_valid_sarif() {
    let registry = Registry::with_default_rules();
    let reports = lint_examples(&registry);
    let log = json::parse(&render_sarif(&reports, &registry)).expect("valid SARIF JSON");
    assert_eq!(
        log.get("version").and_then(json::Json::as_str),
        Some("2.1.0")
    );
    let results = log.get("runs").and_then(json::Json::as_array).unwrap()[0]
        .get("results")
        .and_then(json::Json::as_array)
        .unwrap();
    let errors = reports
        .iter()
        .flat_map(|r| &r.diagnostics)
        .filter(|d| d.severity == Severity::Error)
        .count();
    assert!(errors > 0);
    assert_eq!(
        results.len(),
        reports.iter().map(|r| r.diagnostics.len()).sum::<usize>()
    );
}
