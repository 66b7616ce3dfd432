//! Pin the exact derived numbers that EXPERIMENTS.md documents for the
//! default seed. These are *reproducibility* tests: if any of them moves,
//! the corpus generation changed and EXPERIMENTS.md must be re-measured
//! (that is a deliberate cost — a reproduction whose numbers drift
//! silently is not a reproduction).

use provbench::analysis::{decay_summary, diagnose_corpus};
use provbench::corpus::stats::CorpusStats;
use provbench::corpus::{Corpus, CorpusSpec};
use provbench::query::exemplar::{q1_runs, PREFIXES};
use provbench::query::QueryEngine;
use std::sync::OnceLock;

fn corpus() -> &'static Corpus {
    static CELL: OnceLock<Corpus> = OnceLock::new();
    CELL.get_or_init(|| Corpus::generate(&CorpusSpec::default()))
}

#[test]
fn fingerprint_matches_experiments_md() {
    assert_eq!(
        format!("{:016x}", corpus().fingerprint()),
        "a6d370ba15daa9be",
        "corpus content changed: re-measure EXPERIMENTS.md"
    );
}

#[test]
fn derived_statistics_match_experiments_md() {
    let stats = CorpusStats::compute(corpus());
    assert_eq!(stats.triples, 47_695, "triple count drifted");
    assert_eq!(stats.process_runs, 1_205, "process-run count drifted");
}

#[test]
fn q1_count_matches_experiments_md() {
    // 198 top-level runs + nested Taverna sub-workflow runs = 232.
    let runs = q1_runs(&corpus().combined_graph());
    assert_eq!(runs.len(), 232, "Q1 run count drifted");
}

/// The first rows of an unordered query: index order over the served
/// graph's canonical term ids. Any change to term numbering or join
/// order moves these rows; such a move must be listed in CHANGES.md.
#[test]
fn unordered_rows_follow_the_canonical_numbering() {
    let graph = corpus().combined_graph();
    let query = format!("{PREFIXES}SELECT ?run ?data WHERE {{ ?run prov:used ?data }} LIMIT 4");
    let solutions = QueryEngine::new(&graph)
        .prepare(&query)
        .and_then(|p| p.select())
        .unwrap();
    let rows: Vec<String> = solutions
        .rows
        .iter()
        .map(|row| format!("{} {}", row["run"], row["data"]))
        .collect();
    let run = "http://ns.taverna.org.uk/2011/run/astronomy_tav_000-run-1";
    assert_eq!(
        rows,
        [
            format!("<{run}/process/plot_lightcurve> <{run}/data/0>"),
            format!("<{run}/process/query_vizier> <{run}/data/0>"),
            format!("<{run}/workflow-run> <{run}/data/0>"),
            format!("<{run}/process/compute_redshift> <{run}/data/1>"),
        ],
        "unordered row order moved: list it in CHANGES.md"
    );
}

#[test]
fn application_counts_match_experiments_md() {
    assert_eq!(diagnose_corpus(corpus()).len(), 30);
    let decay = decay_summary(corpus());
    assert_eq!(decay.len(), 78, "longitudinal series count drifted");
    assert_eq!(
        decay.iter().filter(|r| r.decayed).count(),
        54,
        "decayed-template count drifted"
    );
}
