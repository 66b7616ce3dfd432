//! # provbench-bench
//!
//! Benchmark harness regenerating every table and figure of the paper:
//!
//! | Bench target | Paper exhibit |
//! |---|---|
//! | `table1` | Table 1 — corpus metadata |
//! | `figure1` | Figure 1 — domains of workflows |
//! | `table2` | Table 2 — starting-point PROV term coverage |
//! | `table3` | Table 3 — additional PROV term coverage (incl. `*`) |
//! | `queries` | §4 — exemplar queries Q1–Q6, plus join ordering and LIMIT/ASK pushdown on the full corpus |
//! | `rdf` | ablation — Turtle/N-Triples/TriG parse + serialize throughput |
//! | `store` | ablation — indexed pattern matching vs full scan |
//! | `inference` | ablation — PROV-O inference rule sets |
//! | `planner` | ablation — selectivity-ordered vs written-order BGP joins |
//! | `io` | ablation — corpus save, directory load, N-Quads export/parse |
//! | `snapshot` | ablation — cold directory parse vs warm `corpus.snapshot` load |
//! | `lint` | ablation — cold vs warm vs one-file-edit incremental corpus lint |
//!
//! The `reproduce` binary prints every exhibit side-by-side with the
//! paper's values (`cargo run -p provbench-bench --bin reproduce`).

use provbench_core::{Corpus, CorpusSpec};
use std::sync::OnceLock;

/// A mid-size corpus slice shared by the benches: spans both systems
/// (70 workflows reaches into the Wings domains), with failures.
pub fn bench_corpus() -> &'static Corpus {
    static CELL: OnceLock<Corpus> = OnceLock::new();
    CELL.get_or_init(|| {
        Corpus::generate(&CorpusSpec {
            max_workflows: Some(70),
            total_runs: 90,
            failed_runs: 8,
            ..CorpusSpec::default()
        })
    })
}

/// The full paper-shaped corpus (120 workflows / 198 runs / 30 failures),
/// for benches that measure the real corpus scale.
pub fn full_corpus() -> &'static Corpus {
    static CELL: OnceLock<Corpus> = OnceLock::new();
    CELL.get_or_init(|| Corpus::generate(&CorpusSpec::default()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_corpus_is_cached_and_mixed() {
        let a = bench_corpus();
        let b = bench_corpus();
        assert!(std::ptr::eq(a, b));
        use provbench_workflow::System;
        assert!(a.traces_of(System::Taverna).next().is_some());
        assert!(a.traces_of(System::Wings).next().is_some());
    }
}
