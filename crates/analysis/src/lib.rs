//! # provbench-analysis
//!
//! Corpus analysis: the PROV-term coverage tables ([`coverage`] — the
//! paper's Tables 2 and 3, *computed* from the traces rather than
//! hard-coded), and the three applications the paper motivates in §3:
//!
//! 1. [`lineage`] — identification of dependencies between data products
//!    and processes;
//! 2. [`debug`] — debugging workflow executions (which process failed,
//!    which steps were affected);
//! 3. [`decay`] — detection of workflow decay across repeated runs of
//!    the same template, and repair from previous runs.

pub mod coverage;
pub mod debug;
pub mod decay;
pub mod enrichment;
pub mod interop;
pub mod lineage;
pub mod timeline;

pub use coverage::{analyze_coverage, coverage_of_corpus, CoverageRow, CoverageTables, Support};
pub use debug::{
    diagnose_corpus, diagnose_graph, failed_processes_sparql, FailureReport,
    FAILED_PROCESSES_SPARQL,
};
pub use decay::{
    decay_summary, detect_decay, rdf_trace_diff, repair_candidates, DecayReport, RunObservation,
    TraceDiff,
};
pub use enrichment::{
    derivation_quality, enrich_with_exact_derivations, enrich_with_inferred_derivations,
    exact_derivations, DerivationQuality,
};
pub use interop::{interop_report, Capability, InteropReport, InteropRow};
pub use lineage::{
    corpus_dependency_edges, dependency_edges, producers_of, upstream_entities, LineageGraph,
};
pub use timeline::{timeline_of, Timeline, TimelineEntry};
