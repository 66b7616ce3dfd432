//! # provbench-core
//!
//! The PROV-corpus itself — the paper's contribution. This crate
//! orchestrates the two engine simulators to re-create the corpus's
//! *shape*: 120 workflows over 12 domains, 198 runs of which 30 failed,
//! one RDF file per run (Turtle for Taverna, TriG for Wings) plus one
//! workflow-description file per template, and the statistics behind the
//! paper's Table 1 and Figure 1.
//!
//! * [`spec`] — the corpus specification and the deterministic run plan;
//! * [`generate`] — in-memory corpus generation;
//! * [`store`] — the on-disk layout (save/load round-trip);
//! * [`stats`] — Table 1 / Figure 1 statistics.
//!
//! ## Example
//!
//! ```
//! use provbench_core::{Corpus, CorpusSpec};
//!
//! // A miniature corpus for the doctest (the real one uses `default()`).
//! let spec = CorpusSpec { max_workflows: Some(4), total_runs: 7, failed_runs: 2, ..CorpusSpec::default() };
//! let corpus = Corpus::generate(&spec);
//! assert_eq!(corpus.traces.len(), 7);
//! assert_eq!(corpus.traces.iter().filter(|t| t.failed()).count(), 2);
//! ```

pub mod fsio;
pub mod generate;
pub mod ingest;
pub mod ro;
pub mod snapshot;
pub mod spec;
pub mod stats;
pub mod store;

pub use fsio::{RealFs, StoreFs, REAL_FS};
pub use generate::{Corpus, TraceRecord};
pub use ingest::{IngestError, IngestReport, INGEST_REPORT_FILE};
pub use ro::{corpus_research_objects, research_object_for};
pub use spec::{CorpusSpec, PlannedRun, RunPlan};
pub use stats::{CorpusStats, DomainRow, Table1};
pub use store::{
    CorpusStore, LoadOutcome, LoadedCorpus, LoadedDescription, LoadedTrace, SnapshotProvenance,
    StoreOptions,
};

#[cfg(feature = "fault-inject")]
pub use fsio::{FaultFs, FaultKind};

/// One draw from a seeded xorshift64* stream: advance `state` by a
/// 13/7/17 xorshift and return it scrambled by the xorshift64*
/// multiplier. Tiny and deterministic; the seeded fault schedules
/// (`FaultFs` here, `FaultConn` in the endpoint) and the endpoint
/// client's backoff jitter all draw from it. A zero `state` stays zero.
pub fn xorshift64_star(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    state.wrapping_mul(0x2545_F491_4F6C_DD1D)
}
