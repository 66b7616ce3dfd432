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
//! * [`manifest`] — the per-file source records the snapshot, the lint
//!   cache and the `serve` watcher decide staleness with;
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
pub mod manifest;
pub mod ro;
pub mod snapshot;
pub mod spec;
pub mod stats;
pub mod store;

pub use fsio::{FileStat, RealFs, StoreFs, REAL_FS};
pub use generate::{Corpus, TraceRecord};
pub use ingest::{IngestError, IngestReport, INGEST_REPORT_FILE};
pub use manifest::{Manifest, SourceFile, SourceRecord};
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
/// multiplier. Tiny and deterministic; the seeded fault schedule
/// (`FaultPlan`, behind `FaultFs` here and `FaultConn` in the
/// endpoint) and the endpoint client's backoff jitter all draw from it.
/// A zero `state` stays zero.
pub fn xorshift64_star(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    state.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// Map `items` through `f` in input order, on up to `jobs` scoped
/// threads that pull the next item as they finish one; inline at
/// `jobs` ≤ 1, where a thread would cost more than it saves. The result
/// does not depend on `jobs`.
pub fn par_map<T: Sync, R: Send>(items: &[T], jobs: usize, f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let jobs = jobs.min(items.len());
    if jobs <= 1 {
        return items.iter().map(f).collect();
    }
    let next = std::sync::atomic::AtomicUsize::new(0);
    let slots = std::sync::Mutex::new(items.iter().map(|_| None).collect::<Vec<_>>());
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let mapped = f(item);
                slots.lock().expect("no poisoned workers")[i] = Some(mapped);
            });
        }
    });
    let slots = slots.into_inner().expect("workers joined");
    slots
        .into_iter()
        .map(|r| r.expect("every item mapped"))
        .collect()
}

/// When a fault-injecting shim fires: at exactly the `op`-th operation
/// (0-based, `nth`), or on a seeded xorshift64* schedule where each
/// operation faults with probability `1/rate` (`seeded`, fully
/// determined by the seed given a deterministic op order). It counts
/// the operations and the faults; each shim maps a seeded draw to its
/// own fault kinds.
#[cfg(feature = "fault-inject")]
#[derive(Debug)]
pub struct FaultPlan<K> {
    schedule: FaultSchedule<K>,
    ops: std::sync::atomic::AtomicUsize,
    injected: std::sync::atomic::AtomicUsize,
}

#[cfg(feature = "fault-inject")]
#[derive(Debug)]
enum FaultSchedule<K> {
    Nth(K, usize),
    Seeded(std::sync::Mutex<u64>, u64),
}

#[cfg(feature = "fault-inject")]
impl<K: Copy> FaultPlan<K> {
    pub fn nth(kind: K, op: usize) -> Self {
        FaultPlan::with(FaultSchedule::Nth(kind, op))
    }

    pub fn seeded(seed: u64, rate: u64) -> Self {
        let state = std::sync::Mutex::new(seed.wrapping_mul(0x9E3779B97F4A7C15) | 1);
        FaultPlan::with(FaultSchedule::Seeded(state, rate.max(1)))
    }

    fn with(schedule: FaultSchedule<K>) -> Self {
        FaultPlan {
            schedule,
            ops: Default::default(),
            injected: Default::default(),
        }
    }

    /// Operations counted so far.
    pub fn ops(&self) -> usize {
        self.ops.load(std::sync::atomic::Ordering::SeqCst)
    }

    /// Faults injected so far.
    pub fn injected(&self) -> usize {
        self.injected.load(std::sync::atomic::Ordering::SeqCst)
    }

    /// Count one operation and decide whether it faults; `kind_of` maps
    /// a seeded draw that fires to its kind.
    pub fn next(&self, kind_of: impl FnOnce(u64) -> K) -> Option<K> {
        use std::sync::atomic::Ordering::SeqCst;
        let op = self.ops.fetch_add(1, SeqCst);
        let kind = match &self.schedule {
            FaultSchedule::Nth(kind, target) => (op == *target).then_some(*kind),
            FaultSchedule::Seeded(state, rate) => {
                let draw = xorshift64_star(&mut state.lock().unwrap_or_else(|e| e.into_inner()));
                draw.is_multiple_of(*rate).then(|| kind_of(draw))
            }
        };
        if kind.is_some() {
            self.injected.fetch_add(1, SeqCst);
        }
        kind
    }
}
