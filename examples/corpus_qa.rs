//! Corpus quality assurance — the paper's §6 maintenance workflow:
//! profile-lint every trace, validate PROV constraints, analyze
//! cross-system interoperability, and reconstruct a run timeline with
//! its critical path.
//!
//! ```sh
//! cargo run --example corpus_qa
//! ```

use provbench::analysis::{interop_report, timeline_of};
use provbench::corpus::{Corpus, CorpusSpec};
use provbench::diag::rules::profile::{TavernaProfile, WingsProfile};
use provbench::diag::{FileContext, Registry};
use provbench::prov::validate;
use provbench::rdf::SpanTable;
use provbench::workflow::System;

fn main() {
    let spec = CorpusSpec {
        max_workflows: Some(70),
        total_runs: 90,
        failed_runs: 8,
        ..CorpusSpec::default()
    };
    let corpus = Corpus::generate_with_threads(&spec, 4);
    println!(
        "corpus: {} runs ({} failed)\n",
        corpus.traces.len(),
        corpus.failed_count()
    );

    // 1. Profile lint: every trace must follow its system's conventions.
    let mut profiles = Registry::new();
    profiles.register(Box::new(TavernaProfile));
    profiles.register(Box::new(WingsProfile));
    let spans = SpanTable::default();
    let findings: usize = corpus
        .traces
        .iter()
        .map(|t| {
            let graph = t.union_graph();
            let cx = FileContext {
                path: None,
                graph: &graph,
                spans: &spans,
                system: Some(t.system),
            };
            profiles.check(&cx).len()
        })
        .sum();
    println!(
        "lint: {} traces checked, {findings} findings",
        corpus.traces.len()
    );

    // 2. PROV-CONSTRAINTS: temporal sanity, unique generation, acyclicity.
    let violations: usize = corpus
        .traces
        .iter()
        .map(|t| validate(&t.union_graph()).len())
        .sum();
    println!("constraints: {violations} violations across all traces");

    // 3. Interoperability: which questions can both systems answer?
    println!("\n{}", interop_report(&corpus));

    // 4. Timeline + critical path of the longest Taverna run.
    let trace = corpus
        .traces_of(System::Taverna)
        .filter(|t| !t.failed())
        .max_by_key(|t| t.run.ended_ms - t.run.started_ms)
        .expect("a successful Taverna run");
    let run_iri = provbench::rdf::Iri::new_unchecked(format!(
        "{}workflow-run",
        provbench::taverna::run_base_iri(&trace.run_id)
    ));
    let tl = timeline_of(&trace.union_graph(), &run_iri).expect("Taverna runs are timed");
    println!(
        "timeline of {}: makespan {} ms, total work {} ms, parallelism {:.2}",
        trace.run_id,
        tl.makespan_ms,
        tl.total_work_ms(),
        tl.parallelism()
    );
    println!("critical path ({} steps):", tl.critical_path.len());
    for p in &tl.critical_path {
        println!("  {}", p.as_str().rsplit('/').next().unwrap_or(""));
    }
}
