//! §4 — the six exemplar queries benchmarked against the corpus graph,
//! plus a join-ordering comparison (selectivity-ordered vs lexical) on
//! the full 198-run corpus.

use criterion::{criterion_group, criterion_main, Criterion};
use provbench_bench::{bench_corpus, full_corpus};
use provbench_query::exemplar::{
    q1_runs, q2_template_runs, q3_template_run_io, q4_process_runs, q5_executor, q6_services,
};
use provbench_query::{parse_query, EvalOptions, QueryEngine};
use provbench_wings::account_iri;
use provbench_workflow::System;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// A multi-pattern join written worst-first: the unbound wildcard scan
/// leads, the selective type pattern trails. The planner must reverse it.
const JOIN_QUERY: &str = "
PREFIX prov: <http://www.w3.org/ns/prov#>
PREFIX wfprov: <http://purl.org/wf4ever/wfprov#>
SELECT ?run ?data ?o WHERE {
  ?data ?p ?o .
  ?run prov:used ?data .
  ?run a wfprov:WorkflowRun .
}";

/// The same adversarial join as an ASK: the first-row fast path should
/// answer without evaluating the join at all.
const ASK_JOIN_QUERY: &str = "
PREFIX prov: <http://www.w3.org/ns/prov#>
PREFIX wfprov: <http://purl.org/wf4ever/wfprov#>
ASK {
  ?data ?p ?o .
  ?run prov:used ?data .
  ?run a wfprov:WorkflowRun .
}";

fn bench(c: &mut Criterion) {
    let corpus = bench_corpus();
    let graph = corpus.combined_graph();
    let template = corpus.templates[0].1.name.clone();
    let tav_trace = corpus.traces_of(System::Taverna).next().unwrap();
    let tav_run = provbench_rdf::Iri::new_unchecked(format!(
        "{}workflow-run",
        provbench_taverna::run_base_iri(&tav_trace.run_id)
    ));
    let wings_trace = corpus.traces_of(System::Wings).next().unwrap();
    let account = account_iri(&wings_trace.run_id);

    let mut group = c.benchmark_group("queries");
    group.sample_size(10);
    group.bench_function("q1_all_runs", |b| b.iter(|| black_box(q1_runs(&graph))));
    group.bench_function("q2_template_runs", |b| {
        b.iter(|| black_box(q2_template_runs(&graph, &template)))
    });
    group.bench_function("q3_run_io", |b| {
        b.iter(|| black_box(q3_template_run_io(&graph, &template)))
    });
    group.bench_function("q4_process_runs", |b| {
        b.iter(|| black_box(q4_process_runs(&graph, &tav_run)))
    });
    group.bench_function("q5_executor", |b| {
        b.iter(|| black_box(q5_executor(&graph, &tav_run)))
    });
    group.bench_function("q6_services", |b| {
        b.iter(|| black_box(q6_services(&graph, &account)))
    });
    group.finish();

    // Join ordering over the full paper-scale corpus (120 workflows /
    // 198 runs): the same query with the planner on vs forced lexical
    // evaluation order.
    let full_graph = full_corpus().combined_graph();
    let join = Arc::new(parse_query(JOIN_QUERY).expect("join query parses"));
    let ordered = QueryEngine::new(&full_graph).prepare_parsed(Arc::clone(&join));
    let lexical =
        QueryEngine::with_options(&full_graph, EvalOptions::lexical()).prepare_parsed(join);
    assert_eq!(
        ordered.select().unwrap().rows,
        lexical.select().unwrap().rows,
        "planner must not change the solution set"
    );

    let mut group = c.benchmark_group("join_ordering");
    group.sample_size(10);
    group.bench_function("selectivity_ordered", |b| {
        b.iter(|| black_box(ordered.select().unwrap()))
    });
    group.bench_function("lexical_order", |b| {
        b.iter(|| black_box(lexical.select().unwrap()))
    });
    group.finish();

    // One measured pass each for a headline speedup number.
    let t = Instant::now();
    let rows = ordered.select().unwrap().len();
    let ordered_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let _ = lexical.select().unwrap();
    let lexical_s = t.elapsed().as_secs_f64();
    println!(
        "\n--- join ordering (full corpus, {} triples, {rows} rows) ---",
        full_graph.len()
    );
    println!(
        "selectivity-ordered {:.1} ms · lexical {:.1} ms · speedup {:.1}x",
        ordered_s * 1e3,
        lexical_s * 1e3,
        lexical_s / ordered_s
    );

    // LIMIT/ASK pushdown on the same adversarial join: the streaming
    // pipeline must stop scanning after the first row instead of
    // evaluating the full join and truncating afterwards.
    let limited = Arc::new(
        parse_query(&format!("{JOIN_QUERY}\nLIMIT 1")).expect("limited join query parses"),
    );
    let limited = QueryEngine::new(&full_graph).prepare_parsed(limited);
    let asked = Arc::new(parse_query(ASK_JOIN_QUERY).expect("ask join query parses"));
    let asked = QueryEngine::new(&full_graph).prepare_parsed(asked);
    assert_eq!(limited.select().unwrap().len(), 1);
    assert!(asked.ask().unwrap());

    let mut group = c.benchmark_group("limit_pushdown");
    group.sample_size(10);
    group.bench_function("full_join", |b| {
        b.iter(|| black_box(ordered.select().unwrap()))
    });
    group.bench_function("limit_1", |b| {
        b.iter(|| black_box(limited.select().unwrap()))
    });
    group.bench_function("ask", |b| b.iter(|| black_box(asked.ask().unwrap())));
    group.finish();

    // Measured passes for the headline number (best of three for the
    // sub-millisecond early-exit paths), asserted so a pushdown
    // regression fails the bench run itself.
    let t = Instant::now();
    let _ = ordered.select().unwrap();
    let full_s = t.elapsed().as_secs_f64();
    let limit_s = (0..3)
        .map(|_| {
            let t = Instant::now();
            let _ = limited.select().unwrap();
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);
    let ask_s = (0..3)
        .map(|_| {
            let t = Instant::now();
            let _ = asked.ask().unwrap();
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);
    println!("\n--- limit pushdown (full corpus, same join) ---");
    println!(
        "full {:.1} ms · limit-1 {:.3} ms ({:.0}x) · ask {:.3} ms ({:.0}x)",
        full_s * 1e3,
        limit_s * 1e3,
        full_s / limit_s,
        ask_s * 1e3,
        full_s / ask_s
    );
    assert!(
        full_s / limit_s >= 10.0,
        "LIMIT 1 must be >=10x faster than the full join ({:.1} ms vs {:.3} ms)",
        full_s * 1e3,
        limit_s * 1e3
    );
    assert!(
        full_s / ask_s >= 10.0,
        "ASK must be >=10x faster than the full join ({:.1} ms vs {:.3} ms)",
        full_s * 1e3,
        ask_s * 1e3
    );

    println!(
        "\n--- §4 exemplar query answers (bench corpus, {} triples) ---",
        graph.len()
    );
    println!("Q1: {} runs", q1_runs(&graph).len());
    let t = q2_template_runs(&graph, &template);
    println!(
        "Q2: template {} → {} runs, {} failed",
        template,
        t.runs.len(),
        t.failed
    );
    println!(
        "Q3: {} run-I/O rows",
        q3_template_run_io(&graph, &template).len()
    );
    println!(
        "Q4: {} process runs for {}",
        q4_process_runs(&graph, &tav_run).len(),
        tav_trace.run_id
    );
    println!("Q5: executed by {:?}", q5_executor(&graph, &tav_run));
    println!(
        "Q6: {} services for {}",
        q6_services(&graph, &account).len(),
        wings_trace.run_id
    );
}

criterion_group!(benches, bench);
criterion_main!(benches);
