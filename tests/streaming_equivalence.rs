//! The streaming API must never change *what* a query answers.
//!
//! `PreparedQuery::select()` is a collect over `rows()`, and these
//! tests pin the contract from the outside: for every exemplar query
//! (Q1–Q6) and a batch of randomized queries — basic graph patterns,
//! OPTIONAL (with `FILTER(!BOUND(..))`), UNION at top level and inside
//! OPTIONAL, and nested groups — draining the streaming iterator yields
//! a byte-identical solution sequence to the materialized call, and the
//! randomized batch's answers hash to a pinned digest. Errors must
//! round-trip too (a row-budget trip surfaces identically from both
//! APIs), dropping a partially-consumed iterator must release its
//! deadline/row-budget accounting cleanly, and LIMIT/ASK must stop the
//! scans inside UNION arms and OPTIONAL bodies, not only in plain BGPs.

use provbench::corpus::{Corpus, CorpusSpec};
use provbench::query::exemplar::{
    q1_sparql, q2_failed_sparql, q2_runs_sparql, q3_inputs_sparql, q3_outputs_sparql, q4_sparql,
    q5_sparql, q6_sparql, PREFIXES,
};
use provbench::query::{EvalOptions, QueryEngine, QueryError, Solutions};
use provbench::rdf::{Graph, Iri, Literal, Triple};
use provbench::workflow::execution::fnv1a;
use provbench::workflow::System;

fn corpus() -> Corpus {
    Corpus::generate(&CorpusSpec {
        max_workflows: Some(70),
        total_runs: 90,
        failed_runs: 8,
        ..CorpusSpec::default()
    })
}

/// Drain `rows()` and compare against `select()`: same variables, same
/// rows, same row order. Returns the materialized answer.
fn assert_stream_matches_select(graph: &Graph, query: &str) -> Solutions {
    let prepared = QueryEngine::new(graph)
        .prepare(query)
        .unwrap_or_else(|e| panic!("prepare failed on {query}: {e}"));
    let materialized = prepared
        .select()
        .unwrap_or_else(|e| panic!("select failed on {query}: {e}"));
    let rows = prepared
        .rows()
        .unwrap_or_else(|e| panic!("rows failed on {query}: {e}"));
    assert_eq!(
        rows.variables(),
        materialized.variables.as_slice(),
        "variables differ for {query}"
    );
    let streamed: Vec<_> = rows
        .collect::<Result<_, _>>()
        .unwrap_or_else(|e| panic!("stream failed on {query}: {e}"));
    assert_eq!(
        streamed, materialized.rows,
        "streamed rows differ for {query}"
    );
    materialized
}

#[test]
fn exemplar_queries_stream_identically() {
    let corpus = corpus();
    let graph = corpus.combined_graph();
    let template = corpus.templates[0].1.name.clone();
    let tav_run = Iri::new_unchecked(format!(
        "{}workflow-run",
        provbench::taverna::run_base_iri(&corpus.traces_of(System::Taverna).next().unwrap().run_id)
    ));
    let account =
        provbench::wings::account_iri(&corpus.traces_of(System::Wings).next().unwrap().run_id);

    for query in [
        q1_sparql(),
        q2_runs_sparql(&template),
        q2_failed_sparql(&template),
        q3_inputs_sparql(&template),
        q3_outputs_sparql(&template),
        q4_sparql(&tav_run),
        q5_sparql(&tav_run),
        q6_sparql(&account),
    ] {
        assert_stream_matches_select(&graph, &query);
    }
}

/// A deterministic xorshift so the "random" queries are reproducible.
struct Rng(u64);

impl Rng {
    fn next(&mut self, bound: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % bound
    }
}

/// A closed-vocabulary random graph, like the proptest generator's, so
/// randomized patterns actually join: half the objects link back to a
/// subject, so paths through several patterns match too.
fn random_graph(rng: &mut Rng, triples: usize) -> Graph {
    (0..triples)
        .map(|_| {
            let s = Iri::new_unchecked(format!("http://t/s{}", rng.next(8)));
            let p = Iri::new_unchecked(format!("http://t/p{}", rng.next(4)));
            match rng.next(4) {
                0 => Triple::new(s, p, Literal::integer(rng.next(10) as i64)),
                1 => Triple::new(
                    s,
                    p,
                    Iri::new_unchecked(format!("http://t/o{}", rng.next(10))),
                ),
                _ => Triple::new(
                    s,
                    p,
                    Iri::new_unchecked(format!("http://t/s{}", rng.next(8))),
                ),
            }
        })
        .collect()
}

/// Node variables (subject/object) then predicate variables.
const VARS: [&str; 5] = ["?a", "?b", "?c", "?d", "?e"];

/// `n` random triple patterns over a small shared variable and constant
/// pool.
fn random_triples(rng: &mut Rng, n: usize) -> String {
    let mut body = String::new();
    for _ in 0..n {
        let s = rng.next(3) as usize;
        let p = match rng.next(4) {
            0 | 1 => format!("<http://t/p{}>", rng.next(4)),
            k => VARS[1 + k as usize].to_owned(), // a shared predicate variable
        };
        let o = match rng.next(8) {
            0 => format!("<http://t/o{}>", rng.next(10)),
            1 => format!("{}", rng.next(10)),
            // Another node variable: self-loops are rare in the graph.
            _ => VARS[(s + 1 + rng.next(2) as usize) % 3].to_owned(),
        };
        let s = VARS[s];
        body.push_str(&format!("  {s} {p} {o} .\n"));
    }
    body
}

/// A random group body: one triple pattern plus, while `depth`
/// allows, one composite element before or after it — an OPTIONAL
/// (sometimes followed by `FILTER(!BOUND(?v))`), a UNION of two groups,
/// or a nested group — whose bodies recurse one level down. At depth 2
/// this yields UNIONs nested inside OPTIONALs and vice versa.
fn random_group(rng: &mut Rng, depth: u32) -> String {
    let bgp = random_triples(rng, 1);
    if depth == 0 {
        return bgp;
    }
    let composite = match rng.next(4) {
        0 => {
            let mut optional = format!("  OPTIONAL {{\n{}  }}\n", random_group(rng, depth - 1));
            if rng.next(2) == 0 {
                let v = VARS[rng.next(5) as usize];
                optional.push_str(&format!("  FILTER(!BOUND({v}))\n"));
            }
            optional
        }
        1 => {
            let left = random_group(rng, depth - 1);
            let right = random_group(rng, depth - 1);
            format!("  {{\n{left}  }} UNION {{\n{right}  }}\n")
        }
        2 => format!("  {{\n{}  }}\n", random_group(rng, depth - 1)),
        _ => String::new(),
    };
    if rng.next(2) == 0 {
        bgp + &composite
    } else {
        composite + &bgp
    }
}

/// A random query: a plain BGP of 2–4 patterns or a composite group
/// (see [`random_group`]), under `SELECT *`, an explicit projection
/// (which streams, so LIMIT reaches the scans) or `ASK`, occasionally
/// decorated with DISTINCT/ORDER BY/LIMIT. Unlike the
/// planner-equivalence suite, LIMIT without ORDER BY is fair game here:
/// streaming and materialized evaluation share one plan, so even
/// order-sensitive modifiers must agree byte for byte.
fn random_query(rng: &mut Rng) -> String {
    let body = if rng.next(3) == 0 {
        let n = 2 + rng.next(3) as usize;
        random_triples(rng, n)
    } else {
        random_group(rng, 2)
    };
    let head = match rng.next(8) {
        0 => return format!("ASK {{\n{body}}}"),
        1 | 2 => "SELECT DISTINCT *",
        3 => "SELECT ?a ?c",
        4 => "SELECT ?a ?b ?c ?d ?e",
        _ => "SELECT *",
    };
    let tail = match rng.next(4) {
        0 => " ORDER BY ?a".to_owned(),
        1 => format!(" LIMIT {}", 1 + rng.next(20)),
        _ => String::new(),
    };
    format!("{head} WHERE {{\n{body}}}{tail}")
}

/// Append `query` and its answer to `out` as text: the query, the
/// header, then one tab-separated line of N-Triples terms per row
/// (empty for an unbound variable).
fn serialize(query: &str, solutions: &Solutions, out: &mut String) {
    out.push_str(query);
    out.push('\n');
    out.push_str(&solutions.variables.join("\t"));
    out.push('\n');
    for row in &solutions.rows {
        let cells: Vec<String> = solutions
            .variables
            .iter()
            .map(|v| row.get(v).map(|t| t.to_string()).unwrap_or_default())
            .collect();
        out.push_str(&cells.join("\t"));
        out.push('\n');
    }
}

/// FNV-1a of the serialized randomized batch. A change to any answer's
/// rows, their order or its header moves it.
const RANDOMIZED_BATCH_DIGEST: u64 = 4_008_626_528_370_167_372;

#[test]
fn randomized_bgps_stream_identically() {
    let mut rng = Rng(0x5eed_cafe_f00d_0001);
    let mut batch = String::new();
    for _ in 0..100 {
        let size = 20 + rng.next(40) as usize;
        let graph = random_graph(&mut rng, size);
        for _ in 0..4 {
            let query = random_query(&mut rng);
            let answer = assert_stream_matches_select(&graph, &query);
            serialize(&query, &answer, &mut batch);
        }
    }
    assert_eq!(
        fnv1a(batch.as_bytes()),
        RANDOMIZED_BATCH_DIGEST,
        "randomized batch answers changed ({} bytes)",
        batch.len()
    );
}

#[test]
fn budget_errors_surface_identically_from_both_apis() {
    let mut rng = Rng(0x5eed_cafe_f00d_0002);
    let graph = random_graph(&mut rng, 30);
    let opts = EvalOptions::default().with_row_budget(3);
    let prepared = QueryEngine::with_options(&graph, opts)
        .prepare("SELECT ?a ?b WHERE { ?a ?p ?b . ?c ?q ?d }")
        .unwrap();
    let materialized = prepared.select();
    let streamed: Result<Vec<_>, _> = prepared.rows().unwrap().collect();
    match (materialized, streamed) {
        (Err(QueryError::Timeout(a)), Err(QueryError::Timeout(b))) => {
            assert_eq!(a, b, "budget errors differ between select() and rows()")
        }
        other => panic!("expected identical budget trips, got {other:?}"),
    }
}

#[test]
fn dropped_iterator_releases_budget_accounting() {
    let mut rng = Rng(0x5eed_cafe_f00d_0003);
    let graph = random_graph(&mut rng, 30);
    // A budget a full cross-join drain would trip many times over, but
    // the first row fits well inside.
    let opts = EvalOptions::default().with_row_budget(10);
    let prepared = QueryEngine::with_options(&graph, opts)
        .prepare("SELECT ?a ?b WHERE { ?a ?p ?b . ?c ?q ?d } LIMIT 2")
        .unwrap();
    // Partially consume and drop, repeatedly: if any deadline or
    // row-budget accounting leaked across evaluations, the later
    // iterations (or the final full drain) would trip the budget.
    for round in 0..20 {
        let mut rows = prepared.rows().unwrap();
        match rows.next() {
            Some(Ok(_)) => {}
            other => panic!("round {round}: expected a first row, got {other:?}"),
        }
        drop(rows);
    }
    let full = prepared
        .select()
        .expect("full drain after partial consumptions");
    assert_eq!(full.len(), 2);
}

/// LIMIT and ASK stop the scans inside UNION arms and OPTIONAL bodies,
/// as they do in plain BGPs. Under a 50-row budget on the paper-default
/// corpus, each query below is answered by its first rows; evaluating
/// the UNION's left arm whole, or one OPTIONAL body whole, would
/// exhaust the budget.
#[test]
fn limit_and_ask_stop_scans_inside_union_and_optional() {
    let graph = Corpus::generate(&CorpusSpec::default()).combined_graph();
    let engine = QueryEngine::with_options(&graph, EvalOptions::default().with_row_budget(50));
    let prepare = |text: String| {
        engine
            .prepare(&format!("{PREFIXES}{text}"))
            .unwrap_or_else(|e| panic!("prepare failed on {text}: {e}"))
    };
    let join = "?data ?p ?o . ?run prov:used ?data . ?run a wfprov:WorkflowRun";
    let union = format!("{{ {join} }} UNION {{ ?run a opmw:WorkflowExecutionAccount }}");

    // The control: the left arm alone already passes as a plain ASK.
    assert!(prepare(format!("ASK {{ {join} }}")).ask().unwrap());

    let ask = prepare(format!("ASK {{ {union} }}"));
    assert!(ask.ask().unwrap());
    assert_eq!(ask.select().unwrap().len(), 1);

    let first_run = prepare(format!("SELECT ?run WHERE {{ {union} }} LIMIT 1"));
    assert_eq!(first_run.select().unwrap().len(), 1);

    let optional = prepare(
        "SELECT ?run ?o WHERE { ?run a wfprov:WorkflowRun \
         OPTIONAL { ?run prov:used ?data . ?data ?p ?o . ?x ?q ?data } } LIMIT 1"
            .to_owned(),
    );
    assert_eq!(optional.select().unwrap().len(), 1);
}
