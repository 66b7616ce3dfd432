//! Snapshot round-trip integration: a corpus saved to disk, snapshotted,
//! and memory-loaded back must be indistinguishable from a cold parse —
//! for the exemplar queries, for the planner's predicate statistics, for
//! the served graph's term ids and the bytes of every answer, and under
//! deliberate corruption (which must rebuild, never panic).

use provbench::corpus::snapshot::{self, SnapshotError, SNAPSHOT_FILE};
use provbench::corpus::{store, Corpus, CorpusSpec, CorpusStore};
use provbench::endpoint::{solutions_to_json, solutions_to_tsv};
use provbench::query::exemplar::{
    q1_sparql, q2_runs_sparql, q3_inputs_sparql, q4_sparql, q5_sparql, q6_sparql, PREFIXES,
};
use provbench::query::QueryEngine;
use provbench::rdf::codec::{read_term_table, write_term_table, Reader};
use provbench::rdf::{Graph, Iri};
use provbench::workflow::System;
use std::path::PathBuf;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("provbench-snaproot-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Small corpus that still covers both systems (workflows #68+ are Wings
/// in catalog order) and both trace syntaxes (Turtle + TriG).
fn small_corpus() -> Corpus {
    let spec = CorpusSpec {
        max_workflows: Some(70),
        total_runs: 72,
        failed_runs: 3,
        ..CorpusSpec::default()
    };
    Corpus::generate(&spec)
}

/// Render solutions to sorted text so cold/warm result sets compare
/// independently of row enumeration order.
fn rendered(graph: &Graph, query: &str) -> Vec<String> {
    let solutions = QueryEngine::new(graph)
        .prepare(query)
        .and_then(|p| p.select())
        .unwrap_or_else(|e| panic!("query failed: {e:?}\n{query}"));
    let mut rows: Vec<String> = solutions
        .rows
        .iter()
        .map(|row| {
            solutions
                .variables
                .iter()
                .map(|v| row.get(v).map_or("-".into(), |t| t.to_string()))
                .collect::<Vec<_>>()
                .join("\t")
        })
        .collect();
    rows.sort();
    rows
}

/// Q1–Q6 over a successful Taverna run of `corpus` and its template.
fn exemplar_queries(corpus: &Corpus) -> [String; 6] {
    let tav = corpus
        .traces_of(System::Taverna)
        .find(|t| !t.failed())
        .unwrap();
    let tav_run = Iri::new_unchecked(format!(
        "{}workflow-run",
        provbench::taverna::run_base_iri(&tav.run_id)
    ));
    let template = &tav.template_name;
    [
        q1_sparql(),
        q2_runs_sparql(template),
        q3_inputs_sparql(template),
        q4_sparql(&tav_run),
        q5_sparql(&tav_run),
        q6_sparql(&tav_run),
    ]
}

#[test]
fn exemplar_queries_agree_cold_vs_warm() {
    let corpus = small_corpus();
    let dir = tmpdir("queries");
    store::save(&corpus, &dir).unwrap();

    let cold = CorpusStore::build(&dir, 2).unwrap();
    assert!(!cold.provenance.warm);
    let warm = CorpusStore::open_or_build(&dir).unwrap();
    assert!(warm.provenance.warm, "second open must hit the snapshot");

    assert_eq!(cold.union, warm.union);

    let queries = exemplar_queries(&corpus);
    let mut non_empty = 0;
    for (i, q) in queries.iter().enumerate() {
        let from_cold = rendered(&cold.union, q);
        let from_warm = rendered(&warm.union, q);
        non_empty += usize::from(!from_cold.is_empty());
        assert_eq!(from_cold, from_warm, "Q{} differs cold vs warm", i + 1);
    }
    // Q6 (web services) can be empty for a service-free workflow, but the
    // sweep as a whole must exercise real data.
    assert!(non_empty >= 5, "only {non_empty} exemplar queries had rows");

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn planner_statistics_agree_cold_vs_warm() {
    let corpus = small_corpus();
    let dir = tmpdir("stats");
    store::save(&corpus, &dir).unwrap();

    let cold = CorpusStore::build(&dir, 2).unwrap();
    let warm = CorpusStore::open_or_build(&dir).unwrap();
    assert!(warm.provenance.warm);

    let cold_stats = QueryEngine::new(&cold.union).predicate_statistics();
    let warm_stats = QueryEngine::new(&warm.union).predicate_statistics();
    assert!(!cold_stats.is_empty());
    assert_eq!(cold_stats, warm_stats);

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corruption_rebuilds_and_never_panics() {
    let corpus = small_corpus();
    let dir = tmpdir("corrupt");
    store::save(&corpus, &dir).unwrap();
    let reference = CorpusStore::build(&dir, 2).unwrap();
    let path = dir.join(SNAPSHOT_FILE);
    let pristine = std::fs::read(&path).unwrap();

    // Checksum corruption: flip one body byte.
    let mut bytes = pristine.clone();
    let mid = snapshot::HEADER_LEN + (bytes.len() - snapshot::HEADER_LEN) / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&path, &bytes).unwrap();
    let s = CorpusStore::open_or_build(&dir).unwrap();
    assert!(!s.provenance.warm);
    assert_eq!(s.union, reference.union);

    // Truncation, at several depths including inside the header.
    for keep in [0, 3, snapshot::HEADER_LEN, pristine.len() / 2] {
        std::fs::write(&path, &pristine[..keep]).unwrap();
        let s = CorpusStore::open_or_build(&dir).unwrap();
        assert!(!s.provenance.warm, "truncated to {keep} bytes");
        assert_eq!(s.union, reference.union);
    }

    // A term table out of canonical order is corrupt, even when every
    // id still resolves and the body is resealed: swap its first two
    // entries.
    let body = snapshot::unseal(&pristine, snapshot::MAGIC, snapshot::VERSION).unwrap();
    let mut r = Reader::new(body);
    r.read_varint().unwrap();
    r.read_varint().unwrap();
    snapshot::read_manifest(&mut r).unwrap();
    let table_start = body.len() - r.remaining();
    let mut terms = read_term_table(&mut r).unwrap();
    let table_end = body.len() - r.remaining();
    terms.swap(0, 1);
    let bytes = snapshot::seal(snapshot::MAGIC, snapshot::VERSION, |out| {
        out.extend_from_slice(&body[..table_start]);
        write_term_table(out, &terms);
        out.extend_from_slice(&body[table_end..]);
    });
    let err = snapshot::decode(&bytes).unwrap_err();
    assert!(matches!(err, SnapshotError::Corrupt(_)), "{err}");
    std::fs::write(&path, &bytes).unwrap();
    let s = CorpusStore::open_or_build(&dir).unwrap();
    assert!(!s.provenance.warm);
    let reason = s.provenance.rebuild_reason.as_deref().unwrap_or("");
    assert!(reason.contains("canonical order"), "got reason: {reason}");
    assert_eq!(s.union, reference.union);

    // A future format version must be rejected with a version message.
    let mut bytes = pristine.clone();
    bytes[6] = 0xFE;
    bytes[7] = 0xFF;
    std::fs::write(&path, &bytes).unwrap();
    let s = CorpusStore::open_or_build(&dir).unwrap();
    assert!(!s.provenance.warm);
    let reason = s.provenance.rebuild_reason.as_deref().unwrap_or("");
    assert!(reason.contains("version"), "got reason: {reason}");

    // Every rebuild rewrote a valid snapshot: the next open is warm.
    let s = CorpusStore::open_or_build(&dir).unwrap();
    assert!(s.provenance.warm);

    std::fs::remove_dir_all(&dir).unwrap();
}

/// The served graph is numbered by one canonical table on every open
/// path: a cold open, a warm open and the in-memory corpus give the same
/// ids, so queries with no ORDER BY return the same bytes, LIMIT
/// included.
#[test]
fn cold_warm_and_in_memory_graphs_answer_byte_identically() {
    let corpus = small_corpus();
    let dir = tmpdir("canonical");
    store::save(&corpus, &dir).unwrap();
    let cold = CorpusStore::open_or_build(&dir).unwrap();
    assert!(!cold.provenance.warm);
    let warm = CorpusStore::open_or_build(&dir).unwrap();
    assert!(warm.provenance.warm);
    let memory = corpus.combined_graph();

    let ids = |g: &Graph| -> Vec<_> { g.ids_matching(None, None, None).collect() };
    for (path, graph) in [("warm", &warm.union), ("in-memory", &memory)] {
        assert!(
            graph.interned_terms() == cold.union.interned_terms(),
            "{path} term table differs from cold"
        );
        assert!(ids(graph) == ids(&cold.union), "{path} triples differ");
    }

    let join = "?data ?p ?o . ?run prov:used ?data . ?run a wfprov:WorkflowRun .";
    let mut queries = exemplar_queries(&corpus).to_vec();
    queries.extend(
        [
            "SELECT ?run ?data WHERE { ?run prov:used ?data }".to_owned(),
            "SELECT ?run ?data WHERE { ?run prov:used ?data } LIMIT 4".to_owned(),
            format!("SELECT ?run ?data ?o WHERE {{ {join} }}"),
            format!("SELECT ?run ?data ?o WHERE {{ {join} }} LIMIT 10"),
            "SELECT ?s ?p ?o WHERE { ?s ?p ?o } LIMIT 50".to_owned(),
        ]
        .map(|q| format!("{PREFIXES}{q}")),
    );
    let mut non_empty = 0;
    for query in &queries {
        let answer = |graph: &Graph| {
            let solutions = QueryEngine::new(graph)
                .prepare(query)
                .and_then(|p| p.select())
                .unwrap_or_else(|e| panic!("query failed: {e:?}\n{query}"));
            (solutions_to_json(&solutions), solutions_to_tsv(&solutions))
        };
        let from_cold = answer(&cold.union);
        non_empty += usize::from(from_cold.1.lines().count() > 1);
        assert!(answer(&warm.union) == from_cold, "warm differs: {query}");
        assert!(answer(&memory) == from_cold, "in-memory differs: {query}");
    }
    // Only Q6 (web services) may be empty, as above.
    assert!(
        non_empty >= queries.len() - 1,
        "{non_empty} queries had rows"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
