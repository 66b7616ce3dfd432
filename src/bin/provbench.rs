//! The `provbench` command-line tool: generate, inspect, validate,
//! query and serve the corpus.
//!
//! ```text
//! provbench generate --out DIR [--payload N] [--seed N]   write the corpus to disk
//! provbench stats [--seed N]                              Table 1 + Figure 1
//! provbench coverage [--seed N]                           Tables 2 and 3
//! provbench validate --dir DIR                            PROV-constraint-check a corpus directory
//! provbench lint [PATH | --dir DIR] [--format F]         static-analyse corpus files (provlint)
//! provbench query 'SPARQL' [--dir DIR]                    query a corpus (generated or loaded)
//! provbench serve [--addr HOST:PORT]                      SPARQL endpoint + web UI
//! provbench snapshot build|info --dir DIR                 manage the binary corpus snapshot
//! ```
//!
//! Every `--dir` consumer goes through the directory's on-disk cache.
//! Queries, `serve` and `validate` load through
//! `CorpusStore::open_or_build`: a valid `corpus.snapshot` is
//! memory-loaded, anything else falls back to parsing the RDF sources
//! and rewrites the snapshot. `lint --dir` (and `serve`'s `/lint`
//! report) lint the sources through `corpus.lint.snapshot`.

use provbench::analysis::coverage::term_usage;
use provbench::analysis::{coverage_of_corpus, dependency_edges};
use provbench::corpus::stats::{CorpusStats, Table1};
use provbench::corpus::{
    research_object_for, store, Corpus, CorpusSpec, Manifest, SourceRecord, REAL_FS,
};
use provbench::endpoint::{url_encode, Client, Endpoint, ServerConfig, ShutdownSignal};
use provbench::prov::from_rdf::graph_to_document;
use provbench::prov::{validate, write_provn};
use provbench::query::exemplar::PREFIXES;
use provbench::query::{QueryEngine, QueryError, QueryParseError};
use provbench::rdf::Graph;
use provbench::workflow::System;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Options {
    seed: u64,
    payload: usize,
    out: Option<String>,
    dir: Option<String>,
    addr: String,
    format: String,
    baseline: Option<String>,
    write_baseline: Option<String>,
    deny: String,
    jobs: Option<usize>,
    strict: bool,
    corpus_rules: bool,
    incremental: bool,
    explain_rule: Option<String>,
    trace: Option<String>,
    endpoint: Option<String>,
    drain_ms: Option<u64>,
    positional: Vec<String>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        seed: 42,
        payload: 0,
        out: None,
        dir: None,
        addr: "127.0.0.1:3030".into(),
        format: "text".into(),
        baseline: None,
        write_baseline: None,
        deny: "error".into(),
        jobs: None,
        strict: false,
        corpus_rules: false,
        incremental: false,
        explain_rule: None,
        trace: None,
        endpoint: None,
        drain_ms: None,
        positional: Vec::new(),
    };
    // Accept both `--opt value` and `--opt=value`.
    let args: Vec<String> = args
        .iter()
        .flat_map(
            |a| match a.strip_prefix("--").and_then(|r| r.split_once('=')) {
                Some((k, v)) => vec![format!("--{k}"), v.to_owned()],
                None => vec![a.clone()],
            },
        )
        .collect();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => {
                o.seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--seed needs an integer")?
            }
            "--payload" => {
                o.payload = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--payload needs an integer")?
            }
            "--out" => o.out = Some(it.next().ok_or("--out needs a path")?.clone()),
            "--dir" => o.dir = Some(it.next().ok_or("--dir needs a path")?.clone()),
            "--addr" => o.addr = it.next().ok_or("--addr needs host:port")?.clone(),
            "--format" => o.format = it.next().ok_or("--format needs text|json|sarif")?.clone(),
            "--baseline" => o.baseline = Some(it.next().ok_or("--baseline needs a file")?.clone()),
            "--write-baseline" => {
                o.write_baseline = Some(it.next().ok_or("--write-baseline needs a file")?.clone())
            }
            "--deny" => o.deny = it.next().ok_or("--deny needs error|warning|info")?.clone(),
            "--jobs" => {
                o.jobs = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .ok_or("--jobs needs an integer")?,
                )
            }
            "--strict" => o.strict = true,
            "--corpus-rules" => o.corpus_rules = true,
            "--incremental" => o.incremental = true,
            "--explain" => {
                o.explain_rule = Some(it.next().ok_or("--explain needs a rule id")?.clone())
            }
            "--trace" => o.trace = Some(it.next().ok_or("--trace needs a file path")?.clone()),
            "--endpoint" => o.endpoint = Some(it.next().ok_or("--endpoint needs a URL")?.clone()),
            "--drain-ms" => {
                o.drain_ms = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .ok_or("--drain-ms needs an integer")?,
                )
            }
            other if other.starts_with("--") => return Err(format!("unknown option {other}")),
            other => o.positional.push(other.to_owned()),
        }
    }
    Ok(o)
}

fn spec_of(o: &Options) -> CorpusSpec {
    CorpusSpec {
        seed: o.seed,
        value_payload: o.payload,
        ..CorpusSpec::default()
    }
}

/// Store options derived from the command line: `--jobs` and `--strict`.
fn store_options(o: &Options) -> store::StoreOptions<'static> {
    store::StoreOptions {
        jobs: o.jobs.unwrap_or_else(store::default_load_jobs),
        strict: o.strict,
        ..store::StoreOptions::default()
    }
}

/// Open a corpus directory through the binary snapshot cache: a valid
/// `corpus.snapshot` memory-loads, anything else falls back to a
/// (parallel) parse of the RDF sources and rewrites the snapshot.
/// Unparsable files are quarantined (reported, not fatal) unless
/// `--strict` is given.
fn open_dir_store(o: &Options, dir: &str) -> Result<store::CorpusStore, String> {
    let s = store::CorpusStore::open_or_build_opts(Path::new(dir), &store_options(o))
        .map_err(|e| format!("load {dir}: {e}"))?;
    if !s.ingest.is_clean() {
        eprintln!("warning: {} (see `provbench snapshot info`)", s.ingest);
    }
    if s.corpus.traces.is_empty() {
        return Err(format!("{dir} contains no corpus traces"));
    }
    Ok(s)
}

/// One-line description of where a store's data came from, for logs and
/// the endpoint's `/stats` route.
fn provenance_summary(p: &store::SnapshotProvenance) -> String {
    if p.warm {
        format!(
            "snapshot {} (warm, v{}, {} bytes)",
            p.path.display(),
            p.version,
            p.snapshot_bytes
        )
    } else {
        match &p.rebuild_reason {
            Some(reason) => format!("rebuilt from {} source files: {reason}", p.source_files),
            None => format!("parsed {} source files (snapshot written)", p.source_files),
        }
    }
}

fn corpus_graph(o: &Options) -> Result<(Graph, String), String> {
    match &o.dir {
        Some(dir) => {
            let s = open_dir_store(o, dir)?;
            let source = provenance_summary(&s.provenance);
            Ok((s.union, source))
        }
        None => Ok((
            Corpus::generate(&spec_of(o)).combined_graph(),
            format!("generated in memory (seed {})", o.seed),
        )),
    }
}

fn cmd_generate(o: &Options) -> Result<(), String> {
    let out = o.out.as_deref().ok_or("generate needs --out DIR")?;
    let corpus = Corpus::generate(&spec_of(o));
    let saved = store::save(&corpus, Path::new(out)).map_err(|e| format!("save {out}: {e}"))?;
    println!(
        "wrote {} files / {:.1} MB to {out} (seed {}, fingerprint {:016x})",
        saved.files,
        saved.bytes as f64 / (1024.0 * 1024.0),
        o.seed,
        corpus.fingerprint()
    );
    Ok(())
}

fn cmd_stats(o: &Options) -> Result<(), String> {
    let corpus = Corpus::generate(&spec_of(o));
    let stats = CorpusStats::compute(&corpus);
    println!("{}", Table1::from_stats(&stats));
    println!(
        "workflows {} · runs {} · failed {} · process runs {} · triples {}",
        stats.workflows, stats.runs, stats.failed_runs, stats.process_runs, stats.triples
    );
    println!("\nFigure 1 — domains:");
    for row in &stats.domain_histogram {
        println!(
            "  {:26} {}{}",
            row.name,
            "T".repeat(row.taverna),
            "W".repeat(row.wings)
        );
    }
    Ok(())
}

fn cmd_coverage(o: &Options) -> Result<(), String> {
    let corpus = Corpus::generate(&spec_of(o));
    print!("{}", coverage_of_corpus(&corpus));
    Ok(())
}

fn cmd_validate(o: &Options) -> Result<(), String> {
    let dir = o.dir.as_deref().ok_or("validate needs --dir DIR")?;
    let loaded = open_dir_store(o, dir)?.corpus;
    let mut bad = 0usize;
    for trace in &loaded.traces {
        let violations = validate(&trace.dataset.union_graph());
        if !violations.is_empty() {
            bad += 1;
            println!("✗ {}:", trace.run_id);
            for v in violations {
                println!("    {v}");
            }
        }
    }
    println!(
        "{} traces checked, {} with violations",
        loaded.traces.len(),
        bad
    );
    if bad > 0 {
        return Err(format!("{bad} traces violate PROV constraints"));
    }
    Ok(())
}

/// Render a parse error with its source location and a caret snippet
/// pointing at the offending token:
///
/// ```text
/// parse error at 12:7: expected a variable or term
///    12 | SELECT ?x WHERE { ?x a nope:y }
///       |       ^
/// ```
fn render_parse_error(source: &str, e: &QueryParseError) -> String {
    let mut out = format!("parse error at {e}");
    let Some(line) = source.lines().nth(e.line.saturating_sub(1)) else {
        return out;
    };
    let width = e.line.to_string().len().max(4);
    let carets = if e.end_line == e.line && e.end_column > e.column {
        e.end_column - e.column
    } else {
        1
    };
    out.push_str(&format!(
        "\n{:>width$} | {line}\n{:>width$} | {}{}",
        e.line,
        "",
        " ".repeat(e.column.saturating_sub(1)),
        "^".repeat(carets.max(1)),
    ));
    out
}

fn query_error(source: &str, e: QueryError) -> String {
    match e {
        QueryError::Parse(p) => render_parse_error(source, &p),
        other => other.to_string(),
    }
}

/// Run the query against a served endpoint instead of a local graph,
/// through the retrying [`Client`] (jittered backoff, honors
/// Retry-After, idempotent GETs only — see docs/query.md).
fn remote_query(url: &str, q: &str) -> Result<(), String> {
    let client = Client::new(url)?;
    let full = format!("{PREFIXES}\n{q}");
    let path = format!("/sparql?format=tsv&query={}", url_encode(&full));
    let response = client.get(&path).map_err(|e| format!("query {url}: {e}"))?;
    if response.status != 200 {
        return Err(format!(
            "endpoint answered {}: {}",
            response.status,
            response.text().trim()
        ));
    }
    print!("{}", response.text());
    eprintln!("(served by {url})");
    Ok(())
}

fn cmd_query(o: &Options) -> Result<(), String> {
    let q = o.positional.first().ok_or("query needs a SPARQL string")?;
    if let Some(url) = &o.endpoint {
        return remote_query(url, q);
    }
    let (graph, source) = corpus_graph(o)?;
    eprintln!("corpus: {source}");
    let full = format!("{PREFIXES}\n{q}");
    // Stream rows to stdout as the physical plan produces them — a
    // LIMITed query over a huge corpus prints (and finishes) without
    // ever materializing the full result set.
    let prepared = QueryEngine::new(&graph)
        .prepare(&full)
        .map_err(|e| query_error(&full, e))?;
    let rows = prepared.rows().map_err(|e| query_error(&full, e))?;
    let variables = rows.variables().to_vec();
    println!("{}", variables.join("\t"));
    let mut count = 0usize;
    for row in rows {
        let row = row.map_err(|e| query_error(&full, e))?;
        count += 1;
        let cells: Vec<String> = variables
            .iter()
            .map(|v| row.get(v).map_or("-".into(), |t| t.to_string()))
            .collect();
        println!("{}", cells.join("\t"));
    }
    eprintln!("{count} solutions over {} triples", graph.len());
    Ok(())
}

/// The endpoint configuration shared by both serve modes: the
/// `--drain-ms` graceful-shutdown deadline.
fn serve_config(o: &Options) -> ServerConfig {
    let mut config = ServerConfig::new();
    if let Some(ms) = o.drain_ms {
        config = config.drain_deadline(std::time::Duration::from_millis(ms));
    }
    config
}

/// Bind, install SIGTERM/Ctrl-C handlers, and serve until a shutdown is
/// requested; in-flight requests drain before this returns. Binding
/// before printing means `--addr 127.0.0.1:0` reports the actual port.
fn serve_endpoint(endpoint: &Endpoint, addr: &str) -> Result<(), String> {
    let listener = std::net::TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
    let local = listener.local_addr().map_err(|e| e.to_string())?;
    let shutdown = ShutdownSignal::new();
    if !shutdown.install_termination_handler() {
        eprintln!("warning: no SIGTERM/Ctrl-C handler on this platform; kill to stop");
    }
    eprintln!("listening on http://{local}/");
    endpoint
        .serve_with_shutdown(listener, &shutdown)
        .map_err(|e| e.to_string())?;
    eprintln!("shutdown: in-flight requests drained, exiting");
    Ok(())
}

fn cmd_serve(o: &Options) -> Result<(), String> {
    let Some(dir) = o.dir.clone() else {
        // In-memory corpus: nothing to watch, serve directly.
        let (graph, source) = corpus_graph(o)?;
        eprintln!("serving {} triples (corpus: {source})", graph.len());
        let endpoint = Endpoint::with_config(graph, serve_config(o).source(source));
        return serve_endpoint(&endpoint, &o.addr);
    };

    // Degraded-mode serving: bind and answer /healthz immediately, load
    // the corpus in the background (readiness flips when it lands), and
    // keep watching the source directory — a change to any source, as
    // the store's manifest decides it, triggers a reload while requests
    // keep being served from the old graph.
    let endpoint = Endpoint::unready(serve_config(o));
    let loader = endpoint.clone();
    let opts_jobs = o.jobs.unwrap_or_else(store::default_load_jobs);
    let strict = o.strict;
    let dir_path = PathBuf::from(&dir);
    std::thread::spawn(move || {
        use provbench::diag;

        // The sources the served graph came from, and those of them
        // that could not be read.
        let mut served: Option<(Manifest, Vec<String>)> = None;
        loop {
            // One stat per source; a read only for a file whose stat
            // moved (or that is racy, see `corpus::manifest`), or that
            // could not be read at the load.
            let files = store::source_files(&dir_path, &REAL_FS).ok();
            let stale = match (&files, &mut served) {
                (Some(files), Some((manifest, unreadable))) => {
                    store::check_sources(&dir_path, &REAL_FS, manifest, files, unreadable).is_err()
                }
                (files, _) => files.is_some(),
            };
            if stale {
                loader.set_rebuilding(true);
                // Lint the sources (with the corpus-wide rules) through
                // the lint cache beside them. Before the open, so only
                // the lint's reports outlive it into the corpus load.
                let lint = diag::lint_corpus_incremental(
                    &dir_path,
                    &diag::Registry::with_corpus_rules(),
                    &diag::CorpusLintOptions {
                        jobs: opts_jobs,
                        corpus_rules: true,
                        incremental: true,
                        cache_path: None,
                    },
                );
                let opts = store::StoreOptions {
                    jobs: opts_jobs,
                    strict,
                    ..store::StoreOptions::default()
                };
                match store::CorpusStore::open_or_build_opts(&dir_path, &opts) {
                    Ok(s) => {
                        // Only the union graph is served. A file that
                        // could not be read stays quarantined, and is
                        // retried at each poll, until it can be read.
                        drop(s.corpus);
                        let unreadable = s.ingest.errors.iter().filter(|e| e.io);
                        let unreadable = unreadable.map(|e| e.path.clone()).collect();
                        served = Some((s.manifest, unreadable));
                        let summary = provenance_summary(&s.provenance);
                        let quarantined = s.ingest.errors.len();
                        if quarantined > 0 {
                            eprintln!("warning: {}", s.ingest);
                        }
                        eprintln!("corpus loaded: {} triples ({summary})", s.union.len());
                        // Publish the lint report on `GET /lint`
                        // alongside the graph itself.
                        match lint {
                            Ok(outcome) => {
                                let reports = outcome.reports;
                                let (lint_errors, _, _) = diag::severity_counts(&reports);
                                loader
                                    .set_lint_report(diag::render_lint_json(&reports), lint_errors);
                                eprintln!(
                                    "lint report published: {} files, {} errors (GET /lint)",
                                    reports.len(),
                                    lint_errors
                                );
                            }
                            Err(e) => eprintln!("lint failed: {e}"),
                        }
                        loader.set_ingest_errors(quarantined);
                        loader.replace_graph(s.union, summary);
                    }
                    Err(e) => {
                        loader.set_rebuilding(false);
                        eprintln!("corpus load failed: {e}");
                        // Pin the stats the sources had: retry when one
                        // moves, not in a tight loop. A zero hash never
                        // matches, so a moved file reads as changed.
                        let records = files.iter().flatten().map(|f| SourceRecord {
                            path: f.rel.clone(),
                            stat: f.stat.unwrap_or_default(),
                            hash: 0,
                        });
                        let pinned = Manifest {
                            records: records.collect(),
                            stamp_ns: u64::MAX,
                        };
                        served = Some((pinned, Vec::new()));
                    }
                }
            }
            std::thread::sleep(std::time::Duration::from_secs(2));
        }
    });
    eprintln!("degraded until {dir} finishes loading; watch /readyz");
    serve_endpoint(&endpoint, &o.addr)
}

fn find_trace<'a>(
    corpus: &'a Corpus,
    run_id: &str,
) -> Result<&'a provbench::corpus::TraceRecord, String> {
    corpus
        .traces
        .iter()
        .find(|t| t.run_id == run_id)
        .ok_or_else(|| format!("no run {run_id:?} in the corpus (see `provbench stats`)"))
}

fn cmd_nquads(o: &Options) -> Result<(), String> {
    let out = o.out.as_deref().ok_or("nquads needs --out FILE")?;
    let corpus = Corpus::generate(&spec_of(o));
    let nq = store::export_nquads(&corpus);
    std::fs::write(out, &nq).map_err(|e| format!("write {out}: {e}"))?;
    println!("wrote {} bytes of N-Quads to {out}", nq.len());
    Ok(())
}

fn cmd_provn(o: &Options) -> Result<(), String> {
    let run_id = o.positional.first().ok_or("provn needs a RUN_ID")?;
    let corpus = Corpus::generate(&spec_of(o));
    let trace = find_trace(&corpus, run_id)?;
    let doc = graph_to_document(&trace.union_graph());
    print!("{}", write_provn(&doc));
    Ok(())
}

fn cmd_lineage(o: &Options) -> Result<(), String> {
    let run_id = o.positional.first().ok_or("lineage needs a RUN_ID")?;
    let corpus = Corpus::generate(&spec_of(o));
    let trace = find_trace(&corpus, run_id)?;
    let lineage = dependency_edges(&trace.union_graph());
    print!("{}", lineage.to_dot());
    Ok(())
}

fn cmd_ro(o: &Options) -> Result<(), String> {
    let template = o.positional.first().ok_or("ro needs a TEMPLATE name")?;
    let corpus = Corpus::generate(&spec_of(o));
    let manifest = research_object_for(&corpus, template)
        .ok_or_else(|| format!("no template {template:?}"))?;
    print!(
        "{}",
        provbench::rdf::write_turtle(&manifest, &provbench::rdf::PrefixMap::common())
    );
    Ok(())
}

fn cmd_provjson(o: &Options) -> Result<(), String> {
    let run_id = o.positional.first().ok_or("provjson needs a RUN_ID")?;
    let corpus = Corpus::generate(&spec_of(o));
    let trace = find_trace(&corpus, run_id)?;
    let doc = graph_to_document(&trace.union_graph());
    println!("{}", provbench::prov::write_provjson(&doc));
    Ok(())
}

fn cmd_timeline(o: &Options) -> Result<(), String> {
    let run_id = o.positional.first().ok_or("timeline needs a RUN_ID")?;
    let corpus = Corpus::generate(&spec_of(o));
    let trace = find_trace(&corpus, run_id)?;
    let run_iri = provbench::rdf::Iri::new_unchecked(format!(
        "{}workflow-run",
        provbench::taverna::run_base_iri(run_id)
    ));
    let tl = provbench::analysis::timeline_of(&trace.union_graph(), &run_iri)
        .ok_or("no timed process runs (Wings accounts record no activity times)")?;
    println!(
        "makespan {} ms · total work {} ms · parallelism {:.2}",
        tl.makespan_ms,
        tl.total_work_ms(),
        tl.parallelism()
    );
    let on_path = |p: &provbench::rdf::Iri| tl.critical_path.contains(p);
    for e in &tl.entries {
        println!(
            "{} {:6} ms  {}{}",
            e.started,
            e.duration_ms,
            e.process.as_str().rsplit('/').next().unwrap_or(""),
            if on_path(&e.process) {
                "  ← critical path"
            } else {
                ""
            }
        );
    }
    Ok(())
}

fn cmd_explain(o: &Options) -> Result<(), String> {
    let q = o
        .positional
        .first()
        .ok_or("explain needs a SPARQL string")?;
    let (graph, _source) = corpus_graph(o)?;
    let full = format!("{PREFIXES}\n{q}");
    let prepared = QueryEngine::new(&graph)
        .prepare(&full)
        .map_err(|e| query_error(&full, e))?;
    print!("{}", prepared.explain());
    eprintln!("(estimates computed over {} triples)", graph.len());
    Ok(())
}

fn cmd_interop(o: &Options) -> Result<(), String> {
    let corpus = Corpus::generate(&spec_of(o));
    print!("{}", provbench::analysis::interop_report(&corpus));
    Ok(())
}

/// Print the full catalog entry for one rule id (`--explain PB0104`).
fn explain_rule(id: &str) -> Result<(), String> {
    use provbench::diag;

    let doc = diag::rule_doc(id)
        .ok_or_else(|| format!("no rule {id:?} — ids run PB0001..PB0403, see docs/linting.md"))?;
    println!("{} — {}", doc.info.id, doc.info.slug);
    println!("severity:  {}", doc.info.severity);
    println!("summary:   {}", doc.info.summary);
    println!("rationale: {}", doc.rationale);
    println!("example:   {}", doc.example);
    Ok(())
}

/// Removes a scratch directory when dropped, on every return path.
struct RemoveOnDrop(PathBuf);

impl Drop for RemoveOnDrop {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Lint a path on disk, a corpus directory through its lint cache
/// (`--dir DIR` is `DIR --incremental`), or — with neither — the
/// generated corpus, written exactly as `provbench generate` writes it
/// into a temporary `corpus` directory. All three run the one driver,
/// `lint_corpus_incremental`.
fn cmd_lint(o: &Options) -> Result<(), String> {
    use provbench::diag;

    if let Some(id) = &o.explain_rule {
        return explain_rule(id);
    }

    let registry = if o.corpus_rules {
        diag::Registry::with_corpus_rules()
    } else {
        diag::Registry::with_default_rules()
    };
    let mut scratch = None;
    let (root, incremental) = match (o.positional.first(), &o.dir) {
        (Some(path), _) => (PathBuf::from(path), o.incremental),
        (None, Some(dir)) => (PathBuf::from(dir), true),
        (None, None) if o.incremental => {
            return Err("--incremental needs a PATH to lint (the snapshot lives beside it)".into())
        }
        (None, None) => {
            let tmp = std::env::temp_dir().join(format!("provbench-lint-{}", std::process::id()));
            let corpus = scratch.insert(RemoveOnDrop(tmp)).0.join("corpus");
            store::save(&Corpus::generate(&spec_of(o)), &corpus)
                .map_err(|e| format!("write {}: {e}", corpus.display()))?;
            (corpus, false)
        }
    };
    let opts = diag::CorpusLintOptions {
        jobs: o.jobs.unwrap_or_else(diag::default_jobs),
        corpus_rules: o.corpus_rules,
        incremental,
        cache_path: None,
    };
    let outcome = diag::lint_corpus_incremental(&root, &registry, &opts)
        .map_err(|e| format!("lint {}: {e}", root.display()))?;
    if incremental {
        eprintln!(
            "incremental lint: {} analyzed, {} cached ({})",
            outcome.analyzed,
            outcome.reused,
            outcome.cache_path.display()
        );
    }
    let mut reports = outcome.reports;

    if let Some(file) = &o.baseline {
        let text = std::fs::read_to_string(file).map_err(|e| format!("read {file}: {e}"))?;
        let suppressed = diag::apply_baseline(&mut reports, &diag::parse_baseline(&text));
        if suppressed > 0 {
            eprintln!("{suppressed} findings suppressed by baseline {file}");
        }
    }
    if let Some(file) = &o.write_baseline {
        let text = diag::format_baseline(&reports);
        let entries = text.lines().filter(|l| !l.starts_with('#')).count();
        std::fs::write(file, &text).map_err(|e| format!("write {file}: {e}"))?;
        println!("wrote baseline with {entries} fingerprints to {file}");
        return Ok(());
    }

    match o.format.as_str() {
        "text" => print!("{}", diag::render_text(&reports)),
        "json" | "jsonl" => print!("{}", diag::render_jsonl(&reports)),
        "sarif" => println!("{}", diag::render_sarif(&reports, &registry)),
        other => return Err(format!("unknown --format {other:?} (text|json|sarif)")),
    }
    let (errors, warnings, infos) = diag::severity_counts(&reports);
    let denied = match o.deny.as_str() {
        "error" => errors,
        "warning" | "warn" => errors + warnings,
        "info" => errors + warnings + infos,
        other => return Err(format!("unknown --deny {other:?} (error|warning|info)")),
    };
    if denied > 0 {
        return Err(format!(
            "{denied} findings at or above the --deny={} level",
            o.deny
        ));
    }
    Ok(())
}

/// `snapshot build` / `snapshot info`: manage the binary corpus cache.
fn cmd_snapshot(o: &Options) -> Result<(), String> {
    let action = o
        .positional
        .first()
        .map(String::as_str)
        .ok_or("snapshot needs an action: build | info")?;
    let dir = o.dir.as_deref().ok_or("snapshot needs --dir DIR")?;
    let opts = store_options(o);
    let s = match action {
        "build" => store::CorpusStore::build_opts(Path::new(dir), &opts)
            .map_err(|e| format!("build {dir}: {e}"))?,
        "info" => store::CorpusStore::open_or_build_opts(Path::new(dir), &opts)
            .map_err(|e| format!("open {dir}: {e}"))?,
        other => return Err(format!("unknown snapshot action {other:?} (build | info)")),
    };
    let p = &s.provenance;
    println!("snapshot: {}", p.path.display());
    if p.warm {
        println!(
            "status: warm (format v{}, {} bytes)",
            p.version, p.snapshot_bytes
        );
    } else {
        match &p.rebuild_reason {
            Some(reason) => println!("status: rebuilt ({reason})"),
            None => println!(
                "status: built (format v{}, {} bytes)",
                p.version, p.snapshot_bytes
            ),
        }
        if p.snapshot_bytes == 0 {
            println!("warning: snapshot could not be written (read-only directory?)");
        }
    }
    println!("source: {} files, {} bytes", p.source_files, p.source_bytes);
    println!(
        "corpus: {} traces + {} descriptions, {} triples, {} terms",
        s.corpus.traces.len(),
        s.corpus.descriptions.len(),
        s.union.len(),
        s.union.term_count()
    );
    if s.ingest.is_clean() {
        println!("ingest: clean ({} files attempted)", s.ingest.attempted);
        Ok(())
    } else {
        println!("ingest: {}", s.ingest);
        for e in &s.ingest.errors {
            println!("  quarantined: {e}");
        }
        // Quarantined files mean the served corpus is incomplete — make
        // that visible to scripts through the exit code.
        Err(format!("{}", s.ingest))
    }
}

fn cmd_usage(o: &Options) -> Result<(), String> {
    let corpus = Corpus::generate(&spec_of(o));
    let rows = term_usage(
        &corpus.system_graph(System::Taverna),
        &corpus.system_graph(System::Wings),
    );
    println!("{:26} {:>10} {:>10}", "PROV term", "Taverna", "Wings");
    for r in rows {
        println!(
            "{:26} {:>10} {:>10}",
            r.term, r.taverna_count, r.wings_count
        );
    }
    Ok(())
}

const USAGE: &str = "usage: provbench <command> [options]
  generate --out DIR [--seed N] [--payload N]   write the corpus to disk
  stats    [--seed N]                           Table 1 + Figure 1
  coverage [--seed N]                           Tables 2 and 3
  usage    [--seed N]                           per-term assertion counts
  lint     [PATH | --dir DIR] [--format text|json|sarif]   static-analyse corpus files
           [--baseline FILE] [--write-baseline FILE] [--deny LEVEL] [--jobs N]
           [--corpus-rules] [--incremental] [--explain PB0xxx]
           (--dir DIR: same as DIR --incremental;
            no PATH: writes the generated corpus (--seed, --payload) to a
            temporary `corpus` directory, lints it and removes it;
            --corpus-rules adds the cross-document PB021x pack,
            --incremental caches per-file results in corpus.lint.snapshot,
            --explain prints one rule's catalog entry and exits)
  validate --dir DIR                            PROV-constraint-check a corpus dir
  query 'SPARQL' [--dir DIR | --seed N] [--jobs N]   run SPARQL over the corpus
           (--jobs N: threads that parse the sources when --dir has no
            valid snapshot)
           [--endpoint URL] sends the query to a served endpoint instead,
            with jittered retries on transient failures (docs/query.md)
  serve    [--addr HOST:PORT] [--dir DIR] [--jobs N] SPARQL endpoint + web UI
           (with --dir: loads in the background on --jobs threads;
            /healthz + /readyz report state;
            SIGTERM/Ctrl-C drains in-flight requests before exiting —
            --drain-ms MS bounds the drain, default 5000)
  nquads   --out FILE [--seed N]                bulk N-Quads export
  provn    RUN_ID [--seed N]                    one trace as PROV-N
  provjson RUN_ID [--seed N]                    one trace as PROV-JSON
  timeline RUN_ID [--seed N]                    run timeline + critical path
  interop  [--seed N]                           cross-system capability report
  lineage  RUN_ID [--seed N]                    one trace's lineage as DOT
  ro       TEMPLATE [--seed N]                  research-object manifest (Turtle)
  explain 'SPARQL' [--dir DIR | --seed N]       show the evaluation plan + estimates
  snapshot build|info --dir DIR [--jobs N]      build/inspect the binary corpus snapshot
           (query/serve/validate --dir load through it automatically;
            info exits non-zero if any source file is quarantined)
  --strict on any --dir command: fail fast on the first unparsable source
           file instead of quarantining it
  --trace FILE on any command: append JSONL span events (name, start_us,
           dur_us, thread) to FILE — see docs/observability.md";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let options = match parse_options(rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(path) = &options.trace {
        match std::fs::File::create(path) {
            Ok(file) => {
                provbench::obs::global().set_trace_writer(Box::new(std::io::BufWriter::new(file)))
            }
            Err(e) => {
                eprintln!("error: cannot open trace file {path}: {e}");
                return ExitCode::from(2);
            }
        }
    }
    let result = match cmd.as_str() {
        "generate" => cmd_generate(&options),
        "stats" => cmd_stats(&options),
        "coverage" => cmd_coverage(&options),
        "usage" => cmd_usage(&options),
        "lint" => cmd_lint(&options),
        "provjson" => cmd_provjson(&options),
        "timeline" => cmd_timeline(&options),
        "interop" => cmd_interop(&options),
        "explain" => cmd_explain(&options),
        "snapshot" => cmd_snapshot(&options),
        "validate" => cmd_validate(&options),
        "query" => cmd_query(&options),
        "serve" => cmd_serve(&options),
        "nquads" => cmd_nquads(&options),
        "provn" => cmd_provn(&options),
        "lineage" => cmd_lineage(&options),
        "ro" => cmd_ro(&options),
        other => {
            eprintln!("unknown command {other:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if options.trace.is_some() {
        // Flush buffered span events before the process exits.
        provbench::obs::global().clear_trace_writer();
    }
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
