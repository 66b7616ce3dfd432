//! `serve-exemplar` and `serve-join`: a real `provbench serve --dir`
//! process driven by an open-loop load generator, plus the traced
//! in-process replay of the same requests through the endpoint and
//! query crates.

use crate::trace::Tracer;
use crate::util::{fnv1a, mean, median, percentile, Rng, Zipf};
use crate::{open, Ctx, Report, Res};
use provbench_core::{store, Corpus, CorpusSpec, CorpusStore};
use provbench_endpoint::{
    parse_request, url_encode, BufConn, Client, ClientConfig, Endpoint, JsonRowsWriter,
    ServerConfig, TsvRowsWriter,
};
use provbench_query::exemplar::{self, PREFIXES};
use provbench_query::{parse_query, Bindings, QueryEngine};
use provbench_rdf::{Graph, Iri};
use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Which traffic mix a serve workload sends.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// The paper's §4 questions with Zipf-drawn parameters: small
    /// results, many distinct texts, mostly plan-cache misses.
    Exemplar,
    /// Five fixed texts around the adversarial join: large results,
    /// every request a plan-cache hit.
    Join,
}

/// Per-mix load settings.
struct Load {
    name: &'static str,
    /// Rate of the measured (end-to-end) step, req/s.
    low: f64,
    /// Rate of the loaded step of the traced run, req/s.
    high: f64,
    /// p99 latency limit for `serve.max_rps_slo`, ms.
    slo_ms: f64,
}

fn load_of(mix: Mix) -> Load {
    match mix {
        Mix::Exemplar => Load {
            name: "serve-exemplar",
            low: 60.0,
            high: 240.0,
            slo_ms: 10.0,
        },
        Mix::Join => Load {
            name: "serve-join",
            low: 75.0,
            high: 300.0,
            slo_ms: 50.0,
        },
    }
}

/// Server processes per run, each measured for one cold start and
/// `WARM_PER_SEGMENT` warm starts before it serves its share of the
/// low-rate traffic.
const SEGMENTS: usize = 8;
const WARM_PER_SEGMENT: usize = 2;
/// Requests per step of the traced run's high-rate step and capacity
/// ladder, so p99 has at least ten samples beyond it.
const STEP_REQUESTS: usize = 1000;

const JOIN_BODY: &str = "
  ?data ?p ?o .
  ?run prov:used ?data .
  ?run a wfprov:WorkflowRun .";

/// One distinct request of a mix.
pub struct Query {
    pub text: String,
    pub tsv: bool,
    /// `/sparql?...` path and query string.
    pub path: String,
}

impl Query {
    pub fn new(text: String, tsv: bool) -> Self {
        let mut path = format!("/sparql?query={}", url_encode(&text));
        if tsv {
            path.push_str("&format=tsv");
        }
        Query { text, tsv, path }
    }
}

/// The distinct queries of a mix plus a seeded request sequence over
/// them.
pub struct Traffic {
    pub queries: Vec<Query>,
    pub sequence: Vec<usize>,
}

/// Draw `n` requests of `mix` from `seed`. Exemplar parameters (template
/// names, run IRIs) are Zipf(1.0) over a seeded permutation.
pub fn traffic(mix: Mix, seed: u64, n: usize, templates: &[String], runs: &[Iri]) -> Traffic {
    let mut rng = Rng::new(seed ^ 0x7AFF_1C00);
    let mut queries: Vec<Query> = Vec::new();
    let mut index: HashMap<String, usize> = HashMap::new();
    let mut intern = |text: String, tsv: bool, queries: &mut Vec<Query>| -> usize {
        *index.entry(text.clone()).or_insert_with(|| {
            queries.push(Query::new(text, tsv));
            queries.len() - 1
        })
    };
    let mut sequence = Vec::with_capacity(n);
    match mix {
        Mix::Exemplar => {
            let template_order = rng.permutation(templates.len());
            let run_order = rng.permutation(runs.len());
            let template_zipf = Zipf::new(templates.len(), 1.0);
            let run_zipf = Zipf::new(runs.len(), 1.0);
            for _ in 0..n {
                let kind = rng.below(8);
                let template = &templates[template_order[template_zipf.sample(&mut rng)]];
                let run = &runs[run_order[run_zipf.sample(&mut rng)]];
                let text = match kind {
                    0 => exemplar::q1_sparql(),
                    1 => exemplar::q2_runs_sparql(template),
                    2 => exemplar::q2_failed_sparql(template),
                    3 => exemplar::q3_inputs_sparql(template),
                    4 => exemplar::q3_outputs_sparql(template),
                    5 => exemplar::q4_sparql(run),
                    6 => exemplar::q5_sparql(run),
                    _ => exemplar::q6_sparql(run),
                };
                sequence.push(intern(text, false, &mut queries));
            }
        }
        Mix::Join => {
            let fixed = [
                (format!("{PREFIXES}SELECT ?run ?data ?o WHERE {{{JOIN_BODY}\n}}"), false),
                (
                    format!("{PREFIXES}SELECT ?run ?data ?o WHERE {{{JOIN_BODY}\n}} LIMIT 10"),
                    false,
                ),
                (format!("{PREFIXES}ASK {{{JOIN_BODY}\n}}"), false),
                (exemplar::q1_sparql(), false),
                (
                    format!(
                        "{PREFIXES}SELECT ?run ?data WHERE {{ ?run prov:used ?data }} ORDER BY ?run ?data"
                    ),
                    true,
                ),
            ];
            let ids: Vec<usize> = fixed
                .into_iter()
                .map(|(text, tsv)| intern(text, tsv, &mut queries))
                .collect();
            for _ in 0..n {
                sequence.push(ids[rng.below(ids.len())]);
            }
        }
    }
    Traffic { queries, sequence }
}

/// A query's expected answer, evaluated in-process.
pub struct Expected {
    pub hash: u64,
    pub rows: usize,
}

/// Evaluate `q` on `graph` and serialize it with the writer the
/// endpoint uses for its format.
pub fn answer(graph: &Graph, q: &Query) -> Res<(String, usize)> {
    let prepared = QueryEngine::new(graph)
        .prepare(&q.text)
        .map_err(|e| format!("prepare: {e}"))?;
    let rows = prepared.rows().map_err(|e| format!("rows: {e}"))?;
    let vars = rows.variables().to_vec();
    let rows: Vec<Bindings> = rows
        .collect::<Result<_, _>>()
        .map_err(|e| format!("eval: {e}"))?;
    Ok((serialize(&vars, &rows, q.tsv), rows.len()))
}

fn serialize(vars: &[String], rows: &[Bindings], tsv: bool) -> String {
    if tsv {
        let mut w = TsvRowsWriter::new(vars);
        rows.iter().for_each(|r| w.push(r));
        w.finish()
    } else {
        let mut w = JsonRowsWriter::new(vars);
        rows.iter().for_each(|r| w.push(r));
        w.finish()
    }
}

/// A running `provbench serve` child; killed and reaped on drop.
pub struct Server {
    child: Child,
    pub base: String,
    /// Load progress read from the server's stderr.
    events: mpsc::Receiver<Event>,
    drain: Option<std::thread::JoinHandle<()>>,
}

/// What the server's stderr says about its start.
enum Event {
    Listening(String),
    /// The corpus is loaded and linted; readiness flips next.
    Loaded,
    LoadFailed(String),
}

impl Server {
    /// Spawn `provbench serve --dir DIR` on an ephemeral port and wait
    /// for its "listening on" line.
    pub fn spawn(provbench: &Path, dir: &Path) -> Res<Server> {
        let mut child = Command::new(provbench)
            .arg("serve")
            .arg("--dir")
            .arg(dir)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", provbench.display()))?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let (tx, events) = mpsc::channel();
        // Keep reading stderr for the life of the process so the server
        // never blocks on a full pipe.
        let drain = std::thread::spawn(move || {
            for line in BufReader::new(stderr).lines() {
                let Ok(line) = line else { break };
                let event = if let Some(rest) = line.strip_prefix("listening on http://") {
                    Event::Listening(rest.trim_end_matches('/').to_owned())
                } else if line.starts_with("lint report published") {
                    Event::Loaded
                } else if line.starts_with("corpus load failed") {
                    Event::LoadFailed(line)
                } else {
                    continue;
                };
                let _ = tx.send(event);
            }
        });
        let mut server = Server {
            child,
            base: String::new(),
            events,
            drain: Some(drain),
        };
        match server.events.recv_timeout(Duration::from_secs(60)) {
            Ok(Event::Listening(addr)) => server.base = format!("http://{addr}"),
            _ => return Err("provbench serve did not report its address".into()),
        }
        Ok(server)
    }

    /// Wait until the server reports its corpus loaded, then poll `path`
    /// every millisecond until it answers 200; returns the body. Polling
    /// only from then on keeps the probe from competing with the load
    /// for the machine's cores.
    pub fn first_answer(&self, path: &str) -> Res<Vec<u8>> {
        match self.events.recv_timeout(Duration::from_secs(150)) {
            Ok(Event::Loaded) => {}
            Ok(Event::LoadFailed(line)) => return Err(format!("provbench serve: {line}")),
            _ => return Err("provbench serve did not load its corpus within 150 s".into()),
        }
        let client = client(&self.base)?;
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match client.get(path) {
                Ok(r) if r.status == 200 => return Ok(r.body),
                Ok(r) if r.status == 503 => {}
                Ok(r) => return Err(format!("server answered {} while starting", r.status)),
                Err(e) => return Err(format!("server unreachable while starting: {e}")),
            }
            if Instant::now() > deadline {
                return Err("server not ready 30 s after loading its corpus".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Scrape `/metrics` into `series -> value`.
    pub fn metrics(&self) -> Res<BTreeMap<String, f64>> {
        let r = client(&self.base)?
            .get("/metrics")
            .map_err(|e| format!("GET /metrics: {e}"))?;
        Ok(r.text()
            .lines()
            .filter(|l| !l.starts_with('#'))
            .filter_map(|l| {
                let (series, value) = l.rsplit_once(' ')?;
                Some((series.to_owned(), value.parse().ok()?))
            })
            .collect())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(t) = self.drain.take() {
            let _ = t.join();
        }
    }
}

/// The load generator's client: one attempt, so a 503 is a failure and
/// never retried.
fn client(base: &str) -> Res<Client> {
    Client::with_config(
        base,
        ClientConfig {
            max_attempts: 1,
            timeout: Duration::from_secs(30),
            ..ClientConfig::default()
        },
    )
}

/// Measure `count` cold starts (snapshot deleted first) or warm starts,
/// each timed from spawn to the last byte of the first 200 answer to
/// Q1, whose body is fingerprinted. Returns the times and the last
/// server, still running.
pub fn starts(
    ctx: &Ctx,
    dir: &Path,
    q1: &Query,
    count: usize,
    cold: bool,
    q1_hashes: &mut Vec<u64>,
) -> Res<(Vec<f64>, Server)> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..count {
        drop(last.take());
        if cold {
            let _ = std::fs::remove_file(dir.join(provbench_core::snapshot::SNAPSHOT_FILE));
        }
        let t0 = Instant::now();
        let server = Server::spawn(&ctx.provbench, dir)?;
        let body = server.first_answer(&q1.path)?;
        times.push(t0.elapsed().as_secs_f64());
        q1_hashes.push(fnv1a(&body));
        last = Some(server);
    }
    Ok((times, last.expect("at least one start")))
}

/// What one open-loop step measured.
#[derive(Default)]
pub struct Step {
    /// Latency of each successful request from its scheduled send
    /// time, ms.
    pub latency_ms: Vec<f64>,
    /// How late each request was sent, ms: the backlog behind busy
    /// connections plus the generator's own lag.
    pub lateness_ms: Vec<f64>,
    /// The generator's own lag, ms: send time minus the later of the
    /// scheduled time and the moment a sender thread was free for it.
    pub send_lag_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub max_in_flight: usize,
    pub body_bytes: u64,
    pub duration_s: f64,
}

impl Step {
    fn passes(&self, slo_ms: f64) -> bool {
        self.failed == 0
            && percentile(&self.latency_ms, 99.0) <= slo_ms
            && percentile(&self.lateness_ms, 99.0) <= slo_ms
    }
}

/// Send the queries `requests` (indices into `traffic.queries`) as a
/// Poisson process of `rate` req/s, from `threads` sender threads each
/// holding at most one connection. Every 200 body is checked against
/// `expected`.
pub fn open_loop(
    base: &str,
    traffic: &Traffic,
    expected: &[Expected],
    requests: &[usize],
    rate: f64,
    threads: usize,
    seed: u64,
) -> Res<Step> {
    let n = requests.len();
    let mut rng = Rng::new(seed);
    let mut due = Vec::with_capacity(n);
    let mut t = 0.0;
    for _ in 0..n {
        t += rng.exp_secs(rate);
        due.push(Duration::from_secs_f64(t));
    }
    let next = AtomicUsize::new(0);
    let in_flight = AtomicUsize::new(0);
    let max_in_flight = AtomicUsize::new(0);
    let start = Instant::now() + Duration::from_millis(5);
    let client = client(base)?;
    let per_thread: Vec<Step> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let mut step = Step::default();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let scheduled = start + due[i];
                        let free = Instant::now();
                        if scheduled > free {
                            std::thread::sleep(scheduled - free);
                        }
                        let sent = Instant::now();
                        let ms = |d: Duration| d.as_secs_f64() * 1e3;
                        step.lateness_ms
                            .push(ms(sent.saturating_duration_since(scheduled)));
                        step.send_lag_ms
                            .push(ms(sent.saturating_duration_since(scheduled.max(free))));
                        let now_in = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                        max_in_flight.fetch_max(now_in, Ordering::SeqCst);
                        let qi = requests[i];
                        let result = client.get(&traffic.queries[qi].path);
                        in_flight.fetch_sub(1, Ordering::SeqCst);
                        let done = Instant::now();
                        step.attempted += 1;
                        match result {
                            Ok(r) if r.status == 200 && fnv1a(&r.body) == expected[qi].hash => {
                                step.body_bytes += r.body.len() as u64;
                                step.latency_ms
                                    .push(done.duration_since(scheduled).as_secs_f64() * 1e3);
                            }
                            Ok(r) => {
                                step.failed += 1;
                                step.failures.push(format!(
                                    "status {} ({} bytes) for query #{qi}",
                                    r.status,
                                    r.body.len()
                                ));
                            }
                            Err(e) => {
                                step.failed += 1;
                                step.failures.push(format!("query #{qi}: {e}"));
                            }
                        }
                    }
                    step
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sender thread panicked"))
            .collect()
    });
    let mut step = Step {
        duration_s: start.elapsed().as_secs_f64(),
        max_in_flight: max_in_flight.load(Ordering::SeqCst),
        ..Step::default()
    };
    for s in per_thread {
        step.merge(s);
    }
    Ok(step)
}

impl Step {
    /// Pool another step's samples and counts into this one.
    fn merge(&mut self, other: Step) {
        self.latency_ms.extend(other.latency_ms);
        self.lateness_ms.extend(other.lateness_ms);
        self.send_lag_ms.extend(other.send_lag_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
        self.body_bytes += other.body_bytes;
        self.duration_s += other.duration_s;
        self.max_in_flight = self.max_in_flight.max(other.max_in_flight);
    }
}

/// Generate and save the paper's corpus (its default spec: 120
/// workflows, 198 runs) with `payload` filler bytes per value. The seed
/// shifts the corpus clock by whole days, so every seed gets different
/// timestamp terms in a corpus of the same shape and size. Returns the
/// template names.
pub fn write_corpus(
    dir: &Path,
    seed: u64,
    payload: usize,
    report: &mut Report,
) -> Res<Vec<String>> {
    let default = CorpusSpec::default();
    let corpus = Corpus::generate(&CorpusSpec {
        value_payload: payload,
        corpus_start_ms: default.corpus_start_ms + (seed % 3650) as i64 * 86_400_000,
        ..default
    });
    let saved =
        store::save(&corpus, dir).map_err(|e| format!("save corpus to {}: {e}", dir.display()))?;
    report.param("corpus_payload", payload);
    report.param("corpus_files", saved.files);
    report.param("corpus_bytes", saved.bytes);
    Ok(corpus
        .templates
        .iter()
        .map(|(_, t)| t.name.clone())
        .collect())
}

/// Run IRIs of every run in the corpus (Q1's `?run` column).
fn run_iris(graph: &Graph) -> Vec<Iri> {
    exemplar::q1_runs(graph)
        .into_iter()
        .map(|r| r.run)
        .collect()
}

fn fold_step(report: &mut Report, step: &Step, label: &str) {
    report.attempted += step.attempted;
    report.failed += step.failed;
    for f in step.failures.iter().take(5) {
        report.gate_failures.push(format!("{label}: {f}"));
    }
}

pub fn run(ctx: &Ctx, mix: Mix) -> Res<Report> {
    let load = load_of(mix);
    let mut report = Report::default();
    let dir = ctx.work.join("corpus");
    let templates = write_corpus(&dir, ctx.seed, 0, &mut report)?;
    report.param("low_rps", load.low);
    report.param("slo_p99_ms", load.slo_ms);
    report.param("sender_threads", ctx.nproc);
    report.param("segments", SEGMENTS);
    report.param("warm_starts_per_segment", WARM_PER_SEGMENT);

    // The reference answers: the corpus opened in-process, cold (which
    // writes the snapshot) and then warm, as the server will open it.
    let options = store::StoreOptions::default();
    let open = || {
        CorpusStore::open_or_build_opts(&dir, &options)
            .map_err(|e| format!("open {}: {e}", dir.display()))
    };
    drop(open()?);
    let warm_store = open()?;
    report.gate(warm_store.provenance.warm, || {
        "reference open was not warm".into()
    });
    report.param("corpus_triples", warm_store.union.len());
    let graph = warm_store.union;
    let n_low = (load.low * ctx.seconds).ceil() as usize;
    let traffic = traffic(
        mix,
        ctx.seed,
        n_low.max(STEP_REQUESTS),
        &templates,
        &run_iris(&graph),
    );
    let mut expected = Vec::with_capacity(traffic.queries.len());
    for q in &traffic.queries {
        let (body, rows) = answer(&graph, q)?;
        expected.push(Expected {
            hash: fnv1a(body.as_bytes()),
            rows,
        });
    }
    report.param("distinct_queries", traffic.queries.len());
    let q1 = Query::new(exemplar::q1_sparql(), false);
    let q1_expected = fnv1a(answer(&graph, &q1)?.0.as_bytes());

    // The measured window is split into segments, each on a freshly
    // started server: one cold start, warm starts, then the segment's
    // share of the low-rate traffic. Start times and latencies are
    // pooled, so a slow spell of a shared machine weighs on every
    // metric alike instead of on whichever phase it happened to hit.
    let mut q1_hashes = Vec::new();
    let (mut cold, mut warm) = (Vec::new(), Vec::new());
    let mut low = Step::default();
    let per_segment = n_low.div_ceil(SEGMENTS);
    for seg in 0..SEGMENTS {
        let (t, server) = starts(ctx, &dir, &q1, 1, true, &mut q1_hashes)?;
        cold.extend(t);
        drop(server);
        let (t, server) = starts(ctx, &dir, &q1, WARM_PER_SEGMENT, false, &mut q1_hashes)?;
        warm.extend(t);
        let last = seg + 1 == SEGMENTS;
        let before = if ctx.trace && last {
            Some(server.metrics()?)
        } else {
            None
        };
        let requests = &traffic.sequence[seg * per_segment..((seg + 1) * per_segment).min(n_low)];
        let step = open_loop(
            &server.base,
            &traffic,
            &expected,
            requests,
            load.low,
            ctx.nproc,
            ctx.seed ^ (1 + seg as u64),
        )?;
        if let Some(before) = before {
            traced(
                ctx,
                &load,
                &server,
                &traffic,
                &expected,
                &step,
                &before,
                &mut report,
            )?;
        }
        low.merge(step);
    }
    fold_step(&mut report, &low, "low-rate step");
    for (i, h) in q1_hashes.iter().enumerate() {
        report.op(*h == q1_expected, || {
            format!("start #{i}: first Q1 body differs from the reference")
        });
    }

    // The generator shares the machine's cores with the server, so its
    // own lag is judged against the latency limit, not a fixed 1 ms.
    let send_lag_p99 = percentile(&low.send_lag_ms, 99.0);
    if send_lag_p99 > load.slo_ms / 4.0 {
        report.invalid.push(format!(
            "load generator fell behind at the low rate: send lag p99 {send_lag_p99:.3} ms > {} ms",
            load.slo_ms / 4.0
        ));
    }
    if low.max_in_flight > ctx.nproc {
        report.invalid.push(format!(
            "{} connections in flight, more than nproc = {}",
            low.max_in_flight, ctx.nproc
        ));
    }

    report.param("low_requests", low.attempted);
    report.metric("setup_s", median(&warm), "s");
    report.metric("cold_s", median(&cold), "s");
    // At the low rate requests seldom overlap, so the median is the
    // unloaded latency; it is set by the server's accept polling, not by
    // the machine's speed, and holds steady where CPU-bound times drift.
    let p50 = percentile(&low.latency_ms, 50.0);
    report.metric("unloaded_ms", p50, "ms");
    report.metric("p50_ms", p50, "ms");
    report.metric("p90_ms", percentile(&low.latency_ms, 90.0), "ms");
    report.metric("serve.p99_ms_low", percentile(&low.latency_ms, 99.0), "ms");
    report.metric(
        "loadgen.lateness_p99_ms",
        percentile(&low.lateness_ms, 99.0),
        "ms",
    );
    report.metric("loadgen.send_lag_p99_ms", send_lag_p99, "ms");
    report.metric("loadgen.max_in_flight", low.max_in_flight as f64, "count");

    if ctx.trace {
        replay(
            ctx,
            &dir,
            &graph,
            &traffic,
            &expected,
            &low,
            &mut report,
            load.name,
        )?;
        let warm_open = open::warm_opens(ctx, &dir, 3, &mut report)?;
        report.metric(
            "core.ready_minus_warm_open_s",
            median(&warm) - median(&warm_open),
            "s",
        );
    }
    report.metric("peak_rss_mb", crate::util::children_peak_rss_mb(), "MB");
    Ok(report)
}

fn delta(before: &BTreeMap<String, f64>, after: &BTreeMap<String, f64>, series: &str) -> f64 {
    after.get(series).copied().unwrap_or(0.0) - before.get(series).copied().unwrap_or(0.0)
}

/// The traced run's extra server-side measurements: server counters
/// over the last low-rate segment, the high-rate step, and the capacity
/// ladder.
#[allow(clippy::too_many_arguments)]
fn traced(
    ctx: &Ctx,
    load: &Load,
    server: &Server,
    traffic: &Traffic,
    expected: &[Expected],
    low: &Step,
    before: &BTreeMap<String, f64>,
    report: &mut Report,
) -> Res<()> {
    let after = &server.metrics()?;
    let hits = delta(before, after, "provbench_plan_cache_hits_total");
    let misses = delta(before, after, "provbench_plan_cache_misses_total");
    report.metric(
        "endpoint.plan_cache_hit_ratio",
        hits / (hits + misses).max(1.0),
        "ratio",
    );
    let busy = delta(
        before,
        after,
        "provbench_http_request_seconds_sum{route=\"/sparql\"}",
    );
    report.metric("endpoint.busy_frac", busy / low.duration_s, "ratio");
    let non_ok: f64 = after
        .keys()
        .filter(|k| k.starts_with("provbench_connections_total{") && !k.contains("result=\"ok\""))
        .map(|k| delta(before, after, k))
        .fold(0.0, |a, b| a + b);
    report.metric("endpoint.non_ok_conns", non_ok, "count");
    report.metric(
        "endpoint.response_kb",
        low.body_bytes as f64 / 1024.0 / low.latency_ms.len().max(1) as f64,
        "KB",
    );
    // Capacity: the high-rate step is the first rung of a x1.25 ladder
    // that climbs until a step misses the limit (at most six more
    // rungs), then bisects twice between the last pass and the miss.
    let run_step = |rate: f64, k: u64| {
        open_loop(
            &server.base,
            traffic,
            expected,
            &traffic.sequence[..STEP_REQUESTS],
            rate,
            ctx.nproc,
            ctx.seed ^ (16 + k),
        )
    };
    let high = run_step(load.high, 0)?;
    fold_step(report, &high, "high-rate step");
    report.param("high_rps", load.high);
    report.metric(
        "serve.p50_ms_high",
        percentile(&high.latency_ms, 50.0),
        "ms",
    );
    report.metric(
        "serve.p99_ms_high",
        percentile(&high.latency_ms, 99.0),
        "ms",
    );
    let ladder = |rate: f64, k: u64, report: &mut Report| -> Res<bool> {
        let s = run_step(rate, k)?;
        // Misses under overload are the point of the ladder; only wrong
        // answers count against correctness here.
        report.gate(s.failures.iter().all(|f| !f.contains("status 200")), || {
            format!("ladder step at {rate:.0} req/s returned a wrong 200 body")
        });
        Ok(s.passes(load.slo_ms))
    };
    let (mut rate, mut ok, mut pass) = (load.high, high.passes(load.slo_ms), 0.0);
    let mut rung = 0;
    while ok && rung < 6 {
        pass = rate;
        rate *= 1.25;
        rung += 1;
        ok = ladder(rate, rung, report)?;
    }
    if ok {
        pass = rate;
    } else {
        let (mut lo, mut hi) = (pass, rate);
        for k in 0..2 {
            let mid = (lo + hi) / 2.0;
            if ladder(mid, 100 + k, report)? {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        pass = lo;
    }
    report.metric("serve.max_rps_slo", pass, "req/s");
    Ok(())
}

/// The traced in-process replay: the store stages on this corpus, then
/// the low step's requests through `Endpoint::serve_conn` and through
/// each layer's public function in turn.
#[allow(clippy::too_many_arguments)]
fn replay(
    ctx: &Ctx,
    dir: &Path,
    graph: &Graph,
    traffic: &Traffic,
    expected: &[Expected],
    low: &Step,
    report: &mut Report,
    workload: &str,
) -> Res<()> {
    let mut tracer = Tracer::new(true);
    open::replay_store(ctx, dir, &mut tracer, report)?;

    let endpoint = Endpoint::with_config(graph.clone(), ServerConfig::new());
    let requests: Vec<usize> = traffic.sequence.iter().copied().take(1000).collect();
    let raw = |qi: usize| {
        format!(
            "GET {} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n",
            traffic.queries[qi].path
        )
    };
    let budget = Duration::from_secs_f64((ctx.seconds / 4.0).clamp(0.5, 5.0));

    // The same calls untraced, then traced: the difference is the
    // tracing overhead.
    let mut timings = [0.0f64; 2];
    let mut done = 0usize;
    for (pass, enabled) in [false, true].into_iter().enumerate() {
        tracer.enabled = enabled;
        let start = Instant::now();
        for (i, &qi) in requests.iter().enumerate() {
            if (pass == 0 && start.elapsed() > budget) || (pass == 1 && i >= done) {
                break;
            }
            let q = &traffic.queries[qi];
            let hash = layered_request(&mut tracer, &endpoint, graph, q, &raw(qi), i as u64 + 1)?;
            if pass == 1 {
                report.op(hash == expected[qi].hash, || {
                    format!("in-process replay of query #{qi} differs from the reference")
                });
            } else {
                done = i + 1;
            }
        }
        timings[pass] = start.elapsed().as_secs_f64();
    }
    report.metric(
        "trace.overhead_pct",
        (timings[1] - timings[0]) / timings[0] * 100.0,
        "%",
    );
    report.param("replayed_requests", done);

    let p50 = |name: &str| median(&tracer.durations_us(name));
    let serve_conn = p50("endpoint.serve_conn");
    report.metric("endpoint.serve_conn_us", serve_conn, "us");
    report.metric("endpoint.http_parse_us", p50("endpoint.http_parse"), "us");
    report.metric("endpoint.serialize_us", p50("endpoint.serialize"), "us");
    report.metric("query.parse_us", p50("query.parse"), "us");
    report.metric("query.open_us", p50("query.open"), "us");
    report.metric("query.first_row_us", p50("query.first_row"), "us");
    report.metric("query.drain_us", p50("query.drain"), "us");
    let rows: Vec<f64> = requests[..done]
        .iter()
        .map(|&qi| expected[qi].rows as f64)
        .collect();
    report.metric("query.rows_per_request", mean(&rows), "count");
    report.metric(
        "endpoint.conn_overhead_ms",
        percentile(&low.latency_ms, 50.0) - serve_conn / 1e3,
        "ms",
    );
    report.trace_jsonl = tracer.to_jsonl(workload);
    Ok(())
}

/// One request through every layer, each call its own child span of
/// the request's root; returns the fingerprint of the serialized body.
fn layered_request(
    t: &mut Tracer,
    endpoint: &Endpoint,
    graph: &Graph,
    q: &Query,
    raw: &str,
    id: u64,
) -> Res<u64> {
    let root = t.begin("request", id, None);
    let parent = Some(root);
    let mut conn = BufConn::request(raw.as_bytes().to_vec());
    let outcome = t.time("endpoint.serve_conn", id, parent, || {
        endpoint.serve_conn(&mut conn)
    });
    if outcome != "ok" || !conn.output().starts_with(b"HTTP/1.1 200") {
        // Fingerprint 0 never matches: counted as a failed request.
        t.end(root);
        return Ok(0);
    }
    let request = t
        .time("endpoint.http_parse", id, parent, || {
            parse_request(&mut raw.as_bytes())
        })
        .map_err(|e| format!("parse_request: {e}"))?;
    let text = request.param("query").unwrap_or_default().to_owned();
    let parsed = t
        .time("query.parse", id, parent, || parse_query(&text))
        .map_err(|e| format!("parse_query: {e}"))?;
    let engine = QueryEngine::new(graph);
    let mut rows = t
        .time("query.open", id, parent, || {
            engine.prepare_parsed(Arc::new(parsed)).rows()
        })
        .map_err(|e| format!("rows: {e}"))?;
    let vars = rows.variables().to_vec();
    let first = t.time("query.first_row", id, parent, || rows.next());
    let mut all: Vec<Bindings> = Vec::new();
    if let Some(first) = first {
        all.push(first.map_err(|e| format!("eval: {e}"))?);
    }
    t.time("query.drain", id, parent, || -> Res<()> {
        for row in &mut rows {
            all.push(row.map_err(|e| format!("eval: {e}"))?);
        }
        Ok(())
    })?;
    let body = t.time("endpoint.serialize", id, parent, || {
        serialize(&vars, &all, q.tsv)
    });
    t.end(root);
    Ok(fnv1a(body.as_bytes()))
}
