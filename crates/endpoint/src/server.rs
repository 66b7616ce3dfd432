//! The endpoint itself: route dispatch, the plan cache, health/readiness
//! state, the metrics registry behind `GET /metrics`, and the bounded,
//! panic-isolated serving loop — generic over the [`Conn`] transport,
//! with graceful shutdown via [`ShutdownSignal`].

use crate::http::{parse_request, Request, Response};
use crate::net::{Conn, DeadlineReader};
use crate::results::{JsonRowsWriter, TsvRowsWriter};
use provbench_obs::{Counter, Gauge, Registry, LATENCY_BUCKETS};
use provbench_query::sparql::ast::Query;
use provbench_query::{parse_query, EvalOptions, QueryEngine, QueryError, QueryParseError};
use provbench_rdf::Graph;
use std::collections::HashMap;
use std::io;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Counter of served requests (`method`, `route`, `status` labels).
const HTTP_REQUESTS_TOTAL: &str = "provbench_http_requests_total";
/// Histogram of request wall-clock time, by normalized route.
const HTTP_REQUEST_SECONDS: &str = "provbench_http_request_seconds";
/// Counter of connections, by final outcome (`result` label): exactly
/// one increment per connection the server touched, so a failure that
/// never produced a countable HTTP response is still accounted for.
const CONNECTIONS_TOTAL: &str = "provbench_connections_total";
/// Counter of socket-option (`setsockopt`) failures on accepted
/// connections. Such a connection is closed, not served untimed.
const SOCKET_ERRORS_TOTAL: &str = "provbench_socket_errors_total";
/// Histogram: how long the graceful-shutdown drain took (observed once
/// per [`Endpoint::serve_with_shutdown`] return).
const SHUTDOWN_DRAIN_SECONDS: &str = "provbench_shutdown_drain_seconds";
/// Counter of request-handler panics survived by the worker pool.
const PANICS_TOTAL: &str = "provbench_panics_total";
/// Gauge: files quarantined by the live graph's ingest run.
const INGEST_ERRORS: &str = "provbench_ingest_errors";
/// Gauge: error-severity findings in the published lint report.
const LINT_ERRORS: &str = "provbench_lint_errors";
/// Counter of plan-cache hits.
const PLAN_CACHE_HITS: &str = "provbench_plan_cache_hits_total";
/// Counter of plan-cache misses (including unparsable queries).
const PLAN_CACHE_MISSES: &str = "provbench_plan_cache_misses_total";
/// Gauge: parsed plans currently cached.
const PLAN_CACHE_ENTRIES: &str = "provbench_plan_cache_entries";

/// Configuration for a served endpoint, built fluently:
///
/// ```
/// use provbench_endpoint::ServerConfig;
/// use std::time::Duration;
///
/// let config = ServerConfig::new()
///     .workers(4)
///     .queue_depth(16)
///     .timeout(Duration::from_secs(5))
///     .build();
/// ```
///
/// `build` normalizes the knobs (worker and queue counts are clamped to
/// at least 1) and is idempotent; constructors accept a not-yet-built
/// config and normalize it themselves.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Worker threads handling requests. Connections beyond
    /// `workers + queue_depth` are answered `503` immediately instead of
    /// spawning unbounded threads.
    pub(crate) workers: usize,
    /// Accepted connections that may wait for a free worker.
    pub(crate) queue_depth: usize,
    /// Per-request evaluation deadline; queries running longer answer
    /// `408`. Clients may lower (never raise) it per request with a
    /// `timeout=<ms>` parameter.
    pub(crate) query_timeout: Duration,
    /// Per-request cap on intermediate rows — a deterministic cost
    /// bound that trips even when the clock barely advances.
    pub(crate) row_budget: Option<u64>,
    /// Total budget for receiving one request, enforced as a deadline
    /// across every read (not per read — a slowloris client dribbling
    /// one byte per timeout would otherwise hold a worker forever). A
    /// client that has not delivered a complete request within this
    /// budget is answered `408`.
    pub(crate) read_timeout: Duration,
    /// Per-write socket timeout. A client that stops reading its
    /// response stalls a worker for at most this long before the write
    /// fails and is counted.
    pub(crate) write_timeout: Duration,
    /// Seconds advertised in `Retry-After` on `503` responses. `None`
    /// (the default) derives it: the estimated queue-clear time
    /// (`queue_depth / workers`, clamped to 1..=30 s) normally, the
    /// drain deadline while shutting down.
    pub(crate) retry_after: Option<Duration>,
    /// How long a graceful shutdown waits for in-flight requests before
    /// giving up on stragglers and returning anyway.
    pub(crate) drain_deadline: Duration,
    /// Expose `GET /debug/panic`, a route that panics inside the handler.
    /// Exists so the worker-pool panic isolation can be exercised from a
    /// real TCP client in tests; never enabled in production.
    pub(crate) debug_panic_route: bool,
    /// Metrics registry the endpoint records into and serves on
    /// `GET /metrics`. `None` = the process-wide global registry.
    pub(crate) registry: Option<Arc<Registry>>,
    /// Where the served graph came from, surfaced in `/stats`.
    pub(crate) source: Option<String>,
}

impl ServerConfig {
    /// The default configuration: 8 workers, 32 queued connections, 10s
    /// query deadline, 50M-row budget.
    pub fn new() -> Self {
        ServerConfig {
            workers: 8,
            queue_depth: 32,
            query_timeout: Duration::from_secs(10),
            row_budget: Some(50_000_000),
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            retry_after: None,
            drain_deadline: Duration::from_secs(5),
            debug_panic_route: false,
            registry: None,
            source: None,
        }
    }

    /// Worker threads handling requests.
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = n;
        self
    }

    /// Accepted connections that may wait for a free worker.
    pub fn queue_depth(mut self, n: usize) -> Self {
        self.queue_depth = n;
        self
    }

    /// Per-request evaluation deadline.
    pub fn timeout(mut self, t: Duration) -> Self {
        self.query_timeout = t;
        self
    }

    /// Per-request cap on intermediate rows (`None` = unbounded).
    pub fn row_budget(mut self, budget: Option<u64>) -> Self {
        self.row_budget = budget;
        self
    }

    /// Total budget for receiving one request (the slowloris deadline).
    pub fn read_timeout(mut self, t: Duration) -> Self {
        self.read_timeout = t;
        self
    }

    /// Per-write socket timeout.
    pub fn write_timeout(mut self, t: Duration) -> Self {
        self.write_timeout = t;
        self
    }

    /// Fix the `Retry-After` advertised on `503` responses instead of
    /// deriving it from queue depth / drain state.
    pub fn retry_after(mut self, t: Duration) -> Self {
        self.retry_after = Some(t);
        self
    }

    /// How long a graceful shutdown waits for in-flight requests.
    pub fn drain_deadline(mut self, t: Duration) -> Self {
        self.drain_deadline = t;
        self
    }

    /// Expose `GET /debug/panic` (test-only; see the field docs).
    pub fn debug_panic_route(mut self, enabled: bool) -> Self {
        self.debug_panic_route = enabled;
        self
    }

    /// Record metrics into `registry` instead of the process-wide
    /// [`provbench_obs::global`] one (test isolation; multiple endpoints
    /// in one process).
    pub fn registry(mut self, registry: Arc<Registry>) -> Self {
        self.registry = Some(registry);
        self
    }

    /// Where the served graph came from (e.g. "snapshot (warm)"),
    /// surfaced in `/stats`.
    pub fn source(mut self, source: impl Into<String>) -> Self {
        self.source = Some(source.into());
        self
    }

    /// Normalize the configuration: workers and queue depth are clamped
    /// to at least 1. Idempotent.
    pub fn build(mut self) -> Self {
        self.workers = self.workers.max(1);
        self.queue_depth = self.queue_depth.max(1);
        self
    }
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig::new()
    }
}

/// Parsed query plans an endpoint keeps, by query text.
const PLAN_CACHE_CAPACITY: usize = 64;

/// LRU cache of parsed query plans keyed by query text. "Recency" is a
/// monotone stamp bumped on every hit; eviction drops the smallest.
struct PlanCache {
    capacity: usize,
    tick: u64,
    entries: HashMap<String, (Arc<Query>, u64)>,
}

impl PlanCache {
    fn new(capacity: usize) -> Self {
        PlanCache {
            capacity,
            tick: 0,
            entries: HashMap::new(),
        }
    }

    fn get(&mut self, text: &str) -> Option<Arc<Query>> {
        self.tick += 1;
        let tick = self.tick;
        self.entries.get_mut(text).map(|(plan, stamp)| {
            *stamp = tick;
            Arc::clone(plan)
        })
    }

    fn insert(&mut self, text: String, plan: Arc<Query>) {
        if self.entries.len() >= self.capacity && !self.entries.contains_key(&text) {
            if let Some(oldest) = self
                .entries
                .iter()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(k, _)| k.clone())
            {
                self.entries.remove(&oldest);
            }
        }
        self.tick += 1;
        self.entries.insert(text, (plan, self.tick));
    }

    fn len(&self) -> usize {
        self.entries.len()
    }
}

/// Liveness and readiness state shared by every clone of an
/// [`Endpoint`] (the serving loop clones one per worker). Operational
/// counts that belong on `/metrics` too (panics, quarantined files,
/// lint errors, plan-cache traffic) live in [`EndpointMetrics`] instead,
/// so `/stats`, `/readyz` and `/metrics` read one source of truth.
#[derive(Debug, Default)]
struct Health {
    /// A corpus graph is loaded and the endpoint may answer queries.
    ready: AtomicBool,
    /// A background rebuild is in flight. Informational only: while a
    /// previously loaded graph is being served, a rebuild does not make
    /// the endpoint unready.
    rebuilding: AtomicBool,
    /// A graceful shutdown is in progress: `/readyz` answers `503` with
    /// `"draining":true` so load balancers stop routing here, and
    /// `/sparql` refuses new queries while in-flight ones finish.
    draining: AtomicBool,
    /// Connections accepted into the worker queue and not yet answered.
    inflight: Mutex<usize>,
    /// Notified when `inflight` drops to 0, for the drain to wait on.
    idle: Condvar,
}

impl Health {
    /// One more connection in flight.
    fn begin(&self) {
        *lock(&self.inflight) += 1;
    }

    /// One connection fewer in flight; the last one wakes the drain.
    fn end(&self) {
        let mut inflight = lock(&self.inflight);
        *inflight -= 1;
        if *inflight == 0 {
            self.idle.notify_all();
        }
    }

    /// Block until nothing is in flight or `deadline` passes; whether
    /// nothing is.
    fn wait_idle(&self, deadline: Instant) -> bool {
        let mut inflight = lock(&self.inflight);
        while *inflight > 0 {
            let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                return false;
            };
            inflight = self
                .idle
                .wait_timeout(inflight, left)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
        true
    }
}

/// The endpoint's registry plus pre-registered handles for the metrics
/// it records on hot paths (handles are lock-free to bump).
struct EndpointMetrics {
    registry: Arc<Registry>,
    panics: Arc<Counter>,
    socket_errors: Arc<Counter>,
    ingest_errors: Arc<Gauge>,
    lint_errors: Arc<Gauge>,
    plan_hits: Arc<Counter>,
    plan_misses: Arc<Counter>,
    plan_entries: Arc<Gauge>,
}

impl EndpointMetrics {
    fn new(registry: Arc<Registry>) -> Self {
        let panics = registry.counter(
            PANICS_TOTAL,
            "Request-handler panics caught (and survived) by the worker pool",
        );
        let socket_errors = registry.counter(
            SOCKET_ERRORS_TOTAL,
            "Accepted connections closed because a socket option could not be set",
        );
        let ingest_errors = registry.gauge(
            INGEST_ERRORS,
            "Source files quarantined by the ingest run that produced the live graph",
        );
        let lint_errors = registry.gauge(
            LINT_ERRORS,
            "Error-severity findings in the published lint report",
        );
        let plan_hits = registry.counter(PLAN_CACHE_HITS, "Plan-cache lookups served from cache");
        let plan_misses = registry.counter(
            PLAN_CACHE_MISSES,
            "Plan-cache lookups that had to parse (including unparsable queries)",
        );
        let plan_entries = registry.gauge(PLAN_CACHE_ENTRIES, "Parsed plans currently cached");
        EndpointMetrics {
            registry,
            panics,
            socket_errors,
            ingest_errors,
            lint_errors,
            plan_hits,
            plan_misses,
            plan_entries,
        }
    }
}

/// Normalize a request path to a bounded route label so `/metrics`
/// cardinality cannot be driven by client-chosen paths.
fn route_label(path: &str) -> &'static str {
    match path {
        "/" => "/",
        "/sparql" => "/sparql",
        "/healthz" => "/healthz",
        "/readyz" => "/readyz",
        "/stats" => "/stats",
        "/lint" => "/lint",
        "/metrics" => "/metrics",
        _ => "other",
    }
}

/// Normalize a request method the same way.
fn method_label(method: &str) -> &'static str {
    match method {
        "GET" => "GET",
        "POST" => "POST",
        "HEAD" => "HEAD",
        _ => "other",
    }
}

/// Status code as a static label (every status the endpoint emits).
fn status_label(status: u16) -> &'static str {
    match status {
        200 => "200",
        400 => "400",
        404 => "404",
        408 => "408",
        500 => "500",
        503 => "503",
        _ => "other",
    }
}

/// Lock a mutex, recovering the guard if a previous holder panicked.
/// A panicking request handler must not take the whole endpoint down
/// with a poisoned plan cache or graph slot.
fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A shutdown request shared between the serving loop and whoever
/// triggers it — a signal handler, a test, or an embedder's control
/// plane. Cloning shares the request.
///
/// When it is requested, [`Endpoint::serve_with_shutdown`] switches to
/// draining: `/readyz` starts answering `503` with `"draining":true`,
/// in-flight requests run to completion (bounded by
/// [`ServerConfig::drain_deadline`]), and the serve call returns `Ok`.
/// Nothing polls for it: [`ShutdownSignal::wait`] blocks on a condition
/// variable that [`ShutdownSignal::request`] notifies.
#[derive(Clone, Debug, Default)]
pub struct ShutdownSignal {
    state: Arc<SignalState>,
}

#[derive(Debug, Default)]
struct SignalState {
    /// Set once, by `request` or by the signal handler.
    requested: AtomicBool,
    /// Held while setting `requested` and while checking it before a
    /// wait, so that no notification is lost.
    lock: Mutex<()>,
    changed: Condvar,
}

impl ShutdownSignal {
    /// A fresh, un-triggered signal.
    pub fn new() -> Self {
        ShutdownSignal::default()
    }

    /// Request shutdown and wake every [`wait`](ShutdownSignal::wait).
    /// Idempotent and callable from any thread, but not from a signal
    /// handler (it takes a lock): a signal reaches it through
    /// [`install_termination_handler`](ShutdownSignal::install_termination_handler).
    pub fn request(&self) {
        let _guard = lock(&self.state.lock);
        self.state.requested.store(true, Ordering::SeqCst);
        self.state.changed.notify_all();
    }

    /// Whether shutdown has been requested.
    pub fn is_requested(&self) -> bool {
        self.state.requested.load(Ordering::SeqCst)
    }

    /// Block until shutdown is requested.
    pub fn wait(&self) {
        let mut guard = lock(&self.state.lock);
        while !self.is_requested() {
            guard = self
                .state
                .changed
                .wait(guard)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Route `SIGTERM` and `SIGINT` (Ctrl-C) to this signal so a served
    /// process drains instead of dying mid-response. Returns whether
    /// the handlers are active for *this* signal: only the first signal
    /// instance in the process can own them (the handler target is a
    /// process-wide slot), and non-Unix platforms have none.
    ///
    /// A signal handler may only do async-signal-safe work, so on Unix
    /// the handler sets the flag and, for the first signal, writes one
    /// byte to a socket pair made here; a thread blocked reading the
    /// other end then calls [`request`](ShutdownSignal::request), which
    /// wakes every waiter. The handler is installed with `signal(2)`,
    /// whose restarting semantics leave a blocked `accept` blocked: the
    /// request, not the signal, ends serving.
    pub fn install_termination_handler(&self) -> bool {
        self.install_os_handlers()
    }

    #[cfg(unix)]
    fn install_os_handlers(&self) -> bool {
        use std::io::Read;
        use std::os::fd::IntoRawFd;
        use std::os::unix::net::UnixStream;
        use std::sync::atomic::AtomicI32;
        use std::sync::OnceLock;

        // The handler can only reach process-global state, and may do
        // nothing but async-signal-safe work: an atomic swap and, for
        // the first signal only, one `write(2)` of one byte, which
        // cannot block on an empty socket.
        static TARGET: OnceLock<Arc<SignalState>> = OnceLock::new();
        static WAKE_FD: AtomicI32 = AtomicI32::new(-1);
        extern "C" fn on_terminate(_signum: i32) {
            let fd = WAKE_FD.load(Ordering::SeqCst);
            if let Some(state) = TARGET.get() {
                if fd >= 0 && !state.requested.swap(true, Ordering::SeqCst) {
                    let byte = 1u8;
                    // SAFETY: `fd` is the write end of the socket pair,
                    // never closed once stored, and `byte` outlives the
                    // call, which reads one byte from it.
                    unsafe { write(fd, &byte, 1) };
                }
            }
        }

        type SigHandler = extern "C" fn(i32);
        extern "C" {
            fn signal(signum: i32, handler: SigHandler) -> usize;
            fn write(fd: i32, buf: *const u8, count: usize) -> isize;
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;

        let target = TARGET.get_or_init(|| Arc::clone(&self.state));
        if !Arc::ptr_eq(target, &self.state) {
            return false; // another signal instance owns the handlers
        }
        if WAKE_FD.load(Ordering::SeqCst) < 0 {
            let Ok((mut reader, writer)) = UnixStream::pair() else {
                return false;
            };
            // Never joined: it blocks in `read` until the first signal,
            // which may never come.
            let requester = self.clone();
            let spawned = std::thread::Builder::new()
                .name("shutdown-signal".into())
                .spawn(move || {
                    if reader.read_exact(&mut [0u8; 1]).is_ok() {
                        requester.request();
                    }
                });
            if spawned.is_err() {
                return false;
            }
            // The write end lives as long as the process: the handler
            // may run at any time.
            WAKE_FD.store(writer.into_raw_fd(), Ordering::SeqCst);
        }
        // SAFETY: `on_terminate` is an `extern "C" fn(i32)` that stays
        // valid for the life of the process and does only
        // async-signal-safe work.
        unsafe {
            signal(SIGINT, on_terminate);
            signal(SIGTERM, on_terminate);
        }
        true
    }

    #[cfg(not(unix))]
    fn install_os_handlers(&self) -> bool {
        false
    }
}

/// A SPARQL endpoint over one corpus graph. The graph is swappable at
/// runtime ([`Endpoint::replace_graph`]) so a background rebuild can
/// publish a fresh corpus while old requests finish against the
/// previous one.
#[derive(Clone)]
pub struct Endpoint {
    graph: Arc<Mutex<Arc<Graph>>>,
    config: ServerConfig,
    plans: Arc<Mutex<PlanCache>>,
    source: Arc<Mutex<Option<Arc<str>>>>,
    /// Pre-rendered JSON lint report for `GET /lint` — published by the
    /// loader (the endpoint itself stays ignorant of the linter).
    lint_report: Arc<Mutex<Option<Arc<str>>>>,
    health: Arc<Health>,
    metrics: Arc<EndpointMetrics>,
}

impl Endpoint {
    /// An endpoint serving the given graph with default configuration.
    pub fn new(graph: Graph) -> Self {
        Endpoint::with_config(graph, ServerConfig::new())
    }

    /// An endpoint with explicit configuration (a [`ServerConfig`], or
    /// anything convertible into one).
    pub fn with_config(graph: Graph, config: impl Into<ServerConfig>) -> Self {
        let ep = Endpoint::unready(config);
        *lock(&ep.graph) = Arc::new(graph);
        ep.health.ready.store(true, Ordering::SeqCst);
        ep
    }

    /// An endpoint with no corpus loaded yet: `/healthz` answers but
    /// `/readyz` and `/sparql` return `503` until [`replace_graph`]
    /// publishes a graph. This is how `provbench serve` starts when the
    /// corpus is still loading in the background.
    ///
    /// [`replace_graph`]: Endpoint::replace_graph
    pub fn unready(config: impl Into<ServerConfig>) -> Self {
        let config = config.into().build();
        let registry = config
            .registry
            .clone()
            .unwrap_or_else(|| Arc::clone(provbench_obs::global()));
        let source = config.source.clone().map(Arc::from);
        Endpoint {
            graph: Arc::new(Mutex::new(Arc::new(Graph::new()))),
            plans: Arc::new(Mutex::new(PlanCache::new(PLAN_CACHE_CAPACITY))),
            source: Arc::new(Mutex::new(source)),
            lint_report: Arc::new(Mutex::new(None)),
            health: Arc::new(Health::default()),
            metrics: Arc::new(EndpointMetrics::new(registry)),
            config,
        }
    }

    /// Atomically publish a new graph and mark the endpoint ready. In
    /// flight requests keep their `Arc` to the old graph; new requests
    /// see the new one. Clears the rebuilding flag.
    pub fn replace_graph(&self, graph: Graph, source: impl Into<String>) {
        *lock(&self.graph) = Arc::new(graph);
        *lock(&self.source) = Some(Arc::from(source.into()));
        self.health.ready.store(true, Ordering::SeqCst);
        self.health.rebuilding.store(false, Ordering::SeqCst);
    }

    /// Flag (or clear) an in-flight background rebuild. Readiness is
    /// unaffected while a previously published graph is being served.
    pub fn set_rebuilding(&self, rebuilding: bool) {
        self.health.rebuilding.store(rebuilding, Ordering::SeqCst);
    }

    /// Record how many source files the live graph's ingest run
    /// quarantined (surfaced by `/readyz`, `/stats` and `/metrics`).
    pub fn set_ingest_errors(&self, n: usize) {
        self.metrics.ingest_errors.set(n as i64);
    }

    /// Publish a pre-rendered JSON lint report (served verbatim by
    /// `GET /lint`) along with its error-severity finding count
    /// (surfaced by `/readyz`, `/stats` and `/metrics`). The loader
    /// renders the report; the endpoint only stores bytes.
    pub fn set_lint_report(&self, json: impl Into<String>, errors: usize) {
        *lock(&self.lint_report) = Some(Arc::from(json.into()));
        self.metrics.lint_errors.set(errors as i64);
    }

    /// Error-severity findings in the published lint report.
    pub fn lint_errors(&self) -> usize {
        self.metrics.lint_errors.get().max(0) as usize
    }

    /// Whether a corpus graph has been published.
    pub fn is_ready(&self) -> bool {
        self.health.ready.load(Ordering::SeqCst)
    }

    /// Request-handler panics survived by the worker pool so far.
    pub fn panics_total(&self) -> u64 {
        self.metrics.panics.get()
    }

    /// The currently published graph.
    fn graph(&self) -> Arc<Graph> {
        Arc::clone(&lock(&self.graph))
    }

    /// The active configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// The metrics registry this endpoint records into and serves on
    /// `GET /metrics`.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.metrics.registry
    }

    /// Number of parsed plans currently cached (exposed for tests and
    /// the `/stats` route).
    pub fn cached_plans(&self) -> usize {
        lock(&self.plans).len()
    }

    /// Handle one parsed request (exposed for tests).
    pub fn handle(&self, request: &Request) -> Response {
        match (request.method.as_str(), request.path.as_str()) {
            ("GET", "/") => Response::status(200)
                .content_type("text/html")
                .body(self.index_page()),
            ("GET", "/sparql") | ("POST", "/sparql") => self.sparql(request),
            ("GET", "/healthz") => Response::status(200).body("ok"),
            ("GET", "/readyz") => self.readyz(),
            ("GET", "/stats") => self.stats(),
            ("GET", "/lint") => self.lint(),
            ("GET", "/metrics") => Response::status(200)
                .content_type("text/plain; version=0.0.4")
                .body(self.metrics.registry.render_prometheus()),
            ("GET", "/debug/panic") if self.config.debug_panic_route => {
                panic!("debug panic route hit")
            }
            _ => Response::status(404).body("not found"),
        }
    }

    /// Record one served request into the registry. Called by the
    /// serving loop (both the worker pool and the acceptor's inline
    /// `503` path), so `/metrics` sees every answered connection.
    fn record_request(&self, method: &str, route: &str, status: u16, elapsed: Duration) {
        self.metrics
            .registry
            .counter_with(
                HTTP_REQUESTS_TOTAL,
                "HTTP requests served, by method, route and status",
                &[
                    ("method", method),
                    ("route", route),
                    ("status", status_label(status)),
                ],
            )
            .inc();
        self.metrics
            .registry
            .histogram_with(
                HTTP_REQUEST_SECONDS,
                "Request wall-clock time (parse to response), by route",
                LATENCY_BUCKETS,
                &[("route", route)],
            )
            .observe_duration(elapsed);
    }

    /// Seconds to advertise in `Retry-After` on a `503`. An explicit
    /// [`ServerConfig::retry_after`] wins; otherwise, while draining,
    /// the drain deadline (after which this process is gone and a retry
    /// will land elsewhere); otherwise the estimated time for the
    /// worker pool to clear a full queue, clamped to 1..=30 s.
    fn retry_after_secs(&self) -> u64 {
        if let Some(t) = self.config.retry_after {
            return t.as_secs().max(1);
        }
        if self.health.draining.load(Ordering::SeqCst) {
            return self.config.drain_deadline.as_secs().clamp(1, 60);
        }
        let workers = self.config.workers as u64;
        (self.config.queue_depth as u64)
            .div_ceil(workers)
            .clamp(1, 30)
    }

    /// Attach the derived `Retry-After` to a `503` response.
    fn with_retry_after(&self, response: Response) -> Response {
        response.header("Retry-After", &self.retry_after_secs().to_string())
    }

    /// Readiness: `200` when a corpus is loaded, the worker pool has
    /// room and the endpoint is not draining; `503` otherwise. A
    /// background rebuild alone does not flip readiness — only the cold
    /// start (no graph published yet) does.
    fn readyz(&self) -> Response {
        let corpus_loaded = self.is_ready();
        let draining = self.health.draining.load(Ordering::SeqCst);
        let inflight = *lock(&self.health.inflight);
        let capacity = self.config.workers + self.config.queue_depth;
        let saturated = inflight >= capacity;
        let ready = corpus_loaded && !saturated && !draining;
        let body = format!(
            "{{\"ready\":{ready},\"corpus_loaded\":{corpus_loaded},\
             \"rebuilding\":{},\"draining\":{draining},\"saturated\":{saturated},\
             \"inflight\":{inflight},\"ingest_errors\":{},\"lint_errors\":{}}}",
            self.health.rebuilding.load(Ordering::SeqCst),
            self.metrics.ingest_errors.get(),
            self.metrics.lint_errors.get(),
        );
        let mut response = Response::status(if ready { 200 } else { 503 })
            .content_type("application/json")
            .body(body);
        if !ready {
            response = self.with_retry_after(response);
        }
        response
    }

    fn stats(&self) -> Response {
        let graph = self.graph();
        let source = match &*lock(&self.source) {
            Some(s) => format!(",\"source\":\"{}\"", escape_json(s)),
            None => String::new(),
        };
        let rows_emitted = self
            .metrics
            .registry
            .counter(
                provbench_query::plan::ROWS_EMITTED_TOTAL,
                "Solution rows emitted by query evaluations",
            )
            .get();
        Response::status(200)
            .content_type("application/json")
            .body(format!(
                "{{\"triples\":{},\"terms\":{},\"cached_plans\":{},\
                 \"rows_emitted_total\":{rows_emitted},\
                 \"ready\":{},\"rebuilding\":{},\"panics_total\":{},\
                 \"ingest_errors\":{},\"lint_errors\":{}{source}}}",
                graph.len(),
                graph.term_count(),
                self.cached_plans(),
                self.is_ready(),
                self.health.rebuilding.load(Ordering::SeqCst),
                self.panics_total(),
                self.metrics.ingest_errors.get(),
                self.metrics.lint_errors.get(),
            ))
    }

    /// The published lint report, verbatim; `503` until a loader calls
    /// [`Endpoint::set_lint_report`].
    fn lint(&self) -> Response {
        match &*lock(&self.lint_report) {
            Some(report) => Response::status(200)
                .content_type("application/json")
                .body(report.to_string()),
            None => self.with_retry_after(
                Response::status(503)
                    .content_type("application/json")
                    .body("{\"error\":\"no lint report published yet\"}"),
            ),
        }
    }

    /// Fetch the parsed plan for `text`, parsing and caching on miss.
    fn plan(&self, text: &str) -> Result<Arc<Query>, QueryParseError> {
        if let Some(plan) = lock(&self.plans).get(text) {
            self.metrics.plan_hits.inc();
            return Ok(plan);
        }
        self.metrics.plan_misses.inc();
        let plan = Arc::new(parse_query(text)?);
        let mut plans = lock(&self.plans);
        plans.insert(text.to_owned(), Arc::clone(&plan));
        self.metrics.plan_entries.set(plans.len() as i64);
        Ok(plan)
    }

    /// Evaluation options for one request: the configured deadline and
    /// row budget, with `timeout=<ms>` allowed to lower the deadline.
    fn request_options(&self, request: &Request) -> EvalOptions {
        let timeout = request
            .param("timeout")
            .and_then(|v| v.parse::<u64>().ok())
            .map(Duration::from_millis)
            .filter(|t| *t < self.config.query_timeout)
            .unwrap_or(self.config.query_timeout);
        let mut opts = EvalOptions::default().with_timeout(timeout);
        opts.row_budget = self.config.row_budget;
        opts
    }

    fn sparql(&self, request: &Request) -> Response {
        if self.health.draining.load(Ordering::SeqCst) {
            // Refuse new queries during a graceful shutdown; probes and
            // /metrics keep answering so the drain stays observable.
            return self.with_retry_after(
                Response::status(503)
                    .content_type("application/json")
                    .body("{\"error\":\"draining\",\"message\":\"server is shutting down\"}"),
            );
        }
        if !self.is_ready() {
            return self.with_retry_after(
                Response::status(503)
                    .content_type("application/json")
                    .body("{\"error\":\"unavailable\",\"message\":\"corpus not loaded yet\"}"),
            );
        }
        // SPARQL protocol: GET ?query=… or POST with a form-encoded or
        // raw query body.
        let query = request.param("query").map(str::to_owned).or_else(|| {
            if request.method == "POST" {
                let body = request.body.trim();
                if let Some(rest) = body.strip_prefix("query=") {
                    Some(crate::http::url_decode(rest))
                } else if !body.is_empty() {
                    Some(body.to_owned())
                } else {
                    None
                }
            } else {
                None
            }
        });
        let Some(query) = query else {
            return Response::status(400).body("missing `query` parameter");
        };
        let plan = match self.plan(&query) {
            Ok(plan) => plan,
            Err(e) => return parse_error_response(&e),
        };
        let graph = self.graph();
        let engine = QueryEngine::with_options(&graph, self.request_options(request))
            .with_metrics(&self.metrics.registry);
        let prepared = engine.prepare_parsed(plan);
        let want_tsv =
            request.param("format") == Some("tsv") || request.accepts("text/tab-separated-values");
        // Serialize incrementally from the streaming row iterator:
        // each row goes straight into the serialized buffer instead of
        // materializing the whole solution set first, and `LIMIT`ed
        // queries stop evaluating once the limit is reached. The
        // status line is still decided only after the stream finishes,
        // so a mid-stream deadline or row-budget trip yields a clean
        // 408 under the existing write-timeout machinery — never a
        // truncated 200.
        let result = (|| -> Result<Response, QueryError> {
            let mut rows = prepared.rows()?;
            Ok(if want_tsv {
                let mut writer = TsvRowsWriter::new(rows.variables());
                for row in &mut rows {
                    writer.push(&row?);
                }
                Response::status(200)
                    .content_type("text/tab-separated-values")
                    .body(writer.finish())
            } else {
                let mut writer = JsonRowsWriter::new(rows.variables());
                for row in &mut rows {
                    writer.push(&row?);
                }
                Response::status(200)
                    .content_type("application/sparql-results+json")
                    .body(writer.finish())
            })
        })();
        match result {
            Ok(response) => response,
            Err(QueryError::Timeout(m)) => Response::status(408)
                .content_type("application/json")
                .body(format!(
                    "{{\"error\":\"timeout\",\"message\":\"{}\"}}",
                    escape_json(&m)
                )),
            Err(e) => Response::status(400).body(format!("query error: {e}")),
        }
    }

    fn index_page(&self) -> String {
        format!(
            r#"<!doctype html>
<html><head><title>ProvBench SPARQL endpoint</title></head>
<body>
<h1>ProvBench corpus SPARQL endpoint</h1>
<p>{} triples loaded. POST or GET <code>/sparql</code> with a
<code>query</code> parameter; results are SPARQL JSON
(<code>?format=tsv</code> for text).</p>
<form method="get" action="/sparql">
<textarea name="query" rows="10" cols="80">
PREFIX prov: &lt;http://www.w3.org/ns/prov#&gt;
PREFIX wfprov: &lt;http://purl.org/wf4ever/wfprov#&gt;
SELECT ?run ?start WHERE {{
  ?run a wfprov:WorkflowRun .
  OPTIONAL {{ ?run prov:startedAtTime ?start }}
}} LIMIT 10
</textarea><br>
<input type="hidden" name="format" value="tsv">
<input type="submit" value="Run query">
</form>
</body></html>"#,
            self.graph().len()
        )
    }

    /// Record a connection's final outcome — exactly one increment per
    /// connection the server touched — and return the label so the
    /// serving loop (and tests) can see it.
    fn record_conn(&self, result: &'static str) -> &'static str {
        self.metrics
            .registry
            .counter_with(
                CONNECTIONS_TOTAL,
                "Connections handled, by final outcome",
                &[("result", result)],
            )
            .inc();
        result
    }

    /// Serve one connection end to end: bound it, parse, dispatch,
    /// write — and account for every way that can fail. Returns the
    /// outcome label recorded in `provbench_connections_total`:
    ///
    /// * `"ok"` — a complete response was delivered (including `400`s
    ///   for malformed requests);
    /// * `"read_timeout"` — the request did not arrive within the
    ///   read-timeout budget; a `408` was attempted;
    /// * `"read_error"` — the connection died while reading; nothing
    ///   could be answered;
    /// * `"write_error"` — the response could not be fully written
    ///   (partial write, reset, or write timeout);
    /// * `"socket_error"` — a socket option could not be set; the
    ///   connection was closed unserved (and `socket_errors_total`
    ///   incremented).
    ///
    /// The invariant the chaos sweep leans on: exactly one
    /// `connections_total` increment per call, at most one
    /// `http_requests_total` increment, and a `"ok"` outcome means the
    /// peer holds a byte-complete response.
    pub fn serve_conn(&self, conn: &mut dyn Conn) -> &'static str {
        let start = Instant::now();
        // A socket we cannot bound is a socket we do not serve:
        // proceeding without timeouts would hand a hostile peer an
        // unbounded worker stall.
        if conn
            .set_read_timeout(Some(self.config.read_timeout))
            .is_err()
            || conn
                .set_write_timeout(Some(self.config.write_timeout))
                .is_err()
        {
            self.metrics.socket_errors.inc();
            return self.record_conn("socket_error");
        }
        let deadline = start + self.config.read_timeout;
        match parse_request(&mut DeadlineReader::new(conn, deadline)) {
            Ok(request) => {
                let method = method_label(&request.method);
                let route = route_label(&request.path);
                // Panic isolation: a handler panic is converted to a 500
                // and counted; the worker thread survives to serve the
                // next connection instead of silently shrinking the pool.
                let response = catch_unwind(AssertUnwindSafe(|| self.handle(&request)))
                    .unwrap_or_else(|_| {
                        self.metrics.panics.inc();
                        Response::status(500)
                            .body("internal server error: request handler panicked")
                    });
                self.record_request(method, route, response.status, start.elapsed());
                self.write_response(conn, &response)
            }
            Err(e) if e.kind() == io::ErrorKind::TimedOut => {
                // Slowloris or a stalled peer: answer 408 if the write
                // side still works, but the connection outcome is the
                // timeout either way.
                let response = Response::status(408)
                    .content_type("application/json")
                    .body("{\"error\":\"timeout\",\"message\":\"request not received within the read-timeout budget\"}");
                self.record_request("other", "other", 408, start.elapsed());
                let _ = conn
                    .write_all(&response.to_bytes())
                    .and_then(|()| conn.flush());
                self.record_conn("read_timeout")
            }
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                let response = Response::status(400).body(format!("bad request: {e}"));
                self.record_request("other", "other", 400, start.elapsed());
                self.write_response(conn, &response)
            }
            Err(_) => self.record_conn("read_error"),
        }
    }

    /// Write a response as one buffer so truncation is an error, not a
    /// torn response; record the connection outcome.
    fn write_response(&self, conn: &mut dyn Conn, response: &Response) -> &'static str {
        match conn
            .write_all(&response.to_bytes())
            .and_then(|()| conn.flush())
        {
            Ok(()) => self.record_conn("ok"),
            Err(_) => self.record_conn("write_error"),
        }
    }

    /// Answer a connection the worker queue has no room for: drain the
    /// request (with a bounded wait — closing with unread bytes resets
    /// the connection before the client can read our answer), write a
    /// `503` with the derived `Retry-After`, and count the rejection.
    fn reject_conn(&self, conn: &mut dyn Conn) {
        let start = Instant::now();
        let _ = conn.set_read_timeout(Some(Duration::from_millis(500)));
        let _ = conn.set_write_timeout(Some(self.config.write_timeout));
        let deadline = start + Duration::from_millis(500);
        let (method, route) = match parse_request(&mut DeadlineReader::new(conn, deadline)) {
            Ok(request) => (method_label(&request.method), route_label(&request.path)),
            Err(_) => ("other", "other"),
        };
        let response = self
            .with_retry_after(Response::status(503))
            .body("server busy, retry later");
        self.record_request(method, route, 503, start.elapsed());
        let _ = conn
            .write_all(&response.to_bytes())
            .and_then(|()| conn.flush());
        self.record_conn("rejected");
    }

    /// Serve forever on the given address with a bounded worker pool.
    pub fn serve(&self, addr: impl ToSocketAddrs) -> io::Result<()> {
        let listener = TcpListener::bind(addr)?;
        self.serve_on(listener)
    }

    /// Serve forever on an existing listener (no shutdown signal — see
    /// [`Endpoint::serve_with_shutdown`], which this runs with a signal
    /// nobody requests). `config.workers` threads drain a queue of at
    /// most `config.queue_depth` waiting connections; when the queue is
    /// full the acceptor answers `503` inline so the server's thread
    /// count stays fixed under any burst. The acceptor blocks in
    /// `accept`: an idle server does no work at all.
    pub fn serve_on(&self, listener: TcpListener) -> io::Result<()> {
        self.serve_with_shutdown(listener, &ShutdownSignal::new())
    }

    /// Serve on an existing listener until `shutdown` is requested, then
    /// drain gracefully and return `Ok`.
    ///
    /// An acceptor thread blocks in `accept` (the listener is put in
    /// blocking mode) and hands each connection to the worker pool;
    /// the calling thread blocks in [`ShutdownSignal::wait`]. Nothing
    /// sleeps or polls. The drain sequence:
    ///
    /// * `/readyz` flips to `503` + `"draining":true` and `/sparql`
    ///   refuses new queries. The acceptor keeps accepting, so a client
    ///   arriving during the drain gets that draining `503`, and probes
    ///   keep answering;
    /// * in-flight requests run to completion: the calling thread waits
    ///   on a condition variable that the last of them notifies,
    ///   bounded by [`ServerConfig::drain_deadline`];
    /// * the acceptor stops: one loopback connection to the listener
    ///   wakes it, and it closes that connection, and any other it
    ///   accepts from then on, unanswered and uncounted in
    ///   `provbench_connections_total`;
    /// * the drain duration lands in `provbench_shutdown_drain_seconds`,
    ///   the pool is joined when it drained in time, and the call
    ///   returns so the process can exit cleanly.
    ///
    /// If `accept` itself fails, the acceptor requests `shutdown`: the
    /// loop drains as above and returns that error.
    pub fn serve_with_shutdown(
        &self,
        listener: TcpListener,
        shutdown: &ShutdownSignal,
    ) -> io::Result<()> {
        listener.set_nonblocking(false)?;
        let wake_addr = loopback(listener.local_addr()?);
        let (tx, rx) = sync_channel::<Box<dyn Conn>>(self.config.queue_depth);
        let rx = Arc::new(Mutex::new(rx));
        let mut workers = Vec::with_capacity(self.config.workers);
        for _ in 0..self.config.workers {
            let endpoint = self.clone();
            let rx: Arc<Mutex<Receiver<Box<dyn Conn>>>> = Arc::clone(&rx);
            workers.push(std::thread::spawn(move || loop {
                let next = lock(&rx).recv();
                let Ok(mut conn) = next else {
                    break; // acceptor gone
                };
                endpoint.serve_conn(conn.as_mut());
                endpoint.health.end();
            }));
        }
        let stopped = Arc::new(AtomicBool::new(false));
        let acceptor = {
            let endpoint = self.clone();
            let stopped = Arc::clone(&stopped);
            let shutdown = shutdown.clone();
            std::thread::spawn(move || endpoint.accept_loop(&listener, &tx, &stopped, &shutdown))
        };

        shutdown.wait();
        self.health.draining.store(true, Ordering::SeqCst);
        let started = Instant::now();
        let deadline = started + self.config.drain_deadline;
        self.health.wait_idle(deadline);
        // Stop the acceptor. It has returned already if it stopped by
        // itself; otherwise one loopback connection wakes it from
        // `accept`. Should that fail, leave it blocked there rather than
        // hang the shutdown.
        let accepted = if stopped.swap(true, Ordering::SeqCst)
            || TcpStream::connect_timeout(&wake_addr, Duration::from_secs(1)).is_ok()
        {
            acceptor.join().unwrap_or(Ok(()))
        } else {
            Ok(())
        };
        // The acceptor is gone, so the queue ends once emptied. Join the
        // pool when everything drained, connections that raced the stop
        // included, so every response is flushed before the caller exits
        // the process. Past the deadline a straggler may still hold a
        // worker: leave the pool detached rather than hang the shutdown.
        if self.health.wait_idle(deadline) {
            for worker in workers {
                let _ = worker.join();
            }
        }
        self.metrics
            .registry
            .histogram(
                SHUTDOWN_DRAIN_SECONDS,
                "Graceful-shutdown drain duration",
                LATENCY_BUCKETS,
            )
            .observe_duration(started.elapsed());
        accepted
    }

    /// The acceptor: hand each accepted connection to the worker queue,
    /// or answer `503` inline when the queue is full, until `stopped`.
    /// It stops by itself, setting `stopped` and requesting `shutdown`,
    /// when `accept` fails (and returns that error) or every worker is
    /// gone.
    fn accept_loop(
        &self,
        listener: &TcpListener,
        tx: &SyncSender<Box<dyn Conn>>,
        stopped: &AtomicBool,
        shutdown: &ShutdownSignal,
    ) -> io::Result<()> {
        let stop = || {
            stopped.store(true, Ordering::SeqCst);
            shutdown.request();
        };
        for stream in listener.incoming() {
            if stopped.load(Ordering::SeqCst) {
                return Ok(()); // the wake-up connection, or a late client
            }
            let stream = match stream {
                Ok(stream) => stream,
                Err(e) => {
                    stop();
                    return Err(e);
                }
            };
            self.health.begin();
            match tx.try_send(Box::new(stream)) {
                Ok(()) => {}
                Err(TrySendError::Full(mut conn)) => {
                    self.health.end();
                    self.reject_conn(conn.as_mut());
                }
                Err(TrySendError::Disconnected(_)) => {
                    self.health.end();
                    stop();
                    return Ok(());
                }
            }
        }
        Ok(())
    }
}

/// Where a connection to `local` lands: itself, or the loopback address
/// of its family when it is bound to every interface.
fn loopback(local: SocketAddr) -> SocketAddr {
    let ip = match local.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, local.port())
}

fn escape_json(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Render a parse error as a 400 with a machine-readable source span.
fn parse_error_response(e: &QueryParseError) -> Response {
    Response::status(400)
        .content_type("application/json")
        .body(format!(
            "{{\"error\":\"parse\",\"message\":\"{}\",\"line\":{},\"column\":{},\"end_line\":{},\"end_column\":{}}}",
            escape_json(&e.message),
            e.line,
            e.column,
            e.end_line,
            e.end_column,
        ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use provbench_rdf::parse_turtle;
    use std::io::{Read, Write};
    use std::net::TcpStream;

    fn endpoint() -> Endpoint {
        endpoint_with(ServerConfig::new())
    }

    /// Test endpoints get their own registry so metric assertions don't
    /// see traffic from other tests sharing the process-global one.
    fn endpoint_with(config: ServerConfig) -> Endpoint {
        let (g, _) = parse_turtle(
            r#"@prefix wfprov: <http://purl.org/wf4ever/wfprov#> .
               @prefix e: <http://e/> .
               e:r1 a wfprov:WorkflowRun . e:r2 a wfprov:WorkflowRun ."#,
        )
        .unwrap();
        Endpoint::with_config(g, config.registry(Arc::new(Registry::new())))
    }

    fn request(raw: &str) -> Request {
        parse_request(&mut raw.as_bytes()).unwrap()
    }

    #[test]
    fn index_and_stats() {
        let ep = endpoint();
        let r = ep.handle(&request("GET / HTTP/1.1\r\n\r\n"));
        assert_eq!(r.status, 200);
        assert!(r.body.contains("SPARQL endpoint"));
        let r = ep.handle(&request("GET /stats HTTP/1.1\r\n\r\n"));
        assert!(r.body.contains("\"triples\":2"));
        let r = ep.handle(&request("GET /nope HTTP/1.1\r\n\r\n"));
        assert_eq!(r.status, 404);
    }

    #[test]
    fn get_query_json() {
        let ep = endpoint();
        let q = crate::http::url_encode(
            "PREFIX wfprov: <http://purl.org/wf4ever/wfprov#> SELECT ?r WHERE { ?r a wfprov:WorkflowRun }",
        );
        let r = ep.handle(&request(&format!("GET /sparql?query={q} HTTP/1.1\r\n\r\n")));
        assert_eq!(r.status, 200, "{}", r.body);
        assert_eq!(r.content_type, "application/sparql-results+json");
        assert!(r.body.contains("http://e/r1"));
    }

    #[test]
    fn streamed_body_matches_materialized_serialization() {
        // The streamed /sparql body must byte-equal serializing a full
        // select() of the same query — the golden-body contract the CI
        // serve-smoke also checks over HTTP.
        let ep = endpoint();
        let text = "PREFIX wfprov: <http://purl.org/wf4ever/wfprov#> \
                    SELECT ?r ?t WHERE { ?r a ?t . ?r a wfprov:WorkflowRun } ORDER BY ?r";
        let q = crate::http::url_encode(text);
        for format in ["", "&format=tsv"] {
            let r = ep.handle(&request(&format!(
                "GET /sparql?query={q}{format} HTTP/1.1\r\n\r\n"
            )));
            assert_eq!(r.status, 200, "{}", r.body);
            let graph = ep.graph();
            let solutions = QueryEngine::new(&graph)
                .prepare(text)
                .unwrap()
                .select()
                .unwrap();
            let golden = if format.is_empty() {
                crate::results::solutions_to_json(&solutions)
            } else {
                crate::results::solutions_to_tsv(&solutions)
            };
            assert_eq!(r.body, golden);
        }
        // The rows the streams emitted are visible in /stats.
        let r = ep.handle(&request("GET /stats HTTP/1.1\r\n\r\n"));
        assert!(r.body.contains("\"rows_emitted_total\":4"), "{}", r.body);
    }

    #[test]
    fn post_raw_query_tsv() {
        let ep = endpoint();
        let body = "PREFIX wfprov: <http://purl.org/wf4ever/wfprov#> SELECT ?r WHERE { ?r a wfprov:WorkflowRun } ORDER BY ?r";
        let raw = format!(
            "POST /sparql?format=tsv HTTP/1.1\r\nContent-Length: {}\r\n\r\n{}",
            body.len(),
            body
        );
        let r = ep.handle(&request(&raw));
        assert_eq!(r.status, 200);
        assert_eq!(r.body.lines().count(), 3);
    }

    #[test]
    fn bad_query_is_400_with_span() {
        let ep = endpoint();
        let r = ep.handle(&request("GET /sparql?query=NOT+SPARQL HTTP/1.1\r\n\r\n"));
        assert_eq!(r.status, 400);
        assert_eq!(r.content_type, "application/json");
        assert!(r.body.contains("\"error\":\"parse\""), "{}", r.body);
        assert!(r.body.contains("\"line\":1"), "{}", r.body);
        assert!(r.body.contains("\"column\":"), "{}", r.body);
        let r = ep.handle(&request("GET /sparql HTTP/1.1\r\n\r\n"));
        assert_eq!(r.status, 400);
    }

    #[test]
    fn plan_cache_hits_and_evicts() {
        let ep = endpoint();
        let q = crate::http::url_encode("SELECT ?s WHERE { ?s ?p ?o }");
        assert_eq!(ep.cached_plans(), 0);
        ep.handle(&request(&format!("GET /sparql?query={q} HTTP/1.1\r\n\r\n")));
        assert_eq!(ep.cached_plans(), 1);
        // Same text again: served from cache, no growth.
        ep.handle(&request(&format!("GET /sparql?query={q} HTTP/1.1\r\n\r\n")));
        assert_eq!(ep.cached_plans(), 1);
        // Unparsable queries are not cached.
        ep.handle(&request("GET /sparql?query=NOT+SPARQL HTTP/1.1\r\n\r\n"));
        assert_eq!(ep.cached_plans(), 1);

        // The cache's traffic is mirrored on the registry.
        let rendered = ep.registry().render_prometheus();
        assert!(
            rendered.contains("provbench_plan_cache_hits_total 1"),
            "{rendered}"
        );
        assert!(
            rendered.contains("provbench_plan_cache_misses_total 2"),
            "{rendered}"
        );
        assert!(
            rendered.contains("provbench_plan_cache_entries 1"),
            "{rendered}"
        );

        // Eviction honours recency: with capacity 2, touching `a` makes
        // `b` the eviction victim.
        let mut cache = PlanCache::new(2);
        let plan = |text: &str| Arc::new(parse_query(text).unwrap());
        cache.insert("a".into(), plan("SELECT ?a WHERE { ?a ?p ?o }"));
        cache.insert("b".into(), plan("SELECT ?b WHERE { ?b ?p ?o }"));
        assert!(cache.get("a").is_some());
        cache.insert("c".into(), plan("SELECT ?c WHERE { ?c ?p ?o }"));
        assert_eq!(cache.len(), 2);
        assert!(cache.get("b").is_none(), "least-recent entry evicted");
        assert!(cache.get("a").is_some());
        assert!(cache.get("c").is_some());
    }

    #[test]
    fn exhausted_budget_is_408() {
        let (g, _) = parse_turtle(
            r#"@prefix e: <http://e/> .
               e:a e:p e:b . e:b e:p e:c . e:c e:p e:d . e:d e:p e:e ."#,
        )
        .unwrap();
        let ep = Endpoint::with_config(
            g,
            ServerConfig::new()
                .row_budget(Some(3))
                .registry(Arc::new(Registry::new())),
        );
        let q = crate::http::url_encode("SELECT * WHERE { ?a ?b ?c . ?d ?e ?f }");
        let r = ep.handle(&request(&format!("GET /sparql?query={q} HTTP/1.1\r\n\r\n")));
        assert_eq!(r.status, 408, "{}", r.body);
        assert!(r.body.contains("\"error\":\"timeout\""), "{}", r.body);
        // The timed-out evaluation is visible on the registry.
        let rendered = ep.registry().render_prometheus();
        assert!(
            rendered.contains("provbench_query_evals_total{result=\"timeout\"} 1"),
            "{rendered}"
        );
    }

    #[test]
    fn timeout_param_cannot_raise_configured_limit() {
        let ep = Endpoint::with_config(
            Graph::new(),
            ServerConfig::new().timeout(Duration::from_millis(50)),
        );
        let req = request("GET /sparql?timeout=10&query=x HTTP/1.1\r\n\r\n");
        let opts = ep.request_options(&req);
        assert!(opts.deadline.is_some());
        // Larger than configured: clamped back to the 50ms limit.
        let req = request("GET /sparql?timeout=999999&query=x HTTP/1.1\r\n\r\n");
        let opts = ep.request_options(&req);
        let remaining = opts
            .deadline
            .unwrap()
            .saturating_duration_since(std::time::Instant::now());
        assert!(remaining <= Duration::from_millis(50), "{remaining:?}");
    }

    #[test]
    fn serves_concurrent_clients() {
        let ep = endpoint();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = ep.clone();
        std::thread::spawn(move || {
            let _ = server.serve_on(listener);
        });
        let handles: Vec<_> = (0..8)
            .map(|_| {
                std::thread::spawn(move || {
                    let mut stream = TcpStream::connect(addr).unwrap();
                    write!(stream, "GET /stats HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
                    let mut response = String::new();
                    stream.read_to_string(&mut response).unwrap();
                    assert!(response.contains("\"triples\":2"), "{response}");
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // Every concurrently-served request landed on the counter: the
        // atomics lose nothing under the full worker pool.
        let served = ep
            .registry()
            .counter_with(
                HTTP_REQUESTS_TOTAL,
                "HTTP requests served, by method, route and status",
                &[("method", "GET"), ("route", "/stats"), ("status", "200")],
            )
            .get();
        assert_eq!(served, 8);
    }

    #[test]
    fn serves_over_real_tcp() {
        let ep = endpoint();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            let _ = ep.serve_on(listener);
        });

        let mut stream = TcpStream::connect(addr).unwrap();
        let q = crate::http::url_encode(
            "SELECT ?r WHERE { ?r a <http://purl.org/wf4ever/wfprov#WorkflowRun> }",
        );
        write!(stream, "GET /sparql?query={q} HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
        assert!(response.contains("http://e/r2"));
    }

    #[test]
    fn metrics_route_serves_prometheus_text() {
        let ep = endpoint();
        let q = crate::http::url_encode("SELECT ?s WHERE { ?s ?p ?o }");
        ep.handle(&request(&format!("GET /sparql?query={q} HTTP/1.1\r\n\r\n")));
        let r = ep.handle(&request("GET /metrics HTTP/1.1\r\n\r\n"));
        assert_eq!(r.status, 200);
        assert!(
            r.content_type.starts_with("text/plain"),
            "{}",
            r.content_type
        );
        // Query engine metrics flowed into the endpoint's registry.
        assert!(
            r.body
                .contains("# TYPE provbench_query_eval_seconds histogram"),
            "{}",
            r.body
        );
        assert!(
            r.body
                .contains("provbench_query_evals_total{result=\"ok\"} 1"),
            "{}",
            r.body
        );
        // Exposition shape: the +Inf bucket equals _count for each series.
        let inf = r
            .body
            .lines()
            .find(|l| l.starts_with("provbench_query_eval_seconds_bucket{le=\"+Inf\"}"))
            .expect("+Inf bucket line");
        let count = r
            .body
            .lines()
            .find(|l| l.starts_with("provbench_query_eval_seconds_count"))
            .expect("_count line");
        assert_eq!(
            inf.rsplit(' ').next().unwrap(),
            count.rsplit(' ').next().unwrap()
        );
    }

    #[test]
    fn server_config_builder_roundtrips() {
        let builder = ServerConfig::new().workers(3).queue_depth(7);
        let config = builder.clone().build();
        assert_eq!(config.workers, 3);
        assert_eq!(config.queue_depth, 7);
        // The Into bound accepts the builder directly.
        let ep = Endpoint::unready(builder);
        assert_eq!(ep.config().workers, 3);
    }

    #[test]
    fn stats_reports_source_when_set() {
        let ep = endpoint();
        let r = ep.handle(&request("GET /stats HTTP/1.1\r\n\r\n"));
        assert!(!r.body.contains("\"source\""), "{}", r.body);
        let ep = endpoint_with(ServerConfig::new().source("snapshot corpus.snapshot (warm)"));
        let r = ep.handle(&request("GET /stats HTTP/1.1\r\n\r\n"));
        assert!(
            r.body
                .contains("\"source\":\"snapshot corpus.snapshot (warm)\""),
            "{}",
            r.body
        );
    }

    #[test]
    fn malformed_request_gets_400_over_tcp() {
        let ep = endpoint();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            let _ = ep.serve_on(listener);
        });

        // POST whose body never arrives: declared 50 bytes, sent 4.
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(
            stream,
            "POST /sparql HTTP/1.1\r\nHost: t\r\nContent-Length: 50\r\n\r\nquer"
        )
        .unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 400"), "{response}");

        // Absurd Content-Length: rejected without allocation.
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(
            stream,
            "POST /sparql HTTP/1.1\r\nHost: t\r\nContent-Length: 999999999999\r\n\r\n"
        )
        .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 400"), "{response}");
    }

    /// A burst beyond `workers + queue_depth` must not grow threads: the
    /// overflow connections are answered `503` by the acceptor while
    /// every accepted request still completes.
    #[test]
    fn burst_beyond_pool_gets_503_not_threads() {
        // A graph big enough that the cross-join below takes real time
        // per request, keeping the single worker busy during the burst.
        let mut turtle = String::from("@prefix e: <http://e/> .\n");
        for i in 0..60 {
            turtle.push_str(&format!("e:s{i} e:p{} e:o{i} .\n", i % 7));
        }
        let (g, _) = parse_turtle(&turtle).unwrap();
        let registry = Arc::new(Registry::new());
        let ep = Endpoint::with_config(
            g,
            ServerConfig::new()
                .workers(1)
                .queue_depth(1)
                .registry(Arc::clone(&registry)),
        );
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            let _ = ep.serve_on(listener);
        });

        let slow = crate::http::url_encode(
            "SELECT (COUNT(*) AS ?n) WHERE { ?a ?b ?c . ?d ?e ?f . ?g ?h ?i }",
        );
        let client = |q: String| {
            std::thread::spawn(move || {
                let mut stream = TcpStream::connect(addr).unwrap();
                write!(stream, "GET /sparql?query={q} HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
                let mut response = String::new();
                stream.read_to_string(&mut response).unwrap();
                response
            })
        };

        // Occupy the worker, then fill the queue, then overflow.
        let busy = client(slow.clone());
        std::thread::sleep(Duration::from_millis(150));
        let queued = client(slow.clone());
        std::thread::sleep(Duration::from_millis(50));
        let overflow: Vec<_> = (0..6).map(|_| client(slow.clone())).collect();

        let responses: Vec<String> = overflow.into_iter().map(|h| h.join().unwrap()).collect();
        let rejected = responses
            .iter()
            .filter(|r| r.starts_with("HTTP/1.1 503"))
            .count();
        assert!(
            rejected >= 1,
            "expected at least one 503, got: {responses:?}"
        );
        for r in &responses {
            assert!(
                r.starts_with("HTTP/1.1 200") || r.starts_with("HTTP/1.1 503"),
                "unexpected response: {r}"
            );
        }
        // Every 503 is a complete, well-formed response: retry hint, a
        // Content-Length matching the body, and the body itself — all
        // read back before EOF, proving the acceptor never drops the
        // connection before the body is written.
        for r in responses.iter().filter(|r| r.starts_with("HTTP/1.1 503")) {
            assert!(r.contains("Retry-After: 1\r\n"), "{r}");
            let body = r.split("\r\n\r\n").nth(1).unwrap_or("");
            assert_eq!(body, "server busy, retry later", "{r}");
            assert!(
                r.contains(&format!("Content-Length: {}\r\n", body.len())),
                "{r}"
            );
        }
        // The occupied worker and the queued request still complete.
        assert!(busy.join().unwrap().starts_with("HTTP/1.1 200"));
        assert!(queued.join().unwrap().starts_with("HTTP/1.1 200"));
        // The rejections land on the request counter under status="503".
        let rendered = registry.render_prometheus();
        let line = rendered
            .lines()
            .find(|l| {
                l.starts_with("provbench_http_requests_total{") && l.contains("status=\"503\"")
            })
            .unwrap_or_else(|| panic!("no status=\"503\" counter in\n{rendered}"));
        let counted: usize = line.rsplit(' ').next().unwrap().parse().unwrap();
        assert!(counted >= rejected, "{line} but {rejected} rejections seen");
    }

    /// Hostile percent-escapes must never kill a worker. Before
    /// `url_decode` walked raw bytes, `%` followed by a multibyte
    /// character panicked inside `parse_request` — *outside* the
    /// handler's panic isolation — so the worker thread died and the
    /// connection dropped with no response at all.
    #[test]
    fn hostile_percent_escapes_get_responses_not_dropped_connections() {
        let ep = endpoint();
        let probe = ep.clone();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            let _ = ep.serve_on(listener);
        });

        // `%C3%A9` decodes to `é` (a parse error, but a valid request);
        // the rest are truncated or mid-character escapes.
        for (path, q) in [
            ("/sparql", "%C3%A9"),
            ("/query", "%C3%A9"),
            ("/sparql", "%"),
            ("/sparql", "%4"),
            ("/sparql", "%zz"),
            ("/sparql", "%E2%9C"),
            ("/sparql", "a%E2%9C%93%"),
            ("/sparql", "SELECT%20%E2%9C%93"),
        ] {
            let mut stream = TcpStream::connect(addr).unwrap();
            write!(stream, "GET {path}?query={q} HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
            let mut response = String::new();
            stream.read_to_string(&mut response).unwrap();
            assert!(
                response.starts_with("HTTP/1.1 400") || response.starts_with("HTTP/1.1 404"),
                "{path}?query={q} got: {response:?}"
            );
        }
        // A decodable query still works end to end after the onslaught.
        let good = crate::http::url_encode(
            "PREFIX wfprov: <http://purl.org/wf4ever/wfprov#> SELECT ?r WHERE { ?r a wfprov:WorkflowRun }",
        );
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(
            stream,
            "GET /sparql?query={good} HTTP/1.1\r\nHost: t\r\n\r\n"
        )
        .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 200"), "{response}");
        assert_eq!(probe.panics_total(), 0);
    }

    /// A multibyte query survives percent-encoding end to end: the
    /// SPARQL parser sees the decoded `✓` (and rejects it with a spanned
    /// parse error, not mojibake or a panic).
    #[test]
    fn multibyte_query_reaches_sparql_parser_as_utf8() {
        let ep = endpoint();
        let r = ep.handle(&request(
            "GET /sparql?query=SELECT%20%E2%9C%93 HTTP/1.1\r\n\r\n",
        ));
        assert_eq!(r.status, 400, "{}", r.body);
        assert!(r.body.contains("\"error\":\"parse\""), "{}", r.body);
        // A valid query with a multibyte literal goes the whole way.
        let q = crate::http::url_encode(
            "SELECT ?s WHERE { ?s ?p ?o FILTER (CONTAINS(STR(?o), \"✓\")) }",
        );
        let r = ep.handle(&request(&format!("GET /sparql?query={q} HTTP/1.1\r\n\r\n")));
        assert_eq!(r.status, 200, "{}", r.body);
        assert_eq!(ep.panics_total(), 0);
    }

    #[test]
    fn healthz_always_answers() {
        let ep = endpoint();
        let r = ep.handle(&request("GET /healthz HTTP/1.1\r\n\r\n"));
        assert_eq!(r.status, 200);
        assert_eq!(r.body, "ok");
        // Liveness holds even before any corpus is loaded.
        let ep = Endpoint::unready(ServerConfig::new());
        let r = ep.handle(&request("GET /healthz HTTP/1.1\r\n\r\n"));
        assert_eq!(r.status, 200);
    }

    #[test]
    fn unready_endpoint_rejects_queries_until_graph_published() {
        let ep = Endpoint::unready(ServerConfig::new().registry(Arc::new(Registry::new())));
        assert!(!ep.is_ready());

        let r = ep.handle(&request("GET /readyz HTTP/1.1\r\n\r\n"));
        assert_eq!(r.status, 503, "{}", r.body);
        assert!(r.body.contains("\"corpus_loaded\":false"), "{}", r.body);

        let q = crate::http::url_encode("SELECT ?s WHERE { ?s ?p ?o }");
        let r = ep.handle(&request(&format!("GET /sparql?query={q} HTTP/1.1\r\n\r\n")));
        assert_eq!(r.status, 503, "{}", r.body);
        assert!(r.body.contains("\"error\":\"unavailable\""), "{}", r.body);

        // Publishing a graph flips readiness; clones observe the swap.
        let clone = ep.clone();
        let (g, _) = parse_turtle(
            r#"@prefix wfprov: <http://purl.org/wf4ever/wfprov#> .
               @prefix e: <http://e/> .
               e:r1 a wfprov:WorkflowRun ."#,
        )
        .unwrap();
        ep.replace_graph(g, "background load");
        assert!(clone.is_ready());
        let r = clone.handle(&request("GET /readyz HTTP/1.1\r\n\r\n"));
        assert_eq!(r.status, 200, "{}", r.body);
        let q = crate::http::url_encode(
            "SELECT ?r WHERE { ?r a <http://purl.org/wf4ever/wfprov#WorkflowRun> }",
        );
        let r = clone.handle(&request(&format!("GET /sparql?query={q} HTTP/1.1\r\n\r\n")));
        assert_eq!(r.status, 200, "{}", r.body);
        assert!(r.body.contains("http://e/r1"));
        let r = clone.handle(&request("GET /stats HTTP/1.1\r\n\r\n"));
        assert!(
            r.body.contains("\"source\":\"background load\""),
            "{}",
            r.body
        );
    }

    #[test]
    fn rebuilding_with_loaded_graph_stays_ready() {
        let ep = endpoint();
        ep.set_rebuilding(true);
        ep.set_ingest_errors(3);
        let r = ep.handle(&request("GET /readyz HTTP/1.1\r\n\r\n"));
        assert_eq!(r.status, 200, "a served graph keeps us ready: {}", r.body);
        assert!(r.body.contains("\"rebuilding\":true"), "{}", r.body);
        assert!(r.body.contains("\"ingest_errors\":3"), "{}", r.body);
        // /readyz, /stats and /metrics all read the same gauge.
        let r = ep.handle(&request("GET /stats HTTP/1.1\r\n\r\n"));
        assert!(r.body.contains("\"ingest_errors\":3"), "{}", r.body);
        assert!(ep
            .registry()
            .render_prometheus()
            .contains("provbench_ingest_errors 3"));
        ep.set_rebuilding(false);
        let r = ep.handle(&request("GET /readyz HTTP/1.1\r\n\r\n"));
        assert!(r.body.contains("\"rebuilding\":false"), "{}", r.body);
    }

    #[test]
    fn lint_route_serves_published_report() {
        let ep = endpoint();
        let r = ep.handle(&request("GET /lint HTTP/1.1\r\n\r\n"));
        assert_eq!(r.status, 503, "no report yet: {}", r.body);
        assert!(r.body.contains("no lint report"), "{}", r.body);
        ep.set_lint_report("{\"files\":4,\"errors\":2}", 2);
        let r = ep.handle(&request("GET /lint HTTP/1.1\r\n\r\n"));
        assert_eq!(r.status, 200);
        assert_eq!(r.body, "{\"files\":4,\"errors\":2}");
        assert_eq!(ep.lint_errors(), 2);
        let r = ep.handle(&request("GET /readyz HTTP/1.1\r\n\r\n"));
        assert!(r.body.contains("\"lint_errors\":2"), "{}", r.body);
        let r = ep.handle(&request("GET /stats HTTP/1.1\r\n\r\n"));
        assert!(r.body.contains("\"lint_errors\":2"), "{}", r.body);
        assert!(ep
            .registry()
            .render_prometheus()
            .contains("provbench_lint_errors 2"));
    }

    #[test]
    fn graph_swap_keeps_inflight_requests_consistent() {
        let ep = endpoint();
        // A handler holds its Arc across a concurrent swap.
        let old = ep.graph();
        let (g, _) = parse_turtle("@prefix e: <http://e/> . e:a e:b e:c .").unwrap();
        ep.replace_graph(g, "swap");
        assert_eq!(old.len(), 2, "old readers keep the old graph");
        assert_eq!(ep.graph().len(), 1, "new readers see the new graph");
    }

    /// A panicking handler must not kill its worker: the client gets a
    /// 500, `panics_total` increments, and the same worker then serves
    /// the next request normally.
    #[test]
    fn worker_survives_handler_panic() {
        let (g, _) = parse_turtle("@prefix e: <http://e/> . e:a e:b e:c .").unwrap();
        let ep = Endpoint::with_config(
            g,
            ServerConfig::new()
                .workers(1)
                .debug_panic_route(true)
                .registry(Arc::new(Registry::new())),
        );
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = ep.clone();
        std::thread::spawn(move || {
            let _ = server.serve_on(listener);
        });

        let fetch = |path: &str| {
            let mut stream = TcpStream::connect(addr).unwrap();
            write!(stream, "GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
            let mut response = String::new();
            stream.read_to_string(&mut response).unwrap();
            response
        };

        let r = fetch("/debug/panic");
        assert!(r.starts_with("HTTP/1.1 500"), "{r}");
        // Same (only) worker keeps serving.
        let r = fetch("/stats");
        assert!(r.starts_with("HTTP/1.1 200"), "{r}");
        assert!(r.contains("\"panics_total\":1"), "{r}");
        assert_eq!(ep.panics_total(), 1);
        // And another panic keeps counting.
        let r = fetch("/debug/panic");
        assert!(r.starts_with("HTTP/1.1 500"), "{r}");
        assert!(fetch("/readyz").starts_with("HTTP/1.1 200"));
        assert_eq!(ep.panics_total(), 2);
        // /stats and /metrics agree on the count.
        assert!(ep
            .registry()
            .render_prometheus()
            .contains("provbench_panics_total 2"));
    }

    #[test]
    fn debug_panic_route_is_404_when_disabled() {
        let ep = endpoint();
        let r = ep.handle(&request("GET /debug/panic HTTP/1.1\r\n\r\n"));
        assert_eq!(r.status, 404);
    }

    /// One metric sample's value from a rendered registry.
    fn sample(rendered: &str, needle: &str) -> u64 {
        rendered
            .lines()
            .find(|l| l.starts_with(needle))
            .and_then(|l| l.rsplit(' ').next())
            .and_then(|v| v.parse().ok())
            .unwrap_or(0)
    }

    #[test]
    fn serve_conn_counts_every_connection_once() {
        use crate::net::BufConn;
        let ep = endpoint();
        let q = crate::http::url_encode("SELECT ?s WHERE { ?s ?p ?o }");

        let mut conn =
            BufConn::request(format!("GET /sparql?query={q} HTTP/1.1\r\nHost: t\r\n\r\n"));
        assert_eq!(ep.serve_conn(&mut conn), "ok");
        let text = String::from_utf8_lossy(conn.output());
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");

        // A malformed request is still a delivered (400) response.
        let mut conn = BufConn::request("NONSENSE\r\n\r\n");
        assert_eq!(ep.serve_conn(&mut conn), "ok");
        assert!(String::from_utf8_lossy(conn.output()).starts_with("HTTP/1.1 400"));

        let rendered = ep.registry().render_prometheus();
        assert_eq!(
            sample(&rendered, "provbench_connections_total{result=\"ok\"}"),
            2,
            "{rendered}"
        );
    }

    /// Satellite: a socket whose options cannot be set is closed and
    /// counted, never served with unbounded timeouts.
    #[test]
    fn socket_option_failure_closes_connection_and_counts() {
        use crate::net::Conn;

        struct BrokenSocket {
            wrote: bool,
        }
        impl std::io::Read for BrokenSocket {
            fn read(&mut self, _buf: &mut [u8]) -> io::Result<usize> {
                Ok(0)
            }
        }
        impl std::io::Write for BrokenSocket {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.wrote = true;
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        impl Conn for BrokenSocket {
            fn set_read_timeout(&mut self, _t: Option<Duration>) -> io::Result<()> {
                Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "setsockopt failed",
                ))
            }
            fn set_write_timeout(&mut self, _t: Option<Duration>) -> io::Result<()> {
                Ok(())
            }
        }
        let ep = endpoint();
        let mut conn = BrokenSocket { wrote: false };
        assert_eq!(ep.serve_conn(&mut conn), "socket_error");
        assert!(!conn.wrote, "an unbounded connection must not be served");
        let rendered = ep.registry().render_prometheus();
        assert_eq!(sample(&rendered, "provbench_socket_errors_total"), 1);
        assert_eq!(
            sample(
                &rendered,
                "provbench_connections_total{result=\"socket_error\"}"
            ),
            1
        );
        // No HTTP request was (or could be) recorded for it.
        assert!(
            !rendered.contains("provbench_http_requests_total{"),
            "{rendered}"
        );
    }

    /// Satellite: the Retry-After on 503s derives from queue depth /
    /// drain state unless configured explicitly.
    #[test]
    fn retry_after_is_derived_or_configured() {
        // Default 8 workers / 32 queued → ceil(32/8) = 4 s.
        let ep = endpoint();
        assert_eq!(ep.retry_after_secs(), 4);
        // A 1-worker, 1-slot pool keeps the old hint of 1 s.
        let ep = endpoint_with(ServerConfig::new().workers(1).queue_depth(1));
        assert_eq!(ep.retry_after_secs(), 1);
        // Explicit configuration wins.
        let ep = endpoint_with(ServerConfig::new().retry_after(Duration::from_secs(7)));
        assert_eq!(ep.retry_after_secs(), 7);
        // Draining advertises the drain deadline: by then this process
        // is gone and the retry lands on a healthy peer.
        let ep = endpoint_with(ServerConfig::new().drain_deadline(Duration::from_secs(9)));
        ep.health.draining.store(true, Ordering::SeqCst);
        assert_eq!(ep.retry_after_secs(), 9);
        // And the derived value reaches the wire on an unready 503.
        let ep = Endpoint::unready(ServerConfig::new().registry(Arc::new(Registry::new())));
        let r = ep.handle(&request("GET /readyz HTTP/1.1\r\n\r\n"));
        assert!(
            r.headers.contains(&("Retry-After".into(), "4".into())),
            "{:?}",
            r.headers
        );
    }

    /// While draining, probes and metrics keep answering but new
    /// queries are refused with a drain-scented 503.
    #[test]
    fn draining_refuses_queries_but_keeps_probes() {
        let ep = endpoint();
        ep.health.draining.store(true, Ordering::SeqCst);
        let r = ep.handle(&request("GET /readyz HTTP/1.1\r\n\r\n"));
        assert_eq!(r.status, 503);
        assert!(r.body.contains("\"draining\":true"), "{}", r.body);
        let q = crate::http::url_encode("SELECT ?s WHERE { ?s ?p ?o }");
        let r = ep.handle(&request(&format!("GET /sparql?query={q} HTTP/1.1\r\n\r\n")));
        assert_eq!(r.status, 503);
        assert!(r.body.contains("\"error\":\"draining\""), "{}", r.body);
        assert!(ep.handle(&request("GET /healthz HTTP/1.1\r\n\r\n")).status == 200);
        assert!(ep.handle(&request("GET /metrics HTTP/1.1\r\n\r\n")).status == 200);
    }

    /// Satellite: a slowloris client dribbling header bytes gets a 408
    /// within the read-timeout budget — the total-deadline reader, not
    /// the per-read socket timeout, is what bounds it.
    #[test]
    fn slowloris_dribbler_gets_408_within_budget() {
        let ep = endpoint_with(ServerConfig::new().read_timeout(Duration::from_millis(300)));
        let registry = Arc::clone(ep.registry());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = ep.clone();
        std::thread::spawn(move || {
            let _ = server.serve_on(listener);
        });

        let start = Instant::now();
        let stream = TcpStream::connect(addr).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let dribbler = std::thread::spawn(move || {
            // One byte per 40 ms: each read succeeds well inside a
            // per-read timeout, but the total budget runs out.
            for b in b"GET /readyz HTTP/1.1\r\nHost: t\r\n\r\n" {
                if writer.write_all(&[*b]).is_err() {
                    break; // server gave up on us, as it should
                }
                std::thread::sleep(Duration::from_millis(40));
            }
        });
        let mut response = String::new();
        let mut reader = stream;
        reader.read_to_string(&mut response).unwrap();
        dribbler.join().unwrap();

        assert!(response.starts_with("HTTP/1.1 408"), "{response}");
        assert!(
            start.elapsed() < Duration::from_secs(3),
            "408 took {:?}",
            start.elapsed()
        );
        let rendered = registry.render_prometheus();
        assert_eq!(
            sample(
                &rendered,
                "provbench_connections_total{result=\"read_timeout\"}"
            ),
            1,
            "{rendered}"
        );
        let requests = rendered
            .lines()
            .find(|l| {
                l.starts_with("provbench_http_requests_total{") && l.contains("status=\"408\"")
            })
            .unwrap_or_else(|| panic!("no status=\"408\" sample in\n{rendered}"));
        assert!(requests.ends_with(" 1"), "{requests}");
    }

    /// Tentpole: a shutdown request drains in-flight work — the slow
    /// query completes, probes observe `draining`, the serve call
    /// returns cleanly, and the drain duration lands on the registry.
    #[test]
    fn graceful_shutdown_drains_inflight_requests() {
        let mut turtle = String::from("@prefix e: <http://e/> .\n");
        for i in 0..80 {
            turtle.push_str(&format!("e:s{i} e:p{} e:o{i} .\n", i % 7));
        }
        let (g, _) = parse_turtle(&turtle).unwrap();
        let registry = Arc::new(Registry::new());
        let ep = Endpoint::with_config(
            g,
            ServerConfig::new()
                .workers(2)
                .drain_deadline(Duration::from_secs(60))
                .registry(Arc::clone(&registry)),
        );
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let shutdown = ShutdownSignal::new();
        let signal = shutdown.clone();
        let server = ep.clone();
        let serving = std::thread::spawn(move || server.serve_with_shutdown(listener, &signal));

        // Occupy a worker with a query slow enough to outlive the
        // shutdown request.
        let slow = crate::http::url_encode(
            "SELECT (COUNT(*) AS ?n) WHERE { ?a ?b ?c . ?d ?e ?f . ?g ?h ?i }",
        );
        let inflight = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            write!(
                stream,
                "GET /sparql?query={slow} HTTP/1.1\r\nHost: t\r\n\r\n"
            )
            .unwrap();
            let mut response = String::new();
            stream.read_to_string(&mut response).unwrap();
            response
        });
        std::thread::sleep(Duration::from_millis(100));

        shutdown.request();
        std::thread::sleep(Duration::from_millis(20));
        // A probe during the drain sees the draining state (the
        // acceptor keeps serving probes while in-flight work finishes).
        let mut probe = TcpStream::connect(addr).unwrap();
        write!(probe, "GET /readyz HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        let mut readyz = String::new();
        probe.read_to_string(&mut readyz).unwrap();
        assert!(readyz.starts_with("HTTP/1.1 503"), "{readyz}");
        assert!(readyz.contains("\"draining\":true"), "{readyz}");
        // So does a query: it is answered the draining 503, a delivered
        // response like any other.
        let q = crate::http::url_encode("SELECT ?s WHERE { ?s ?p ?o }");
        let mut late = TcpStream::connect(addr).unwrap();
        write!(late, "GET /sparql?query={q} HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        let mut refused = String::new();
        late.read_to_string(&mut refused).unwrap();
        assert!(refused.starts_with("HTTP/1.1 503"), "{refused}");
        assert!(refused.contains("\"error\":\"draining\""), "{refused}");

        // The in-flight query still completes, byte-complete.
        let response = inflight.join().unwrap();
        assert!(response.starts_with("HTTP/1.1 200"), "{response}");
        let body = response.split("\r\n\r\n").nth(1).unwrap_or("");
        assert!(
            response.contains(&format!("Content-Length: {}\r\n", body.len())),
            "{response}"
        );
        // And the serve loop returns cleanly (the process may exit 0).
        serving.join().unwrap().unwrap();
        let rendered = registry.render_prometheus();
        assert_eq!(
            sample(&rendered, "provbench_shutdown_drain_seconds_count"),
            1,
            "{rendered}"
        );
        // The slow query, the probe and the refused query: three
        // delivered responses. The wake-up connection is not counted.
        assert_eq!(
            sample(&rendered, "provbench_connections_total{result=\"ok\"}"),
            3,
            "{rendered}"
        );
        let requests = rendered
            .lines()
            .find(|l| {
                l.starts_with("provbench_http_requests_total{")
                    && l.contains("route=\"/sparql\"")
                    && l.contains("status=\"503\"")
            })
            .unwrap_or_else(|| panic!("no /sparql 503 sample in\n{rendered}"));
        assert!(requests.ends_with(" 1"), "{requests}");
    }

    /// An idle server blocks in `accept` and returns promptly once
    /// shutdown is requested: the request wakes the drain, and one
    /// loopback connection wakes the acceptor, which closes it
    /// uncounted.
    #[test]
    fn idle_shutdown_returns_promptly_and_counts_no_connection() {
        let ep = endpoint();
        let registry = Arc::clone(ep.registry());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let shutdown = ShutdownSignal::new();
        let signal = shutdown.clone();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let served = ep.serve_with_shutdown(listener, &signal);
            done_tx.send((served.is_ok(), Instant::now())).unwrap();
        });
        std::thread::sleep(Duration::from_millis(100));
        assert!(done_rx.try_recv().is_err(), "returned before shutdown");

        let requested = Instant::now();
        shutdown.request();
        let (ok, returned) = done_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(ok);
        let took = returned - requested;
        assert!(
            took < Duration::from_millis(200),
            "returned {took:?} after request()"
        );
        let rendered = registry.render_prometheus();
        assert!(
            !rendered.contains("provbench_connections_total"),
            "{rendered}"
        );
        assert_eq!(
            sample(&rendered, "provbench_shutdown_drain_seconds_count"),
            1,
            "{rendered}"
        );
    }

    #[test]
    fn wait_blocks_until_requested() {
        let signal = ShutdownSignal::new();
        let waiter = {
            let signal = signal.clone();
            std::thread::spawn(move || signal.wait())
        };
        std::thread::sleep(Duration::from_millis(50));
        assert!(!waiter.is_finished() && !signal.is_requested());
        signal.request();
        waiter.join().unwrap();
        assert!(signal.is_requested());
        signal.wait(); // already requested: returns at once
    }
}
