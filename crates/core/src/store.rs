//! The corpus on disk: one RDF file per run plus one description per
//! workflow, mirroring the layout of the published Wf4Ever-PROV corpus
//! repository (a directory per system, a directory per workflow).

use crate::fsio::{StoreFs, REAL_FS};
use crate::generate::{Corpus, TraceRecord};
use crate::ingest::{IngestError, IngestReport, INGEST_REPORT_FILE};
use crate::manifest::{self, Manifest, SourceFile, SourceRecord};
use crate::snapshot::{self, SNAPSHOT_FILE, VERSION};
use provbench_obs::{Registry, LATENCY_BUCKETS};
use provbench_rdf::{
    parse_trig, parse_turtle, write_trig, write_turtle, Dataset, Graph, ParseError, PrefixMap,
};
use provbench_workflow::System;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Counter of source files parsed (`result="loaded"|"quarantined"`).
const INGEST_FILES_TOTAL: &str = "provbench_ingest_files_total";
/// Histogram of per-file read+parse times.
const INGEST_FILE_SECONDS: &str = "provbench_ingest_file_seconds";
/// Counter of store opens (`mode="warm"|"cold"`).
const STORE_OPENS_TOTAL: &str = "provbench_store_opens_total";
/// Histogram of whole-open wall-clock time (`mode="warm"|"cold"`).
const STORE_OPEN_SECONDS: &str = "provbench_store_open_seconds";
/// Histogram of snapshot encode times.
const SNAPSHOT_ENCODE_SECONDS: &str = "provbench_snapshot_encode_seconds";
/// Histogram of snapshot decode times.
const SNAPSHOT_DECODE_SECONDS: &str = "provbench_snapshot_decode_seconds";

/// Temp file the snapshot is staged in before its atomic rename; a
/// crash can only ever leave a stale temp file, never a torn snapshot.
pub const SNAPSHOT_TMP: &str = "corpus.snapshot.tmp";

/// Advisory lock taken while (re)building the snapshot, so concurrent
/// `open_or_build` callers don't race duplicate rebuilds.
pub const SNAPSHOT_LOCK: &str = "corpus.snapshot.lock";

/// Serialize one trace in its system's native format: Turtle for Taverna
/// (flat graph), TriG for Wings (account bundle as a named graph).
pub fn serialize_trace(trace: &TraceRecord) -> String {
    let prefixes = PrefixMap::common();
    match trace.system {
        System::Taverna => write_turtle(trace.dataset.default_graph(), &prefixes),
        System::Wings => write_trig(&trace.dataset, &prefixes),
    }
}

/// File extension for a trace of the given system.
pub fn trace_extension(system: System) -> &'static str {
    match system {
        System::Taverna => "prov.ttl",
        System::Wings => "prov.trig",
    }
}

/// Serialize a workflow-description graph (always Turtle).
pub fn serialize_description(description: &Graph) -> String {
    write_turtle(description, &PrefixMap::common())
}

/// Description file name for the given system.
pub fn description_file(system: System) -> &'static str {
    match system {
        System::Taverna => "workflow.wfdesc.ttl",
        System::Wings => "workflow.opmw.ttl",
    }
}

/// Export the entire corpus (descriptions + every trace) as a single
/// N-Quads stream — one file for bulk interchange, complementing the
/// per-run Turtle/TriG layout.
pub fn export_nquads(corpus: &Corpus) -> String {
    provbench_rdf::write_nquads(&corpus.combined_dataset())
}

/// Summary of a completed save.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SavedCorpus {
    /// Number of files written.
    pub files: usize,
    /// Total bytes written.
    pub bytes: u64,
}

/// Write the corpus under `dir` (created if absent).
pub fn save(corpus: &Corpus, dir: &Path) -> io::Result<SavedCorpus> {
    let mut files = 0usize;
    let mut bytes = 0u64;
    let mut write = |path: PathBuf, content: String| -> io::Result<()> {
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        bytes += content.len() as u64;
        files += 1;
        fs::write(path, content)
    };

    // Manifest: one line per run.
    let mut manifest = String::from("# run_id\tsystem\ttemplate\tdomain\trun_number\tstatus\n");
    for t in &corpus.traces {
        manifest.push_str(&format!(
            "{}\t{}\t{}\t{}\t{}\t{}\n",
            t.run_id,
            t.system.name(),
            t.template_name,
            t.domain,
            t.run_number,
            if t.failed() { "FAILED" } else { "OK" }
        ));
    }
    write(dir.join("manifest.tsv"), manifest)?;

    // The dataset's VoID description (Table 1 as RDF).
    let stats = crate::stats::CorpusStats::compute(corpus);
    let mut prefixes = PrefixMap::common();
    prefixes.insert("void", "http://rdfs.org/ns/void#");
    write(
        dir.join("void.ttl"),
        write_turtle(&crate::stats::void_description(&stats), &prefixes),
    )?;

    for ((system, template), description) in corpus.templates.iter().zip(&corpus.descriptions) {
        let sysdir = dir
            .join(system.name().to_ascii_lowercase())
            .join(&template.name);
        write(
            sysdir.join(description_file(*system)),
            serialize_description(description),
        )?;
    }
    for trace in &corpus.traces {
        let sysdir = dir
            .join(trace.system.name().to_ascii_lowercase())
            .join(&trace.template_name);
        let file = format!("{}.{}", trace.run_id, trace_extension(trace.system));
        write(sysdir.join(file), serialize_trace(trace))?;
    }
    Ok(SavedCorpus { files, bytes })
}

/// One trace loaded back from disk.
#[derive(Clone, Debug)]
pub struct LoadedTrace {
    /// Run id (file stem).
    pub run_id: String,
    /// Producing system (from the directory layout).
    pub system: System,
    /// Template name (from the directory layout).
    pub template_name: String,
    /// The parsed dataset.
    pub dataset: Dataset,
}

/// One workflow-description graph loaded back from disk.
#[derive(Clone, Debug)]
pub struct LoadedDescription {
    /// Producing system (from the directory layout).
    pub system: System,
    /// Template name (from the directory layout).
    pub template_name: String,
    /// The parsed description graph.
    pub graph: Graph,
}

/// A corpus loaded back from disk (RDF level only — the raw
/// [`provbench_workflow::WorkflowRun`] records exist only in memory).
#[derive(Clone, Debug, Default)]
pub struct LoadedCorpus {
    /// All traces found.
    pub traces: Vec<LoadedTrace>,
    /// All workflow descriptions found.
    pub descriptions: Vec<LoadedDescription>,
}

impl LoadedCorpus {
    /// Merge everything into one dataset (same shape as
    /// [`Corpus::combined_dataset`]).
    pub fn combined_dataset(&self) -> Dataset {
        let mut ds = Dataset::new();
        for d in &self.descriptions {
            ds.default_graph_mut().extend_from_graph(&d.graph);
        }
        for t in &self.traces {
            match t.system {
                System::Taverna => {
                    let name = provbench_rdf::Iri::new_unchecked(format!(
                        "{}graph",
                        provbench_taverna::run_base_iri(&t.run_id)
                    ));
                    ds.insert_graph(name.into(), t.dataset.default_graph());
                }
                System::Wings => ds.merge(&t.dataset),
            }
        }
        ds
    }
}

/// What kind of corpus file a source is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum FileKind {
    Description,
    TraceTurtle,
    TraceTrig,
}

/// Where a corpus-relative path sits in the layout [`save`] writes —
/// `<system>/<template>/<file>` — and what kind of file it is; `None`
/// for anything else.
fn classify(rel: &str) -> Option<(System, &str, FileKind)> {
    let mut parts = rel.split('/');
    let (Some(dir), Some(template), Some(name), None) =
        (parts.next(), parts.next(), parts.next(), parts.next())
    else {
        return None;
    };
    let system = system_dir(dir)?;
    let kind = if name == description_file(system) {
        FileKind::Description
    } else if name.ends_with(".prov.ttl") {
        FileKind::TraceTurtle
    } else if name.ends_with(".prov.trig") {
        FileKind::TraceTrig
    } else {
        return None;
    };
    Some((system, template, kind))
}

/// The system whose traces live under directory `dir`.
fn system_dir(dir: &str) -> Option<System> {
    [System::Taverna, System::Wings]
        .into_iter()
        .find(|s| s.name().to_ascii_lowercase() == dir)
}

/// The corpus's RDF sources — every regular file under `taverna/` and
/// `wings/` that [`save`] would write, through symlinks, stat'd through
/// `fs` — in path order. The files at the corpus root (`void.ttl`,
/// caches) are not sources. A missing directory has none.
pub fn source_files(dir: &Path, fs: &dyn StoreFs) -> io::Result<Vec<SourceFile>> {
    // Enter only `<system>/` and `<system>/<template>/`.
    let keep = |rel: &str| match rel.strip_suffix('/') {
        Some(dir) => {
            let mut parts = dir.split('/');
            parts.next().and_then(system_dir).is_some() && parts.count() <= 1
        }
        None => classify(rel).is_some(),
    };
    match manifest::walk(dir, fs, true, &keep) {
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(Vec::new()),
        // A file root is walked as itself, but it is no corpus.
        walked => Ok(walked?
            .into_iter()
            .filter(|f| classify(&f.rel).is_some())
            .collect()),
    }
}

/// Result of parsing one corpus file.
enum ParsedFile {
    Description(LoadedDescription),
    Trace(LoadedTrace),
}

/// Wrap a failure to read a file (`io`), or to decode its bytes, as a
/// quarantine record.
fn read_ingest_error(file: &SourceFile, e: &io::Error, io: bool) -> IngestError {
    IngestError {
        path: file.rel.clone(),
        message: e.to_string(),
        line: None,
        column: None,
        byte_offset: None,
        io,
    }
}

/// Wrap a parse failure as a quarantine record, carrying line, column
/// and byte offset so the report is actionable without re-parsing.
fn parse_ingest_error(file: &SourceFile, e: &ParseError, content: &str) -> IngestError {
    IngestError {
        path: file.rel.clone(),
        // The bare message: IngestError's Display adds the position.
        message: e.message.clone(),
        line: Some(e.line),
        column: Some(e.column),
        byte_offset: e.byte_offset_in(content).map(|o| o as u64),
        io: false,
    }
}

/// Read and parse one source. The record of its bytes comes back too,
/// when the read succeeded — a file that does not decode or parse is
/// still recorded, so its quarantine survives a warm open; one that
/// could not be read is not, so the next open tries it again.
fn parse_corpus_file(
    file: &SourceFile,
    fs: &dyn StoreFs,
) -> (Option<SourceRecord>, Result<ParsedFile, IngestError>) {
    let (system, template, kind) = classify(&file.rel).expect("sources are classified");
    let (record, content) = match manifest::read_source(file, fs) {
        Ok((record, Ok(content))) => (record, content),
        Ok((record, Err(e))) => return (Some(record), Err(read_ingest_error(file, &e, false))),
        Err(e) => return (None, Err(read_ingest_error(file, &e, true))),
    };
    let name = file.rel.rsplit('/').next().unwrap_or_default();
    let trace = |suffix: &str, dataset| {
        ParsedFile::Trace(LoadedTrace {
            run_id: name.trim_end_matches(suffix).to_owned(),
            system,
            template_name: template.to_owned(),
            dataset,
        })
    };
    let parse_error = |e: ParseError| parse_ingest_error(file, &e, &content);
    let parsed = match kind {
        FileKind::Description => parse_turtle(&content).map(|(graph, _)| {
            ParsedFile::Description(LoadedDescription {
                system,
                template_name: template.to_owned(),
                graph,
            })
        }),
        FileKind::TraceTurtle => parse_turtle(&content).map(|(g, _)| {
            let mut ds = Dataset::new();
            *ds.default_graph_mut() = g;
            trace(".prov.ttl", ds)
        }),
        FileKind::TraceTrig => parse_trig(&content).map(|(ds, _)| trace(".prov.trig", ds)),
    };
    (Some(record), parsed.map_err(parse_error))
}

/// Default parser fan-out for [`load_with_threads`]: the machine's
/// available parallelism, capped — parsing is CPU-bound and the corpus
/// has ~200 files, so more workers stop paying off quickly.
pub fn default_load_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8)
}

/// Parse a listed set of files, fanning out over `jobs` worker threads,
/// each file's latency and outcome recorded. Files that fail to read or
/// parse are quarantined, never fatal: the good files come back in
/// listing order (so parallel and sequential loads are identical)
/// alongside the quarantine records, and with the record of every file
/// that was read.
fn parse_files(
    files: &[SourceFile],
    jobs: usize,
    fs: &dyn StoreFs,
    metrics: &Registry,
) -> (LoadOutcome, Vec<SourceRecord>) {
    let parsed = crate::par_map(files, jobs, |file| {
        let start = Instant::now();
        let (record, result) = parse_corpus_file(file, fs);
        metrics
            .histogram(
                INGEST_FILE_SECONDS,
                "Per-file corpus read+parse time",
                LATENCY_BUCKETS,
            )
            .observe_duration(start.elapsed());
        let outcome = if result.is_ok() {
            "loaded"
        } else {
            "quarantined"
        };
        metrics
            .counter_with(
                INGEST_FILES_TOTAL,
                "Corpus source files parsed, by outcome",
                &[("result", outcome)],
            )
            .inc();
        (record, result)
    });
    let mut out = LoadOutcome::default();
    out.report.attempted = files.len();
    let mut records = Vec::with_capacity(files.len());
    for (record, result) in parsed {
        records.extend(record);
        match result {
            Ok(ParsedFile::Description(d)) => out.corpus.descriptions.push(d),
            Ok(ParsedFile::Trace(t)) => out.corpus.traces.push(t),
            Err(e) => out.report.errors.push(e),
        }
    }
    (out, records)
}

/// A corpus loaded from disk together with its quarantine report.
#[derive(Clone, Debug, Default)]
pub struct LoadOutcome {
    /// The successfully parsed part of the corpus.
    pub corpus: LoadedCorpus,
    /// Which files were attempted and which were quarantined.
    pub report: IngestReport,
}

/// Load a corpus directory written by [`save`], sequentially and
/// strictly: the first unreadable or malformed file aborts the load.
/// Use [`load_with_threads`] for the quarantining loader.
pub fn load(dir: &Path) -> io::Result<LoadedCorpus> {
    let outcome = load_with_threads(dir, 1)?;
    match outcome.report.errors.into_iter().next() {
        None => Ok(outcome.corpus),
        Some(e) => Err(io::Error::new(io::ErrorKind::InvalidData, e.to_string())),
    }
}

/// Load a corpus directory written by [`save`], parsing files on `jobs`
/// worker threads. Deterministic: the result does not depend on `jobs`.
/// Files that fail to read or parse are quarantined into the outcome's
/// [`IngestReport`] rather than aborting the load.
pub fn load_with_threads(dir: &Path, jobs: usize) -> io::Result<LoadOutcome> {
    let files = source_files(dir, &REAL_FS)?;
    Ok(parse_files(&files, jobs, &REAL_FS, provbench_obs::global()).0)
}

/// How a [`CorpusStore`] came to hold its data.
#[derive(Clone, Debug)]
pub struct SnapshotProvenance {
    /// Path of the snapshot file (existing or just written).
    pub path: PathBuf,
    /// `true` when the corpus was memory-loaded from a valid snapshot;
    /// `false` when it was (re)parsed from the RDF sources.
    pub warm: bool,
    /// Snapshot format version in play.
    pub version: u16,
    /// Size of the snapshot file in bytes (0 if it could not be written).
    pub snapshot_bytes: u64,
    /// Number of RDF source files in the corpus directory.
    pub source_files: u64,
    /// Total size of those source files in bytes.
    pub source_bytes: u64,
    /// When `warm` is `false` and a snapshot file existed, why it was
    /// not used.
    pub rebuild_reason: Option<String>,
}

/// A corpus opened through the snapshot cache: the loaded RDF plus the
/// pre-merged union graph the query engine, endpoint and linter run on.
#[derive(Debug)]
pub struct CorpusStore {
    /// The loaded corpus (traces + descriptions).
    pub corpus: LoadedCorpus,
    /// Union of every graph in the corpus.
    pub union: Graph,
    /// Where the data came from (warm snapshot vs cold parse).
    pub provenance: SnapshotProvenance,
    /// Quarantine report: which source files failed to load. On a warm
    /// open this is the report persisted by the build that wrote the
    /// snapshot; empty when every file loaded.
    pub ingest: IngestReport,
    /// The sources this store was built from, dated by the snapshot
    /// that holds them (stamp 0 when none was written): what the `serve`
    /// watcher checks the directory against (see [`check_sources`]).
    pub manifest: Manifest,
}

/// Knobs for opening or building a [`CorpusStore`].
pub struct StoreOptions<'fs> {
    /// Parser fan-out (worker threads).
    pub jobs: usize,
    /// `true` restores fail-fast ingestion: the first unreadable or
    /// malformed source file aborts the open instead of being
    /// quarantined.
    pub strict: bool,
    /// How long to wait on another process's build lock before assuming
    /// it is stale, stealing it, and building anyway.
    pub lock_timeout: Duration,
    /// The filesystem to operate on — [`REAL_FS`] in production, a
    /// fault-injecting shim in the chaos tests.
    pub fs: &'fs dyn StoreFs,
    /// Registry ingest/snapshot/open metrics are recorded into. The
    /// process-wide [`provbench_obs::global`] one by default; tests
    /// that assert on counts thread their own.
    pub metrics: Arc<Registry>,
}

impl Default for StoreOptions<'static> {
    fn default() -> Self {
        StoreOptions {
            jobs: default_load_jobs(),
            strict: false,
            lock_timeout: Duration::from_secs(10),
            fs: &REAL_FS,
            metrics: Arc::clone(provbench_obs::global()),
        }
    }
}

/// File count and total byte size of a corpus directory's sources.
pub fn source_fingerprint(dir: &Path) -> io::Result<(u64, u64)> {
    Ok(source_totals(&source_files(dir, &REAL_FS)?))
}

fn source_totals(files: &[SourceFile]) -> (u64, u64) {
    let bytes = files.iter().filter_map(|f| f.stat).map(|s| s.len).sum();
    (files.len() as u64, bytes)
}

/// Held while (re)building a snapshot; removes the lock file on drop.
struct BuildLock<'fs> {
    fs: &'fs dyn StoreFs,
    path: PathBuf,
}

impl Drop for BuildLock<'_> {
    fn drop(&mut self) {
        let _ = self.fs.remove_file(&self.path);
    }
}

/// Temp path the quarantine report is staged in before its rename.
const INGEST_REPORT_TMP: &str = "corpus.ingest-report.tmp";

/// Take the build lock, waiting with backoff and stealing it after the
/// timeout. Between waits `between_waits` runs, and may end the wait
/// with its own result (`Err`). `Ok(None)` when the filesystem refuses
/// lock operations — the lock is advisory, so the build proceeds
/// unlocked rather than failing.
fn acquire_lock<'fs, T>(
    dir: &Path,
    opts: &StoreOptions<'fs>,
    mut between_waits: impl FnMut() -> Option<T>,
) -> Result<Option<BuildLock<'fs>>, T> {
    let path = dir.join(SNAPSHOT_LOCK);
    let deadline = Instant::now() + opts.lock_timeout;
    let mut backoff = Duration::from_millis(5);
    let mut stole = false;
    loop {
        match opts.fs.create_lock(&path) {
            Ok(()) => return Ok(Some(BuildLock { fs: opts.fs, path })),
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists && !stole => {
                if Instant::now() >= deadline {
                    // Assume the holder crashed; steal its lock.
                    let _ = opts.fs.remove_file(&path);
                    stole = true;
                    continue;
                }
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(Duration::from_millis(100));
                if let Some(done) = between_waits() {
                    return Err(done);
                }
            }
            // A filesystem fault here (or a failed steal) degrades to
            // an unlocked build, never blocks loading.
            Err(_) => return Ok(None),
        }
    }
}

/// Check `files`, the sources of `dir` as [`source_files`] lists them,
/// against `manifest`, the records of a store opened from `dir`; `Err`
/// lists the changes (see [`Manifest::check`]). A file `unreadable`
/// names that still cannot be read is no change. When no file changed
/// but a stat moved, the moved records go into `manifest` and, under the
/// build lock taken without waiting, into the snapshot (see
/// [`snapshot::redate`]), whose new mtime dates them: the next check
/// reads none of those files. Where the snapshot is not rewritten (a
/// read-only directory, a build in progress), `manifest` keeps its old
/// stamp, and the next check reads those files again.
pub fn check_sources(
    dir: &Path,
    fs: &dyn StoreFs,
    manifest: &mut Manifest,
    files: &[SourceFile],
    unreadable: &[String],
) -> Result<(), Vec<String>> {
    let Some(records) = manifest.check(files, fs, unreadable)? else {
        return Ok(());
    };
    let (path, lock) = (dir.join(SNAPSHOT_FILE), dir.join(SNAPSHOT_LOCK));
    if fs.create_lock(&lock).is_ok() {
        let _lock = BuildLock { fs, path: lock };
        let redated = fs
            .read(&path)
            .ok()
            .and_then(|b| snapshot::redate(&b, &records));
        if redated.is_some_and(|b| fs.write_atomic(&dir.join(SNAPSHOT_TMP), &path, &b).is_ok()) {
            manifest.stamp_ns = fs.stat(&path).map_or(manifest.stamp_ns, |s| s.mtime_ns);
        }
    }
    manifest.records = records;
    Ok(())
}

/// Read the persisted quarantine report, if any. Unreadable or torn
/// reports count as absent — they must never block a load.
fn load_persisted_report(dir: &Path, fs: &dyn StoreFs) -> IngestReport {
    let text = fs.read(&dir.join(INGEST_REPORT_FILE)).ok();
    let text = text.and_then(|bytes| String::from_utf8(bytes).ok());
    text.and_then(|text| IngestReport::from_tsv(&text))
        .unwrap_or_default()
}

impl CorpusStore {
    /// Open `dir` through its snapshot if possible, else parse the RDF
    /// sources on [`default_load_jobs`] threads and write a fresh
    /// snapshot for next time.
    ///
    /// A snapshot is used only when it decodes cleanly (magic, version,
    /// checksum and structural validation) *and* its source manifest
    /// still matches every source (see [`Manifest::refresh`]); otherwise
    /// the store falls back to a clean rebuild — corruption can cost
    /// time, never correctness. Source files that fail to read or parse are
    /// quarantined (see [`StoreOptions::strict`] to fail fast instead).
    pub fn open_or_build(dir: &Path) -> io::Result<CorpusStore> {
        CorpusStore::open_or_build_opts(dir, &StoreOptions::default())
    }

    /// [`CorpusStore::open_or_build`] with an explicit parser fan-out.
    pub fn open_or_build_with_threads(dir: &Path, jobs: usize) -> io::Result<CorpusStore> {
        CorpusStore::open_or_build_opts(
            dir,
            &StoreOptions {
                jobs,
                ..StoreOptions::default()
            },
        )
    }

    /// [`CorpusStore::open_or_build`] with full control over fan-out,
    /// strictness, lock behavior and the filesystem.
    pub fn open_or_build_opts(dir: &Path, opts: &StoreOptions<'_>) -> io::Result<CorpusStore> {
        let _span = opts.metrics.span("store.open");
        let start = Instant::now();
        let result = CorpusStore::open_or_build_inner(dir, opts);
        if let Ok(store) = &result {
            let mode = if store.provenance.warm {
                "warm"
            } else {
                "cold"
            };
            opts.metrics
                .counter_with(
                    STORE_OPENS_TOTAL,
                    "Corpus store opens, by mode",
                    &[("mode", mode)],
                )
                .inc();
            opts.metrics
                .histogram_with(
                    STORE_OPEN_SECONDS,
                    "Whole store-open wall-clock time, by mode",
                    LATENCY_BUCKETS,
                    &[("mode", mode)],
                )
                .observe_duration(start.elapsed());
        }
        result
    }

    fn open_or_build_inner(dir: &Path, opts: &StoreOptions<'_>) -> io::Result<CorpusStore> {
        let files = source_files(dir, opts.fs)?;

        // Stale temp files are litter from a crashed build; sweep them
        // before they can be mistaken for anything.
        let _ = opts.fs.remove_file(&dir.join(SNAPSHOT_TMP));
        let _ = opts.fs.remove_file(&dir.join(INGEST_REPORT_TMP));

        let mut rebuild_reason = match CorpusStore::try_warm(dir, &files, opts) {
            Ok(store) => return store.check_strict(opts),
            Err(reason) => reason,
        };

        // Cold: coordinate with concurrent builders through the advisory
        // lock. One caller builds; the others wait for the snapshot it
        // publishes, which the holder may have done between waits.
        let lock = acquire_lock(dir, opts, || {
            CorpusStore::try_warm(dir, &files, opts)
                .map_err(|reason| rebuild_reason = reason)
                .ok()
        });
        let lock = match lock {
            Ok(lock) => lock,
            Err(store) => return store.check_strict(opts),
        };
        // Double-checked: a builder we raced may have published between
        // our last warm attempt and acquiring the lock.
        if lock.is_some() {
            if let Ok(store) = CorpusStore::try_warm(dir, &files, opts) {
                return store.check_strict(opts);
            }
        }
        let store = CorpusStore::build_from_files(dir, &files, opts, rebuild_reason);
        drop(lock);
        store
    }

    /// Attempt a warm load: snapshot present, decodes cleanly, and its
    /// manifest still matches every source (see [`check_sources`]).
    /// On failure the `Err` carries the rebuild reason (`None` = no
    /// snapshot yet).
    fn try_warm(
        dir: &Path,
        files: &[SourceFile],
        opts: &StoreOptions<'_>,
    ) -> Result<CorpusStore, Option<String>> {
        let path = dir.join(SNAPSHOT_FILE);
        let (bytes, stamp_ns) = match manifest::read_dated(opts.fs, &path) {
            Ok(read) => read,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Err(None),
            Err(e) => return Err(Some(format!("unreadable snapshot: {e}"))),
        };
        let decode_start = Instant::now();
        let decoded = snapshot::decode(&bytes);
        opts.metrics
            .histogram(
                SNAPSHOT_DECODE_SECONDS,
                "Binary snapshot decode time",
                LATENCY_BUCKETS,
            )
            .observe_duration(decode_start.elapsed());
        let decoded = decoded.map_err(|e| Some(e.to_string()))?;
        let mut manifest = Manifest {
            records: decoded.manifest,
            stamp_ns,
        };
        if let Err(changes) = check_sources(dir, opts.fs, &mut manifest, files, &[]) {
            let shown = changes[..changes.len().min(3)].join(", ");
            let more = match changes.len().saturating_sub(3) {
                0 => String::new(),
                n => format!(", and {n} more"),
            };
            return Err(Some(format!("source tree changed: {shown}{more}")));
        }
        let (source_files, source_bytes) = source_totals(files);
        Ok(CorpusStore {
            corpus: decoded.corpus,
            union: decoded.union,
            provenance: SnapshotProvenance {
                path,
                warm: true,
                version: VERSION,
                snapshot_bytes: bytes.len() as u64,
                source_files,
                source_bytes,
                rebuild_reason: None,
            },
            ingest: {
                // No persisted report = the build was clean; its
                // attempt count is the source file count.
                let mut report = load_persisted_report(dir, opts.fs);
                if report.attempted == 0 && report.errors.is_empty() {
                    report.attempted = files.len();
                }
                report
            },
            manifest,
        })
    }

    /// Enforce [`StoreOptions::strict`]: any quarantined file aborts the
    /// open with the first casualty's full position in the message.
    fn check_strict(self, opts: &StoreOptions<'_>) -> io::Result<CorpusStore> {
        if opts.strict {
            if let Some(first) = self.ingest.errors.first() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("strict ingestion: {first} ({})", self.ingest),
                ));
            }
        }
        Ok(self)
    }

    /// Parse the RDF sources unconditionally and (re)write the snapshot.
    /// Used by `provbench snapshot build`.
    pub fn build(dir: &Path, jobs: usize) -> io::Result<CorpusStore> {
        CorpusStore::build_opts(
            dir,
            &StoreOptions {
                jobs,
                ..StoreOptions::default()
            },
        )
    }

    /// [`CorpusStore::build`] with full options.
    pub fn build_opts(dir: &Path, opts: &StoreOptions<'_>) -> io::Result<CorpusStore> {
        let files = source_files(dir, opts.fs)?;
        let Ok(lock) = acquire_lock(dir, opts, || None::<std::convert::Infallible>);
        let store = CorpusStore::build_from_files(dir, &files, opts, None);
        drop(lock);
        store
    }

    fn build_from_files(
        dir: &Path,
        files: &[SourceFile],
        opts: &StoreOptions<'_>,
        rebuild_reason: Option<String>,
    ) -> io::Result<CorpusStore> {
        let (source_files, source_bytes) = source_totals(files);
        let (parsed, records) = parse_files(files, opts.jobs, opts.fs, &opts.metrics);
        let union = parsed.corpus.combined_dataset().union_graph();
        let store = CorpusStore {
            corpus: parsed.corpus,
            union,
            provenance: SnapshotProvenance {
                path: dir.join(SNAPSHOT_FILE),
                warm: false,
                version: VERSION,
                snapshot_bytes: 0,
                source_files,
                source_bytes,
                rebuild_reason,
            },
            ingest: parsed.report,
            manifest: Manifest {
                records,
                stamp_ns: 0,
            },
        }
        .check_strict(opts)?;

        // Publish the quarantine report BEFORE the snapshot: a snapshot
        // may only go live once the quarantine state next to it is
        // accurate, otherwise a later warm load would silently present a
        // partial corpus as complete. All of this is best-effort — a
        // read-only corpus still loads, it just stays cold.
        let report_path = dir.join(INGEST_REPORT_FILE);
        let report_published = if store.ingest.is_clean() {
            match opts.fs.remove_file(&report_path) {
                Ok(()) => true,
                Err(e) => e.kind() == io::ErrorKind::NotFound,
            }
        } else {
            opts.fs
                .write_atomic(
                    &dir.join(INGEST_REPORT_TMP),
                    &report_path,
                    store.ingest.to_tsv().as_bytes(),
                )
                .is_ok()
        };
        let mut store = store;
        if report_published {
            let encode_start = Instant::now();
            let encoded = snapshot::encode(
                &store.corpus,
                source_files,
                source_bytes,
                &store.manifest.records,
            );
            opts.metrics
                .histogram(
                    SNAPSHOT_ENCODE_SECONDS,
                    "Binary snapshot encode time",
                    LATENCY_BUCKETS,
                )
                .observe_duration(encode_start.elapsed());
            let path = &store.provenance.path;
            if opts
                .fs
                .write_atomic(&dir.join(SNAPSHOT_TMP), path, &encoded)
                .is_ok()
            {
                store.provenance.snapshot_bytes = encoded.len() as u64;
                // Date the manifest as a warm open will: by the snapshot.
                store.manifest.stamp_ns = opts.fs.stat(path).map_or(0, |s| s.mtime_ns);
            }
        }
        Ok(store)
    }

    /// The union graph, cloned for engines that take ownership.
    pub fn union_graph(&self) -> Graph {
        self.union.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::CorpusSpec;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("provbench-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn small_corpus() -> Corpus {
        // Include a Wings workflow: workflow #68+ are Wings in catalog
        // order, too deep for a small corpus — so take enough templates.
        let spec = CorpusSpec {
            max_workflows: Some(70),
            total_runs: 72,
            failed_runs: 3,
            ..CorpusSpec::default()
        };
        Corpus::generate(&spec)
    }

    #[test]
    fn save_load_roundtrip() {
        let corpus = small_corpus();
        let dir = tmpdir("roundtrip");
        let saved = save(&corpus, &dir).unwrap();
        // manifest + void.ttl + 70 descriptions + 72 traces.
        assert_eq!(saved.files, 2 + 70 + 72);
        assert!(saved.bytes > 0);

        let loaded = load(&dir).unwrap();
        assert_eq!(loaded.traces.len(), 72);
        assert_eq!(loaded.descriptions.len(), 70);
        // Each loaded trace must match its in-memory counterpart exactly.
        for lt in &loaded.traces {
            let original = corpus
                .traces
                .iter()
                .find(|t| t.run_id == lt.run_id)
                .unwrap_or_else(|| panic!("unknown run {}", lt.run_id));
            assert_eq!(lt.system, original.system);
            assert_eq!(lt.dataset, original.dataset, "mismatch for {}", lt.run_id);
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wings_traces_are_trig_with_bundles() {
        let corpus = small_corpus();
        let wings_trace = corpus
            .traces
            .iter()
            .find(|t| t.system == System::Wings)
            .expect("a Wings trace in the corpus");
        let serialized = serialize_trace(wings_trace);
        assert!(serialized.contains('{'), "TriG graph block expected");
        assert_eq!(trace_extension(System::Wings), "prov.trig");
        assert_eq!(trace_extension(System::Taverna), "prov.ttl");
    }

    #[test]
    fn nquads_export_roundtrips() {
        let corpus = small_corpus();
        let nq = export_nquads(&corpus);
        let ds = provbench_rdf::parse_nquads(&nq).unwrap();
        assert_eq!(ds, corpus.combined_dataset());
    }

    #[test]
    fn load_missing_dir_is_empty() {
        let loaded = load(Path::new("/nonexistent/provbench")).unwrap();
        assert!(loaded.traces.is_empty());
    }

    #[test]
    fn parallel_load_matches_sequential() {
        let corpus = small_corpus();
        let dir = tmpdir("parallel");
        save(&corpus, &dir).unwrap();
        let seq_out = load_with_threads(&dir, 1).unwrap();
        let par_out = load_with_threads(&dir, 4).unwrap();
        assert!(seq_out.report.is_clean() && par_out.report.is_clean());
        assert_eq!(seq_out.report.attempted, par_out.report.attempted);
        let (seq, par) = (seq_out.corpus, par_out.corpus);
        assert_eq!(seq.traces.len(), par.traces.len());
        assert_eq!(seq.descriptions.len(), par.descriptions.len());
        for (a, b) in seq.traces.iter().zip(&par.traces) {
            assert_eq!(a.run_id, b.run_id);
            assert_eq!(a.system, b.system);
            assert_eq!(a.template_name, b.template_name);
            assert_eq!(a.dataset, b.dataset);
        }
        for (a, b) in seq.descriptions.iter().zip(&par.descriptions) {
            assert_eq!(a.system, b.system);
            assert_eq!(a.template_name, b.template_name);
            assert_eq!(a.graph, b.graph);
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corpus_store_cold_then_warm() {
        let corpus = small_corpus();
        let dir = tmpdir("snapshot");
        save(&corpus, &dir).unwrap();

        let cold = CorpusStore::open_or_build_with_threads(&dir, 2).unwrap();
        assert!(!cold.provenance.warm);
        assert!(cold.provenance.rebuild_reason.is_none());
        assert!(cold.provenance.snapshot_bytes > 0);
        assert!(dir.join(SNAPSHOT_FILE).exists());

        let warm = CorpusStore::open_or_build_with_threads(&dir, 2).unwrap();
        assert!(warm.provenance.warm, "second open must hit the snapshot");
        assert_eq!(warm.union, cold.union);
        assert_eq!(warm.corpus.traces.len(), cold.corpus.traces.len());
        assert_eq!(
            warm.corpus.descriptions.len(),
            cold.corpus.descriptions.len()
        );
        for (a, b) in cold.corpus.traces.iter().zip(&warm.corpus.traces) {
            assert_eq!(a.run_id, b.run_id);
            assert_eq!(a.dataset, b.dataset);
        }
        assert_eq!(warm.union, corpus.combined_dataset().union_graph());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupted_snapshot_triggers_rebuild() {
        let corpus = small_corpus();
        let dir = tmpdir("corrupt");
        save(&corpus, &dir).unwrap();
        CorpusStore::build(&dir, 2).unwrap();

        // Flip a byte in the middle of the snapshot body.
        let path = dir.join(SNAPSHOT_FILE);
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();

        let store = CorpusStore::open_or_build_with_threads(&dir, 2).unwrap();
        assert!(!store.provenance.warm);
        assert!(
            store.provenance.rebuild_reason.is_some(),
            "corruption must be reported"
        );
        assert_eq!(store.union, corpus.combined_dataset().union_graph());
        // The rebuild rewrote a valid snapshot.
        let again = CorpusStore::open_or_build_with_threads(&dir, 2).unwrap();
        assert!(again.provenance.warm);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_version_snapshot_triggers_rebuild() {
        let corpus = small_corpus();
        let dir = tmpdir("stale");
        save(&corpus, &dir).unwrap();
        CorpusStore::build(&dir, 2).unwrap();

        let path = dir.join(SNAPSHOT_FILE);
        let mut bytes = fs::read(&path).unwrap();
        bytes[6] = 0xFE;
        bytes[7] = 0xFF;
        fs::write(&path, &bytes).unwrap();

        let store = CorpusStore::open_or_build_with_threads(&dir, 2).unwrap();
        assert!(!store.provenance.warm);
        let reason = store.provenance.rebuild_reason.unwrap();
        assert!(reason.contains("version"), "got: {reason}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn changed_sources_invalidate_snapshot() {
        let corpus = small_corpus();
        let dir = tmpdir("changed");
        save(&corpus, &dir).unwrap();
        CorpusStore::build(&dir, 2).unwrap();

        // Append a triple to one trace file: same file count, new bytes.
        let files = source_files(&dir, &REAL_FS).unwrap();
        let trace = files.iter().find(|f| f.rel.ends_with(".prov.ttl")).unwrap();
        let mut content = fs::read_to_string(&trace.path).unwrap();
        content.push_str("<http://example.org/x> <http://example.org/p> \"new\" .\n");
        fs::write(&trace.path, content).unwrap();

        let store = CorpusStore::open_or_build_with_threads(&dir, 2).unwrap();
        assert!(!store.provenance.warm);
        let reason = store.provenance.rebuild_reason.unwrap();
        assert!(reason.contains("source tree changed"), "got: {reason}");
        // The manifest names exactly the edited file.
        assert!(
            reason.contains(&format!("changed {}", trace.rel)),
            "got: {reason}"
        );
        // And the rebuilt union reflects the edit.
        let subject = provbench_rdf::Iri::new("http://example.org/x")
            .unwrap()
            .into();
        assert_eq!(
            store
                .union
                .triples_matching(Some(&subject), None, None)
                .count(),
            1
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn malformed_file_is_quarantined_not_fatal() {
        let corpus = small_corpus();
        let dir = tmpdir("quarantine");
        save(&corpus, &dir).unwrap();
        let reference = CorpusStore::build(&dir, 2).unwrap();
        assert!(reference.ingest.is_clean());

        // Break one Taverna trace mid-file.
        let files = source_files(&dir, &REAL_FS).unwrap();
        let victim = files.iter().find(|f| f.rel.ends_with(".prov.ttl")).unwrap();
        fs::write(&victim.path, "@prefix e: <http://e/> .\nNOT TURTLE %%%\n").unwrap();

        // Default mode: the rest of the corpus still loads, the casualty
        // is quarantined with an actionable position.
        let store = CorpusStore::open_or_build_with_threads(&dir, 2).unwrap();
        assert!(!store.provenance.warm);
        assert_eq!(store.corpus.traces.len(), reference.corpus.traces.len() - 1);
        assert_eq!(store.ingest.errors.len(), 1);
        assert_eq!(store.ingest.attempted, files.len());
        let e = &store.ingest.errors[0];
        assert_eq!(e.path, victim.rel);
        assert_eq!(e.line, Some(2), "{e}");
        assert!(e.column.is_some() && e.byte_offset.is_some(), "{e}");
        assert!(!e.io);
        assert!(dir.join(INGEST_REPORT_FILE).exists());

        // The quarantine survives a warm reopen via the persisted report.
        let warm = CorpusStore::open_or_build_with_threads(&dir, 2).unwrap();
        assert!(warm.provenance.warm);
        assert_eq!(warm.ingest.errors.len(), 1);
        assert_eq!(warm.corpus.traces.len(), store.corpus.traces.len());

        // Strict mode fails fast, with the position in the message —
        // warm and cold alike.
        let strict = StoreOptions {
            strict: true,
            ..StoreOptions::default()
        };
        let err = CorpusStore::open_or_build_opts(&dir, &strict).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(msg.contains(&victim.rel) && msg.contains(":2:"), "{msg}");
        fs::remove_file(dir.join(SNAPSHOT_FILE)).unwrap();
        let err = CorpusStore::open_or_build_opts(&dir, &strict).unwrap_err();
        assert!(err.to_string().contains("strict ingestion"), "{err}");

        // Fixing the file changes the fingerprint → rebuild, clean
        // report, report file gone.
        let original = corpus
            .traces
            .iter()
            .find(|t| victim.rel.contains(&t.run_id))
            .unwrap();
        fs::write(&victim.path, serialize_trace(original)).unwrap();
        let fixed = CorpusStore::open_or_build_with_threads(&dir, 2).unwrap();
        assert!(fixed.ingest.is_clean());
        assert_eq!(fixed.union, reference.union);
        assert!(!dir.join(INGEST_REPORT_FILE).exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_write_leaves_no_temp_and_survives_stale_litter() {
        let corpus = small_corpus();
        let dir = tmpdir("atomic");
        save(&corpus, &dir).unwrap();

        // Plant litter a crashed builder would leave behind: a stale
        // temp file, a stale lock, and a torn half-written snapshot.
        fs::write(dir.join(SNAPSHOT_TMP), b"half a snapshot").unwrap();
        fs::write(dir.join(SNAPSHOT_LOCK), b"").unwrap();
        fs::write(dir.join(SNAPSHOT_FILE), b"PBSNA").unwrap();

        let opts = StoreOptions {
            jobs: 2,
            lock_timeout: Duration::from_millis(200),
            ..StoreOptions::default()
        };
        let store = CorpusStore::open_or_build_opts(&dir, &opts).unwrap();
        assert!(!store.provenance.warm);
        assert!(store.provenance.rebuild_reason.is_some());
        assert!(store.provenance.snapshot_bytes > 0);
        // No litter after a successful build: tmp swept, stolen lock
        // released, snapshot valid.
        assert!(!dir.join(SNAPSHOT_TMP).exists());
        assert!(!dir.join(SNAPSHOT_LOCK).exists());
        let warm = CorpusStore::open_or_build_opts(&dir, &opts).unwrap();
        assert!(warm.provenance.warm);
        assert_eq!(warm.union, store.union);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_cold_open_one_builds_one_waits() {
        let corpus = small_corpus();
        let dir = tmpdir("concurrent");
        save(&corpus, &dir).unwrap();

        let open = || {
            let dir = dir.clone();
            std::thread::spawn(move || {
                let opts = StoreOptions {
                    jobs: 2,
                    lock_timeout: Duration::from_secs(30),
                    ..StoreOptions::default()
                };
                CorpusStore::open_or_build_opts(&dir, &opts).unwrap()
            })
        };
        let (a, b) = (open(), open());
        let a = a.join().unwrap();
        let b = b.join().unwrap();
        // Exactly one thread built; the other warm-loaded the snapshot
        // the builder published (waiting on the lock, not racing it).
        assert!(
            a.provenance.warm != b.provenance.warm,
            "a.warm={} b.warm={}",
            a.provenance.warm,
            b.provenance.warm
        );
        assert_eq!(a.union, b.union);
        assert_eq!(a.corpus.traces.len(), b.corpus.traces.len());
        assert!(!dir.join(SNAPSHOT_LOCK).exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    /// The source fingerprint covers only the RDF under `taverna/` and
    /// `wings/`. Files at the corpus root — the lint cache `serve`
    /// writes there, `void.ttl`, `manifest.tsv` — never move it, so the
    /// serve watcher does not rebuild after its own lint.
    #[test]
    fn root_files_do_not_move_the_source_fingerprint() {
        let corpus = small_corpus();
        let dir = tmpdir("root-files");
        save(&corpus, &dir).unwrap();
        let before = source_fingerprint(&dir).unwrap();
        for name in [
            crate::snapshot::LINT_SNAPSHOT_FILE,
            "void.ttl",
            "manifest.tsv",
        ] {
            for content in ["written\n", "changed, and longer\n"] {
                fs::write(dir.join(name), content).unwrap();
                assert_eq!(source_fingerprint(&dir).unwrap(), before, "{name}");
            }
        }
        // A source file does move it.
        let (system, template) = &corpus.templates[0];
        let source = dir
            .join(system.name().to_ascii_lowercase())
            .join(&template.name)
            .join(description_file(*system));
        fs::write(source, "changed\n").unwrap();
        assert_ne!(source_fingerprint(&dir).unwrap(), before);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn combined_dataset_from_disk_matches_memory() {
        let corpus = small_corpus();
        let dir = tmpdir("combined");
        save(&corpus, &dir).unwrap();
        let loaded = load(&dir).unwrap();
        let mem = corpus.combined_dataset();
        let disk = loaded.combined_dataset();
        assert_eq!(mem.len(), disk.len());
        assert_eq!(mem.default_graph(), disk.default_graph());
        fs::remove_dir_all(&dir).unwrap();
    }
}
