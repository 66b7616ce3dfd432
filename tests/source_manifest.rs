//! One source manifest decides staleness for the store, the lint and
//! the `serve` watcher. A same-size edit — one that keeps the file's
//! byte count, even with its mtime put back — must reach all three; a
//! touch that changes only the stat must cost one read of that one file,
//! never a rebuild or a re-analysis; an unchanged file is not read; and
//! a file that cannot be decoded or read must not make any of the three
//! rebuild over and over.

use provbench::corpus::snapshot::{LINT_SNAPSHOT_FILE, SNAPSHOT_FILE};
use provbench::corpus::store::{self, CorpusStore, StoreOptions};
use provbench::corpus::{Corpus, CorpusSpec, FileStat, StoreFs, REAL_FS};
use provbench::diag::{self, json, CorpusLintOptions, Registry};
use provbench::endpoint::{url_encode, Client};
use std::io::{self, BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant, SystemTime};

const START: &str = "prov:startedAtTime \"2013-";

fn provbench_bin() -> &'static str {
    env!("CARGO_BIN_EXE_provbench")
}

/// A small corpus on disk under a fresh directory.
fn corpus_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("provbench-manifest-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let corpus = Corpus::generate(&CorpusSpec {
        max_workflows: Some(6),
        total_runs: 8,
        failed_runs: 1,
        ..CorpusSpec::default()
    });
    store::save(&corpus, &dir).unwrap();
    dir
}

/// The first Taverna trace that records a start time.
fn timed_trace(dir: &Path) -> PathBuf {
    diag::collect_rdf_files(dir)
        .unwrap()
        .into_iter()
        .find(|p| {
            p.to_string_lossy().ends_with(".prov.ttl")
                && std::fs::read_to_string(p).unwrap().contains(START)
        })
        .expect("a Taverna trace with a start time")
}

/// Move the trace's first start time from 2013 to 2099 — after its
/// end, so the lint reports PB0101 — without changing the file's size.
/// Returns the query that finds the edited triple.
fn same_size_edit(path: &Path) -> String {
    let text = std::fs::read_to_string(path).unwrap();
    let at = text.find(START).unwrap() + START.len();
    let rest = &text[at..];
    let time = format!("2099-{}", &rest[..rest.find('"').unwrap()]);
    let edited = text.replacen(START, "prov:startedAtTime \"2099-", 1);
    assert_eq!(edited.len(), text.len());
    std::fs::write(path, edited).unwrap();
    format!(
        "SELECT ?a WHERE {{ ?a <http://www.w3.org/ns/prov#startedAtTime> \
         \"{time}\"^^<http://www.w3.org/2001/XMLSchema#dateTime> }}"
    )
}

/// Replace one byte of `path` with one that is never UTF-8, keeping the
/// file's size.
fn break_utf8(path: &Path) {
    let mut bytes = std::fs::read(path).unwrap();
    bytes[0] = 0xFF;
    std::fs::write(path, bytes).unwrap();
}

fn set_mtime(path: &Path, time: SystemTime) {
    let file = std::fs::File::options().write(true).open(path).unwrap();
    file.set_modified(time).unwrap();
}

/// Rows `provbench query --dir DIR` prints for `query`.
fn query_rows(dir: &Path, query: &str) -> usize {
    let out = Command::new(provbench_bin())
        .args(["query", query, "--dir", dir.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // A header line, then one line per row.
    String::from_utf8(out.stdout).unwrap().lines().count() - 1
}

fn rel(dir: &Path, path: &Path) -> String {
    path.strip_prefix(dir)
        .unwrap()
        .to_string_lossy()
        .replace('\\', "/")
}

fn lint_opts() -> CorpusLintOptions {
    CorpusLintOptions {
        jobs: 1,
        corpus_rules: true,
        incremental: true,
        cache_path: None,
    }
}

/// The real filesystem, with every read recorded, and every read of
/// `denied` refused.
#[derive(Default)]
struct ReadLog {
    log: Mutex<Vec<PathBuf>>,
    denied: Option<PathBuf>,
}

impl ReadLog {
    /// The files read since the last call, as paths relative to `dir`.
    fn take(&self, dir: &Path) -> Vec<String> {
        let mut log = self.log.lock().unwrap();
        log.drain(..).map(|p| rel(dir, &p)).collect()
    }

    fn log(&self, path: &Path) -> io::Result<()> {
        self.log.lock().unwrap().push(path.to_path_buf());
        match &self.denied {
            Some(denied) if denied == path => Err(io::ErrorKind::PermissionDenied.into()),
            _ => Ok(()),
        }
    }
}

impl StoreFs for ReadLog {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.log(path)?;
        REAL_FS.read(path)
    }
    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        REAL_FS.write(path, data)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        REAL_FS.rename(from, to)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        REAL_FS.remove_file(path)
    }
    fn stat(&self, path: &Path) -> io::Result<FileStat> {
        REAL_FS.stat(path)
    }
    fn create_lock(&self, path: &Path) -> io::Result<()> {
        REAL_FS.create_lock(path)
    }
}

#[test]
fn same_size_edit_rebuilds_the_store() {
    let dir = corpus_dir("edit");
    let trace = timed_trace(&dir);
    assert!(!CorpusStore::open_or_build(&dir).unwrap().provenance.warm);
    let query = same_size_edit(&trace);
    let store = CorpusStore::open_or_build(&dir).unwrap();
    assert!(!store.provenance.warm, "a same-size edit must rebuild");
    let reason = store.provenance.rebuild_reason.unwrap();
    assert!(
        reason.contains(&format!("changed {}", rel(&dir, &trace))),
        "{reason}"
    );
    assert_eq!(query_rows(&dir, &query), 1);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn same_size_edit_with_its_mtime_put_back_rebuilds_the_store() {
    let dir = corpus_dir("mtime");
    let trace = timed_trace(&dir);
    let mtime = std::fs::metadata(&trace).unwrap().modified().unwrap();
    assert!(!CorpusStore::open_or_build(&dir).unwrap().provenance.warm);
    let query = same_size_edit(&trace);
    set_mtime(&trace, mtime);
    assert_eq!(
        std::fs::metadata(&trace).unwrap().modified().unwrap(),
        mtime
    );
    // Only the change time still tells (on unix); the query sees the
    // edit through a rebuild.
    assert_eq!(query_rows(&dir, &query), 1);
    assert!(CorpusStore::open_or_build(&dir).unwrap().provenance.warm);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_touch_reads_one_file_and_rebuilds_nothing() {
    let dir = corpus_dir("touch");
    let trace = timed_trace(&dir);
    let registry = Registry::with_corpus_rules();
    let reads = ReadLog::default();
    let opts = StoreOptions {
        fs: &reads,
        ..StoreOptions::default()
    };
    let open = || CorpusStore::open_or_build_opts(&dir, &opts).unwrap();
    let lint = || diag::lint_corpus_incremental_fs(&dir, &registry, &lint_opts(), &reads).unwrap();
    let sources = |log: Vec<String>| -> Vec<String> {
        log.into_iter()
            .filter(|p| p.ends_with(".ttl") || p.ends_with(".trig"))
            .collect()
    };
    assert!(!open().provenance.warm);
    assert_eq!(
        lint().analyzed,
        diag::collect_rdf_files(&dir).unwrap().len()
    );
    reads.take(&dir);

    // Warm: no source is read.
    assert!(open().provenance.warm);
    let warm = lint();
    assert_eq!((warm.analyzed, warm.cache_written), (0, false));
    assert_eq!(sources(reads.take(&dir)), Vec::<String>::new());

    // A touch moves the stat, not the bytes: the file is read and
    // found unchanged; the store stays warm and the lint analyzes
    // nothing. Both record the new stat, so their next runs read
    // nothing.
    set_mtime(&trace, SystemTime::now() - Duration::from_secs(5));
    assert!(open().provenance.warm);
    let touched = lint();
    assert_eq!((touched.analyzed, touched.cache_written), (0, true));
    let trace_rel = rel(&dir, &trace);
    assert_eq!(
        sources(reads.take(&dir)),
        [trace_rel.clone(), trace_rel.clone()]
    );
    let mut served = open();
    assert!(served.provenance.warm);
    assert_eq!(lint().analyzed, 0);
    assert_eq!(sources(reads.take(&dir)), Vec::<String>::new());

    // The `serve` watcher's check: the same one read after a touch, and
    // none at the next poll.
    set_mtime(&trace, SystemTime::now() - Duration::from_secs(4));
    for expected in [vec![trace_rel], vec![]] {
        let files = store::source_files(&dir, &reads).unwrap();
        let check = store::check_sources(&dir, &reads, &mut served.manifest, &files, &[]);
        assert_eq!(check, Ok(()));
        assert_eq!(sources(reads.take(&dir)), expected);
    }
    assert!(open().provenance.warm);
    assert_eq!(sources(reads.take(&dir)), Vec::<String>::new());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A source that is not UTF-8 is quarantined and recorded, so the store
/// stays warm and the lint replays its finding; a dangling link is no
/// source of the store, but the lint reports it; and a source that
/// cannot be read at all is retried by the watcher, not reloaded.
#[test]
fn sources_that_fail_to_decode_or_read_keep_the_store_warm() {
    let dir = corpus_dir("bytes");
    let trace = timed_trace(&dir);
    break_utf8(&trace);
    #[cfg(unix)]
    std::os::unix::fs::symlink(dir.join("gone"), trace.with_file_name("dangling.prov.ttl"))
        .unwrap();
    let cold = CorpusStore::open_or_build(&dir).unwrap();
    assert!(!cold.provenance.warm);
    let errors: Vec<String> = cold.ingest.errors.iter().map(|e| e.to_string()).collect();
    let not_utf8 = format!("{}: stream did not contain valid UTF-8", rel(&dir, &trace));
    assert_eq!(errors, [not_utf8]);
    let warm = CorpusStore::open_or_build(&dir).unwrap();
    assert!(warm.provenance.warm, "{:?}", warm.provenance.rebuild_reason);
    assert_eq!(warm.ingest, cold.ingest);

    let registry = Registry::with_corpus_rules();
    let lint = || diag::lint_corpus_incremental(&dir, &registry, &lint_opts()).unwrap();
    let first = lint();
    let finding = |path: &Path| {
        let label = diag::corpus_label(&dir, path);
        let report = first.reports.iter().find(|r| r.path == label).unwrap();
        report.diagnostics[0].message.clone()
    };
    assert_eq!(
        finding(&trace),
        "cannot read file: stream did not contain valid UTF-8"
    );
    let second = lint();
    assert_eq!(
        diag::render_jsonl(&second.reports),
        diag::render_jsonl(&first.reports)
    );
    #[cfg(unix)]
    {
        let link = trace.with_file_name("dangling.prov.ttl");
        assert!(finding(&link).starts_with("cannot read file: "));
        // A file that could not be read is never recorded: read again.
        assert_eq!(second.analyzed, 1);
    }

    // A source that cannot be read is quarantined and never recorded.
    // The watcher, told which files could not be read, tries each of
    // them again at a poll without reloading; told none, it reloads.
    let other = diag::collect_rdf_files(&dir)
        .unwrap()
        .into_iter()
        .find(|p| p.to_string_lossy().ends_with(".prov.ttl") && p.is_file() && *p != trace)
        .unwrap();
    let denied = ReadLog {
        denied: Some(other.clone()),
        ..ReadLog::default()
    };
    let opts = StoreOptions {
        fs: &denied,
        ..StoreOptions::default()
    };
    // Touched, so that the open reads it.
    set_mtime(&other, SystemTime::now() - Duration::from_secs(3));
    let mut store = CorpusStore::open_or_build_opts(&dir, &opts).unwrap();
    assert!(!store.provenance.warm);
    let unreadable = store.ingest.errors.iter().filter(|e| e.io);
    let unreadable: Vec<String> = unreadable.map(|e| e.path.clone()).collect();
    assert_eq!(unreadable, [rel(&dir, &other)]);
    let files = store::source_files(&dir, &denied).unwrap();
    denied.take(&dir);
    let manifest = &mut store.manifest;
    assert_eq!(
        store::check_sources(&dir, &denied, manifest, &files, &unreadable),
        Ok(())
    );
    assert_eq!(denied.take(&dir), [rel(&dir, &other)]);
    assert!(store::check_sources(&dir, &denied, manifest, &files, &[]).is_err());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn same_size_edit_with_its_mtime_put_back_is_linted() {
    let dir = corpus_dir("lint");
    let trace = timed_trace(&dir);
    let registry = Registry::with_corpus_rules();
    let cold = diag::lint_corpus_incremental(&dir, &registry, &lint_opts()).unwrap();
    assert!(cold.analyzed > 1);
    let mtime = std::fs::metadata(&trace).unwrap().modified().unwrap();
    same_size_edit(&trace);
    set_mtime(&trace, mtime);
    let edit = diag::lint_corpus_incremental(&dir, &registry, &lint_opts()).unwrap();
    assert_eq!(edit.analyzed, 1, "exactly the edited file");
    let label = diag::corpus_label(&dir, &trace);
    let report = edit.reports.iter().find(|r| r.path == label).unwrap();
    assert!(report.diagnostics.iter().any(|d| d.rule.id == "PB0101"));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn older_cache_formats_rebuild_cleanly() {
    let dir = corpus_dir("formats");
    let registry = Registry::with_corpus_rules();
    let reference = CorpusStore::open_or_build(&dir).unwrap();
    let cold = diag::lint_corpus_incremental(&dir, &registry, &lint_opts()).unwrap();
    // Stamp each file with the previous format version.
    for (file, version) in [(SNAPSHOT_FILE, 2u16), (LINT_SNAPSHOT_FILE, 1)] {
        let path = dir.join(file);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[6..8].copy_from_slice(&version.to_le_bytes());
        std::fs::write(&path, bytes).unwrap();
    }
    let store = CorpusStore::open_or_build(&dir).unwrap();
    assert!(!store.provenance.warm);
    let reason = store.provenance.rebuild_reason.unwrap();
    assert!(reason.contains("version 2"), "{reason}");
    assert_eq!(store.union, reference.union);
    let lint = diag::lint_corpus_incremental(&dir, &registry, &lint_opts()).unwrap();
    assert_eq!(lint.analyzed, cold.analyzed);
    assert_eq!(
        diag::render_jsonl(&lint.reports),
        diag::render_jsonl(&cold.reports)
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A lint cache that cannot be put in place — here, a directory sits at
/// its path — fails the lint and leaves no temp file behind.
#[test]
fn failed_lint_cache_write_leaves_no_temp_file() {
    let dir = corpus_dir("tmp");
    std::fs::create_dir(dir.join(LINT_SNAPSHOT_FILE)).unwrap();
    let out = Command::new(provbench_bin())
        .args(["lint", "--dir", dir.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(!dir.join("corpus.lint.snapshot.tmp").exists());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `provbench serve --dir DIR` on a free port, once its first load and
/// lint are published: the child, its address and its further log
/// lines (the server's log is drained for as long as it runs).
fn serve(dir: &Path) -> (Child, String, mpsc::Receiver<String>) {
    let mut child = Command::new(provbench_bin())
        .args([
            "serve",
            "--dir",
            dir.to_str().unwrap(),
            "--addr",
            "127.0.0.1:0",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let stderr = BufReader::new(child.stderr.take().unwrap());
    let (lines, log) = mpsc::channel();
    std::thread::spawn(move || {
        for line in stderr.lines().map_while(Result::ok) {
            let _ = lines.send(line);
        }
    });
    let mut addr = None;
    for line in log.iter() {
        if let Some(rest) = line.strip_prefix("listening on http://") {
            addr = Some(rest.trim_end_matches('/').to_owned());
        }
        if line.starts_with("lint report published") {
            break;
        }
    }
    (child, format!("http://{}", addr.unwrap()), log)
}

/// A running `serve --dir` picks up a same-size edit within 10 s: the
/// query sees the edited triple and `/lint` its PB0101.
#[test]
fn serve_reloads_after_a_same_size_edit() {
    let dir = corpus_dir("serve");
    let trace = timed_trace(&dir);
    let (mut child, addr, _log) = serve(&dir);
    let client = Client::new(&addr).unwrap();
    let query = same_size_edit(&trace);
    let path = format!("/sparql?format=tsv&query={}", url_encode(&query));
    let start = Instant::now();
    let mut rows = 0;
    while start.elapsed() < Duration::from_secs(10) {
        let answer = client.get(&path).unwrap();
        assert_eq!(answer.status, 200, "{}", answer.text());
        rows = answer.text().lines().count() - 1;
        if rows == 1 {
            break;
        }
        std::thread::sleep(Duration::from_millis(200));
    }
    let lint = client.get("/lint").unwrap().text();
    let _ = child.kill();
    let _ = child.wait();
    assert_eq!(rows, 1, "serve still answers from the old corpus");
    let label = diag::corpus_label(&dir, &trace);
    let report = json::parse(&lint).unwrap();
    let found = report
        .get("diagnostics")
        .and_then(json::Json::as_array)
        .unwrap()
        .iter()
        .any(|d| {
            let field = |k: &str| d.get(k).and_then(json::Json::as_str);
            field("rule") == Some("PB0101") && field("file") == Some(label.as_str())
        });
    assert!(found, "/lint lacks the edit's PB0101: {lint}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A source that is not UTF-8 is loaded once: the watcher's polls (one
/// every 2 s) find nothing to reload.
#[test]
fn serve_loads_a_source_it_cannot_decode_once() {
    let dir = corpus_dir("serve-bytes");
    break_utf8(&timed_trace(&dir));
    let (mut child, _addr, log) = serve(&dir);
    std::thread::sleep(Duration::from_secs(7));
    let _ = child.kill();
    let _ = child.wait();
    let reloads: Vec<String> = log
        .try_iter()
        .filter(|l| l.starts_with("corpus loaded"))
        .collect();
    assert_eq!(reloads, Vec::<String>::new(), "three polls must not reload");
    std::fs::remove_dir_all(&dir).unwrap();
}
