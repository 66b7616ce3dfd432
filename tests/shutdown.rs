//! Process-level suite for `provbench serve`: a served endpoint, killed
//! with SIGTERM mid-work, drains in-flight requests and exits 0; an
//! idle one does not wake; and no request or corpus file, however
//! deeply it nests, aborts it or the other commands that open a corpus.
//!
//! The in-process drain mechanics (draining visible on `/readyz`,
//! drain-duration histogram, worker join) are unit-tested in
//! `provbench-endpoint`; this suite proves the wiring end to end
//! through the real binary: signal handler installation, the
//! bind-first `listening on …` line, `--drain-ms`, the retrying
//! `--endpoint` client, and the process exit code. A stack overflow
//! aborts the whole process, so only the real binary can show that a
//! deep query or corpus file does not overflow one.

use provbench::corpus::{store, Corpus, CorpusSpec};
use provbench::endpoint::{Client, ClientConfig};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn provbench_bin() -> &'static str {
    env!("CARGO_BIN_EXE_provbench")
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("provbench-shutdown-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A corpus small enough to load quickly, big enough that a cross-join
/// query holds a worker for a noticeable moment.
fn write_corpus(dir: &Path) {
    let spec = CorpusSpec {
        max_workflows: Some(2),
        total_runs: 3,
        failed_runs: 0,
        ..CorpusSpec::default()
    };
    store::save(&Corpus::generate(&spec), dir).unwrap();
}

/// Spawn `provbench serve` on an OS-assigned port and return the child
/// plus the address parsed from its bind-first `listening on …` line.
/// Remaining stderr is drained to a thread so the child never blocks
/// on a full pipe.
fn spawn_server(dir: &Path, drain_ms: u64) -> (Child, String, std::sync::mpsc::Receiver<String>) {
    let mut child = Command::new(provbench_bin())
        .args([
            "serve",
            "--dir",
            dir.to_str().unwrap(),
            "--addr",
            "127.0.0.1:0",
            "--drain-ms",
            &drain_ms.to_string(),
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let stderr = child.stderr.take().unwrap();
    let mut lines = BufReader::new(stderr).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("server exited before announcing its address")
            .unwrap();
        if let Some(rest) = line.strip_prefix("listening on http://") {
            break rest.trim_end_matches('/').to_owned();
        }
    };
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        for line in lines.map_while(Result::ok) {
            let _ = tx.send(line);
        }
    });
    (child, addr, rx)
}

/// A client that makes one attempt per request.
fn client(addr: &str) -> Client {
    Client::with_config(
        &format!("http://{addr}"),
        ClientConfig {
            max_attempts: 1,
            ..ClientConfig::default()
        },
    )
    .unwrap()
}

/// Poll `/readyz` until the background corpus load lands.
fn await_ready(addr: &str) {
    let client = client(addr);
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        if let Ok(r) = client.get("/readyz") {
            if r.status == 200 {
                return;
            }
        }
        assert!(Instant::now() < deadline, "corpus never became ready");
        std::thread::sleep(Duration::from_millis(200));
    }
}

/// Wait for the child to exit, with a deadline — a hung drain must
/// fail the test, not the suite's timeout.
fn wait_with_deadline(child: &mut Child, deadline: Duration) -> std::process::ExitStatus {
    let start = Instant::now();
    loop {
        if let Some(status) = child.try_wait().unwrap() {
            return status;
        }
        if start.elapsed() > deadline {
            let _ = child.kill();
            panic!("server did not exit within {deadline:?} of SIGTERM");
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

#[test]
fn sigterm_drains_inflight_work_and_exits_zero() {
    let dir = tmpdir("sigterm");
    write_corpus(&dir);
    let (mut child, addr, stderr) = spawn_server(&dir, 30_000);
    await_ready(&addr);

    // End-to-end check of the retrying client wiring: `provbench query
    // --endpoint` against the live server.
    let remote = Command::new(provbench_bin())
        .args([
            "query",
            "SELECT (COUNT(?r) AS ?runs) WHERE { ?r a wfprov:WorkflowRun }",
            "--endpoint",
            &format!("http://{addr}"),
        ])
        .output()
        .unwrap();
    assert!(
        remote.status.success(),
        "remote query failed: {}",
        String::from_utf8_lossy(&remote.stderr)
    );
    let stdout = String::from_utf8_lossy(&remote.stdout);
    assert!(stdout.starts_with("runs"), "unexpected TSV: {stdout}");

    // Put a slow cross-join in flight, then SIGTERM the server while
    // the worker is still chewing on it.
    let slow = std::thread::spawn({
        let addr = addr.clone();
        move || {
            let query = provbench::endpoint::url_encode(
                "SELECT (COUNT(*) AS ?n) WHERE { ?a ?b ?c . ?d ?e ?f }",
            );
            let mut stream = TcpStream::connect(&addr).unwrap();
            write!(
                stream,
                "GET /sparql?query={query} HTTP/1.1\r\nHost: t\r\n\r\n"
            )
            .unwrap();
            let mut response = String::new();
            stream.read_to_string(&mut response).unwrap();
            response
        }
    });
    std::thread::sleep(Duration::from_millis(150));

    let kill = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .unwrap();
    assert!(kill.success());

    // The in-flight request completes, byte-complete, despite the
    // signal landing mid-evaluation.
    let response = slow.join().unwrap();
    assert!(
        response.starts_with("HTTP/1.1 200"),
        "in-flight request was dropped: {response}"
    );
    let body = response.split("\r\n\r\n").nth(1).unwrap_or("");
    assert!(
        response.contains(&format!("Content-Length: {}\r\n", body.len())),
        "truncated response: {response}"
    );

    // And the process drains and exits 0 well inside the drain budget.
    let status = wait_with_deadline(&mut child, Duration::from_secs(30));
    assert!(status.success(), "exit status {status:?}");
    let tail: Vec<String> = stderr.try_iter().collect();
    assert!(
        tail.iter().any(|l| l.contains("drained")),
        "no drain message in stderr tail: {tail:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// SIGTERM with nothing in flight: immediate clean exit — the drain
/// loop must not wait out its deadline when there is nothing to drain.
#[test]
fn sigterm_when_idle_exits_promptly() {
    let dir = tmpdir("idle");
    write_corpus(&dir);
    let (mut child, addr, _stderr) = spawn_server(&dir, 30_000);
    await_ready(&addr);

    let sent = Instant::now();
    let kill = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .unwrap();
    assert!(kill.success());
    let status = wait_with_deadline(&mut child, Duration::from_secs(10));
    assert!(status.success(), "exit status {status:?}");
    assert!(
        sent.elapsed() < Duration::from_secs(5),
        "idle shutdown took {:?}",
        sent.elapsed()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Context switches (voluntary plus nonvoluntary, summed over every
/// thread) and CPU ticks (user plus system) the process has used.
#[cfg(target_os = "linux")]
fn switches_and_ticks(pid: u32) -> (u64, u64) {
    let mut switches = 0;
    for task in std::fs::read_dir(format!("/proc/{pid}/task")).unwrap() {
        let status = std::fs::read_to_string(task.unwrap().path().join("status"));
        for line in status.unwrap_or_default().lines() {
            if let Some((key, value)) = line.split_once(':') {
                if key.ends_with("voluntary_ctxt_switches") {
                    switches += value.trim().parse::<u64>().unwrap();
                }
            }
        }
    }
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap();
    // Fields after the parenthesized command name: state is the first,
    // utime and stime the 12th and 13th.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .unwrap()
        .1
        .split_whitespace()
        .collect();
    let ticks = fields[11].parse::<u64>().unwrap() + fields[12].parse::<u64>().unwrap();
    (switches, ticks)
}

/// An idle server sleeps: every thread blocks (in `accept`, on the
/// worker queue, on the shutdown signal), and only the corpus watcher
/// wakes, once every 2 s.
#[cfg(target_os = "linux")]
#[test]
fn idle_server_does_not_wake() {
    let dir = tmpdir("quiet");
    write_corpus(&dir);
    let (mut child, addr, _stderr) = spawn_server(&dir, 30_000);
    await_ready(&addr);

    let (switches, ticks) = switches_and_ticks(child.id());
    std::thread::sleep(Duration::from_secs(2));
    let (switches_after, ticks_after) = switches_and_ticks(child.id());
    let _ = child.kill();
    let _ = child.wait();
    let _ = std::fs::remove_dir_all(&dir);
    let (switched, ticked) = (switches_after - switches, ticks_after - ticks);
    assert!(
        switched < 20,
        "{switched} context switches in 2 idle seconds"
    );
    assert!(ticked < 10, "{ticked} CPU ticks in 2 idle seconds");
}

/// Queries that nest far past the parser's limit are each refused with
/// a spanned 400; none overflows a worker's stack, which would abort
/// the process.
#[test]
fn deep_queries_get_a_spanned_400_and_the_server_lives() {
    let dir = tmpdir("deep");
    write_corpus(&dir);
    let (mut child, addr, _stderr) = spawn_server(&dir, 30_000);
    await_ready(&addr);

    let parens = format!(
        "SELECT ?o WHERE {{ ?s ?p ?o FILTER({}?o{}) }}",
        "(".repeat(2000),
        ")".repeat(2000)
    );
    let disjuncts = vec!["?o = 1"; 20_000].join(" || ");
    let disjunction = format!("SELECT ?o WHERE {{ ?s ?p ?o FILTER({disjuncts}) }}");
    let arms = vec!["{?s ?p ?o}"; 20_000].join(" UNION ");
    let union = format!("SELECT ?o WHERE {{ {arms} }}");
    let client = client(&addr);
    for (shape, query) in [
        ("2,000 parentheses", &parens),
        ("20,000 || terms", &disjunction),
        ("20,000 UNION arms", &union),
    ] {
        let response = client
            .post("/sparql", "application/sparql-query", query)
            .unwrap_or_else(|e| panic!("{shape}: no response ({e})"));
        let body = response.text();
        assert_eq!(response.status, 400, "{shape}: {body}");
        assert!(body.contains("\"error\":\"parse\""), "{shape}: {body}");
        assert!(body.contains("nests deeper than"), "{shape}: {body}");
        assert!(body.contains("\"line\":1,\"column\":"), "{shape}: {body}");
    }

    let healthz = client.get("/healthz").unwrap();
    assert_eq!(healthz.status, 200);
    let metrics = client.get("/metrics").unwrap().text();
    assert!(
        metrics.lines().any(|l| l == "provbench_panics_total 0"),
        "{metrics}"
    );
    let _ = child.kill();
    let _ = child.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `write_corpus` with its first Taverna trace replaced by `text`;
/// returns that trace's path relative to `dir`.
fn corpus_with_trace(dir: &Path, text: &str) -> String {
    write_corpus(dir);
    let template = std::fs::read_dir(dir.join("taverna"))
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .min()
        .unwrap();
    let rel = format!("taverna/{template}/{template}-run-1.prov.ttl");
    assert!(dir.join(&rel).exists(), "{rel}");
    std::fs::write(dir.join(&rel), text).unwrap();
    rel
}

/// A trace that nests 5,000 blank-node property lists.
fn deep_trace() -> String {
    let n = 5000;
    format!(
        "@prefix : <http://e/> .\n:a :p {}:z{} .\n",
        "[ :p ".repeat(n),
        " ]".repeat(n)
    )
}

/// Run the binary with `args`; its exit code and its stdout and stderr.
fn run(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(provbench_bin()).args(args).output().unwrap();
    let text =
        String::from_utf8_lossy(&out.stdout).into_owned() + &String::from_utf8_lossy(&out.stderr);
    (out.status.code(), text)
}

/// A corpus file nested far past the parser's limit is quarantined by
/// `query --dir`, which answers over the rest, and reported as PB0001 by
/// `lint`, with the exit code of any other parse error. On a parallel
/// open the parse runs on a spawned thread, whose stack it overflowed.
#[test]
fn a_deep_corpus_file_is_quarantined_and_linted() {
    let deep = tmpdir("deep-file");
    let rel = corpus_with_trace(&deep, &deep_trace());
    let d = deep.to_str().unwrap();
    let (code, text) = run(&["query", "ASK { ?s ?p ?o }", "--dir", d, "--jobs", "2"]);
    assert_eq!(code, Some(0), "{text}");
    assert!(text.contains("warning: 1 of 5 files quarantined"), "{text}");
    let report = std::fs::read_to_string(deep.join("corpus.ingest-report.tsv")).unwrap();
    assert!(
        report.contains(&rel) && report.contains("nests deeper than 128 levels"),
        "{report}"
    );

    let (code, text) = run(&["lint", d, "--jobs", "2"]);
    let finding = format!("{rel}:2:");
    let line = text
        .lines()
        .find(|l| l.contains(&finding))
        .unwrap_or_else(|| panic!("{text}"));
    assert!(
        line.contains("nests deeper than 128 levels [PB0001]"),
        "{line}"
    );

    let broken = tmpdir("broken-file");
    corpus_with_trace(&broken, "@prefix : <http://e/> .\nNOT TURTLE %%%\n");
    let (other, text) = run(&["lint", broken.to_str().unwrap(), "--jobs", "2"]);
    assert!(text.contains("[PB0001]"), "{text}");
    assert_eq!(code, other);
    assert!(code.is_some_and(|c| c != 0 && c != 134));
    let _ = std::fs::remove_dir_all(&deep);
    let _ = std::fs::remove_dir_all(&broken);
}

/// `serve` loads a corpus holding a deep file, with that file
/// quarantined, and stays up.
#[test]
fn serve_loads_a_corpus_with_a_deep_file() {
    let dir = tmpdir("deep-serve");
    corpus_with_trace(&dir, &deep_trace());
    let (mut child, addr, _stderr) = spawn_server(&dir, 30_000);
    await_ready(&addr);
    let client = client(&addr);
    assert_eq!(client.get("/healthz").unwrap().status, 200);
    let ask = client
        .post("/sparql", "application/sparql-query", "ASK { ?s ?p ?o }")
        .unwrap();
    assert_eq!(ask.status, 200, "{}", ask.text());
    assert!(child.try_wait().unwrap().is_none(), "serve exited");
    let _ = child.kill();
    let _ = child.wait();
    let _ = std::fs::remove_dir_all(&dir);
}
