//! One lint driver behind every entry point: on a corpus written by
//! `provbench generate`, `lint DIR`, `lint --dir DIR`, the no-path lint
//! and the `GET /lint` report of `serve --dir DIR` lint the same files
//! and report the same findings.

use provbench::diag::{collect_rdf_files, json};
use provbench::endpoint::Client;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Command, Stdio};

fn provbench_bin() -> &'static str {
    env!("CARGO_BIN_EXE_provbench")
}

/// Run `provbench ARGS`, require success, and return its stdout plus
/// the child's process id.
fn provbench(args: &[&str]) -> (String, u32) {
    let child = Command::new(provbench_bin())
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn provbench");
    let pid = child.id();
    let out = child.wait_with_output().expect("wait for provbench");
    assert!(
        out.status.success(),
        "provbench {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    (String::from_utf8(out.stdout).expect("UTF-8 stdout"), pid)
}

/// `file -> sorted rule ids` of a `--format json` lint output.
fn rules_per_file(jsonl: &str) -> BTreeMap<String, Vec<String>> {
    let mut rules: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for line in jsonl.lines() {
        let d = json::parse(line).expect("one JSON object per line");
        let field = |key: &str| d.get(key).and_then(json::Json::as_str).unwrap().to_owned();
        rules.entry(field("file")).or_default().push(field("rule"));
    }
    for ids in rules.values_mut() {
        ids.sort();
    }
    rules
}

/// The `GET /lint` and `GET /metrics` bodies of `provbench serve --dir
/// DIR`, fetched once the server reports the lint published.
fn served_lint_report(dir: &Path) -> (String, String) {
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
        .expect("spawn provbench serve");
    let mut lines = BufReader::new(child.stderr.take().unwrap()).lines();
    let mut addr = None;
    for line in lines.by_ref() {
        let line = line.expect("read serve stderr");
        if let Some(rest) = line.strip_prefix("listening on http://") {
            addr = Some(rest.trim_end_matches('/').to_owned());
        }
        assert!(
            !line.starts_with("lint failed") && !line.starts_with("corpus load failed"),
            "{line}"
        );
        if line.starts_with("lint report published") {
            break;
        }
    }
    let addr = addr.expect("serve announced its address before publishing the lint");
    let client = Client::new(&format!("http://{addr}")).unwrap();
    let lint = client.get("/lint").expect("GET /lint");
    let metrics = client.get("/metrics").expect("GET /metrics");
    let _ = child.kill();
    let _ = child.wait();
    assert_eq!(lint.status, 200, "{}", lint.text());
    (lint.text(), metrics.text())
}

#[test]
fn every_lint_entry_point_reports_the_same_findings() {
    let root =
        std::env::temp_dir().join(format!("provbench-lint-agreement-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let dir = root.join("corpus");
    let d = dir.to_str().unwrap();
    provbench(&["generate", "--out", d]);

    let (cli, _) = provbench(&["lint", d, "--corpus-rules", "--format", "json"]);
    let (via_dir, _) = provbench(&["lint", "--dir", d, "--corpus-rules", "--format", "json"]);
    assert_eq!(cli, via_dir, "`lint DIR` and `lint --dir DIR` disagree");

    // The no-path lint writes the same corpus under a temporary
    // `corpus` directory, so its labels match this one's; it removes
    // that directory afterwards.
    let (generated, pid) = provbench(&["lint", "--corpus-rules", "--format", "json"]);
    assert_eq!(rules_per_file(&generated), rules_per_file(&cli));
    assert!(!std::env::temp_dir()
        .join(format!("provbench-lint-{pid}"))
        .exists());

    let (body, metrics) = served_lint_report(&dir);
    let report = json::parse(&body).expect("/lint is JSON");
    let files = collect_rdf_files(&dir).expect("collect corpus files").len();
    assert_eq!(
        report.get("files").and_then(json::Json::as_num),
        Some(files as f64)
    );
    // `lint --dir` left the lint cache behind, so serve replays every
    // file, and counts the report's findings once.
    assert!(metrics.contains(&format!(
        "provbench_lint_files_total{{mode=\"replayed\"}} {files}\n"
    )));
    assert!(!metrics.contains("provbench_lint_files_total{mode=\"analyzed\"}"));
    for severity in ["error", "warning", "info"] {
        let n = report
            .get(&format!("{severity}s"))
            .and_then(json::Json::as_num);
        let line = format!("provbench_lint_findings_total{{severity=\"{severity}\"}} ");
        let counted = metrics.lines().find_map(|l| l.strip_prefix(&line));
        assert_eq!(
            counted.map_or(0.0, |c| c.parse().unwrap()),
            n.unwrap(),
            "{severity}"
        );
    }
    let served: String = report
        .get("diagnostics")
        .and_then(json::Json::as_array)
        .expect("diagnostics array")
        .iter()
        .map(|d| d.to_compact() + "\n")
        .collect();
    assert_eq!(served, cli, "/lint and `lint DIR` disagree");
    let _ = std::fs::remove_dir_all(&root);
}
