//! `benchmark`: end-to-end and per-layer benchmark of the provbench
//! corpus system. See `perfbench/BENCHMARK.md` for the metric catalog.
//!
//! ```text
//! benchmark run --workload NAME --seed N [--seconds S] [--trace 0|1]
//!               [--out FILE.json] [--trace-out FILE.jsonl]
//! benchmark compare BASE.json... [-- NEW.json...]
//! ```
//!
//! `run` must start in the repository root (it reads `BENCHMARK.json`
//! there) with `PERFBENCH_PROVBENCH` naming the `provbench` binary;
//! `perfbench/bench.sh` builds both and sets it.

mod compare;
mod lint;
mod open;
mod serve;
mod trace;
mod util;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use util::{json_str, Json};

/// Where results, traces and the temporary corpora live, relative to
/// the repository root.
pub const OUT_DIR: &str = "perfbench-out";

/// Everything a workload needs to run.
pub struct Ctx {
    /// The `provbench` CLI under test.
    pub provbench: PathBuf,
    /// This binary, for the `open-child` helper processes.
    pub self_exe: PathBuf,
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    pub nproc: usize,
    /// Scratch directory for this run; removed when the run ends.
    pub work: PathBuf,
}

/// What a workload measured and checked.
#[derive(Default)]
pub struct Report {
    /// `(name, value, unit)` in the order measured.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Workload parameters recorded with the result.
    pub params: Vec<(&'static str, String)>,
    /// Operations attempted (requests, opens, lint runs).
    pub attempted: u64,
    /// Operations that failed, were refused, or gave a wrong answer.
    pub failed: u64,
    /// Correctness gates that failed.
    pub gate_failures: Vec<String>,
    /// Reasons the run is not a valid measurement.
    pub invalid: Vec<String>,
    /// Spans of the traced replay.
    pub trace_jsonl: String,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_owned(), value, unit));
    }

    pub fn param(&mut self, name: &'static str, value: impl ToString) {
        self.params.push((name, value.to_string()));
    }

    /// Count one operation; a failed one also fails the correctness gate.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.gate_failures.len() < 20 {
                self.gate_failures.push(what());
            }
        }
    }

    /// A correctness gate that is not itself an operation.
    pub fn gate(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.gate_failures.push(what());
        }
    }
}

pub type Res<T> = Result<T, String>;

/// Removes the run's scratch directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `(name, unit)` lists read from `BENCHMARK.json`.
struct Catalog {
    workloads: Vec<String>,
    end_to_end: Vec<(String, String)>,
    per_layer: Vec<(String, String)>,
}

fn read_catalog() -> Res<Catalog> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("read BENCHMARK.json (run from the repository root): {e}"))?;
    let json = Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let names = |key: &str| -> Vec<(String, String)> {
        json.get(key)
            .map(Json::as_array)
            .unwrap_or(&[])
            .iter()
            .filter_map(|m| {
                Some((
                    m.get("name")?.as_str()?.to_owned(),
                    m.get("unit")
                        .and_then(Json::as_str)
                        .unwrap_or("")
                        .to_owned(),
                ))
            })
            .collect()
    };
    Ok(Catalog {
        workloads: names("workloads").into_iter().map(|(n, _)| n).collect(),
        end_to_end: names("end_to_end"),
        per_layer: names("per_layer"),
    })
}

/// The commit this tree was checked out at, read from `.git` without
/// running git; `unknown` outside a git checkout.
fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_owned(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(rev) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return rev.trim().to_owned();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_owned))
        })
        .unwrap_or_else(|| "unknown".into())
}

struct RunArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
}

fn parse_run_args(args: &[String]) -> Res<RunArgs> {
    let mut r = RunArgs {
        workload: String::new(),
        seed: 42,
        seconds: 25.0,
        trace: false,
        out: None,
        trace_out: None,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => r.workload = value()?,
            "--seed" => r.seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                r.seconds = value()?.parse().map_err(|_| "--seconds needs a number")?;
                if !(r.seconds > 0.0 && r.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                r.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--out" => r.out = Some(value()?.into()),
            "--trace-out" => r.trace_out = Some(value()?.into()),
            other => return Err(format!("unknown option {other}")),
        }
    }
    Ok(r)
}

fn run(args: &[String]) -> Res<bool> {
    let args = parse_run_args(args)?;
    let catalog = read_catalog()?;
    if !catalog.workloads.contains(&args.workload) {
        return Err(format!(
            "unknown --workload {:?} (one of: {})",
            args.workload,
            catalog.workloads.join(", ")
        ));
    }
    let provbench = std::env::var_os("PERFBENCH_PROVBENCH")
        .map(PathBuf::from)
        .ok_or("PERFBENCH_PROVBENCH must name the provbench binary (see perfbench/bench.sh)")?;
    if !provbench.is_file() {
        return Err(format!("{} is not a built binary", provbench.display()));
    }
    let work = Path::new(OUT_DIR).join(format!("work-{}", std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("create {}: {e}", work.display()))?;
    let _cleanup = WorkDir(work.clone());
    let ctx = Ctx {
        provbench,
        self_exe: std::env::current_exe().map_err(|e| e.to_string())?,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        work,
    };
    let report = match args.workload.as_str() {
        "serve-exemplar" => serve::run(&ctx, serve::Mix::Exemplar)?,
        "serve-join" => serve::run(&ctx, serve::Mix::Join)?,
        "open-paper" => open::run(&ctx)?,
        "lint-edit" => lint::run(&ctx)?,
        other => return Err(format!("workload {other:?} has no implementation")),
    };
    emit(&ctx, &args, &catalog, report)
}

/// Print the report, write the full record, and return whether the run
/// is both correct and valid.
fn emit(ctx: &Ctx, args: &RunArgs, catalog: &Catalog, report: Report) -> Res<bool> {
    let wanted = if ctx.trace {
        &catalog.per_layer
    } else {
        &catalog.end_to_end
    };
    let mut selected: Vec<(String, f64, String)> = Vec::new();
    for (name, unit) in wanted {
        let found = report.metrics.iter().find(|(n, _, _)| n == name);
        let value = match found {
            Some((_, v, u)) if *u == unit => *v,
            Some((_, _, u)) => return Err(format!("{name}: measured in {u}, catalog says {unit}")),
            // A layer the workload's traced run never calls into.
            None if ctx.trace => 0.0,
            None => return Err(format!("{} did not measure {name}", args.workload)),
        };
        if !value.is_finite() {
            return Err(format!("{name} is not finite: {value}"));
        }
        selected.push((name.clone(), value, unit.clone()));
    }

    let correct = report.gate_failures.is_empty();
    let valid = report.invalid.is_empty();
    let rev = git_rev();
    println!(
        "perfbench {} seed={} seconds={} trace={} nproc={} rev={rev}",
        args.workload, ctx.seed, ctx.seconds, ctx.trace as u8, ctx.nproc
    );
    for (k, v) in &report.params {
        println!("  param  {k} = {v}");
    }
    for (name, value, unit) in &report.metrics {
        println!("  metric {name} = {value} {unit} [{}]", args.workload);
    }
    for f in &report.gate_failures {
        println!("  FAILED gate: {f}");
    }
    for r in &report.invalid {
        println!("  INVALID run: {r}");
    }

    let metrics_json = metrics_object(selected.iter().map(|(n, v, u)| (n, *v, u.as_str())));

    let mut record = String::from("{\"workload\":");
    json_str(&mut record, &args.workload);
    record.push_str(&format!(
        ",\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{},\"git_rev\":",
        ctx.seed, ctx.seconds, ctx.trace, ctx.nproc
    ));
    json_str(&mut record, &rev);
    record.push_str(",\"params\":{");
    for (i, (k, v)) in report.params.iter().enumerate() {
        if i > 0 {
            record.push(',');
        }
        json_str(&mut record, k);
        record.push(':');
        json_str(&mut record, v);
    }
    record.push_str(&format!(
        "}},\"valid\":{valid},\"correct\":{correct},\"attempted\":{},\"failed\":{},\"fail_ratio\":{},\"all_metrics\":{},\"metrics\":{metrics_json}}}\n",
        report.attempted,
        report.failed,
        report.failed as f64 / report.attempted.max(1) as f64,
        metrics_object(report.metrics.iter().map(|(n, v, u)| (n, *v, *u))),
    ));

    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload, ctx.seed, ctx.trace as u8
    );
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| Path::new(OUT_DIR).join(format!("{stem}.json")));
    write_file(&out, &record)?;
    println!("  result written to {}", out.display());
    if ctx.trace {
        let trace_out = args
            .trace_out
            .clone()
            .unwrap_or_else(|| Path::new(OUT_DIR).join(format!("{stem}.trace.jsonl")));
        write_file(&trace_out, &report.trace_jsonl)?;
        println!("  trace written to {}", trace_out.display());
    }
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{metrics_json}}}",
        report.attempted.max(1),
        report.failed
    );
    Ok(correct && valid)
}

/// `{"name":{"value":v,"unit":"u"},...}`.
fn metrics_object<'a>(metrics: impl Iterator<Item = (&'a String, f64, &'a str)>) -> String {
    let mut out = String::from("{");
    for (i, (name, value, unit)) in metrics.enumerate() {
        if i > 0 {
            out.push(',');
        }
        json_str(&mut out, name);
        out.push_str(&format!(":{{\"value\":{value},\"unit\":"));
        json_str(&mut out, unit);
        out.push('}');
    }
    out.push('}');
    out
}

fn write_file(path: &Path, content: &str) -> Res<()> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, content).map_err(|e| format!("write {}: {e}", path.display()))
}

const USAGE: &str = "usage:
  benchmark run --workload NAME --seed N [--seconds S] [--trace 0|1]
                [--out FILE.json] [--trace-out FILE.jsonl]
  benchmark compare BASE.json... [-- NEW.json...]
      (without `--`, the first file is the base and the rest are new)";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("compare") => compare::run(&args[1..]),
        Some("open-child") => open::child(&args[1..]).map(|()| true),
        _ => Err(USAGE.into()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(3),
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
