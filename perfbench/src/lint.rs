//! `lint-edit`: `provbench lint --corpus-rules --incremental` over the
//! corpus — cold, warm, and one file edited and restored at a time —
//! plus the traced in-process replay through the `diag` crate.

use crate::serve;
use crate::trace::Tracer;
use crate::util::{fastest, median, percentile, Rng};
use crate::{Ctx, Report, Res};
use provbench_core::snapshot::LINT_SNAPSHOT_FILE;
use provbench_diag::{self as diag, CorpusLintOptions, Registry};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// Cycles run even when the measured time is up sooner.
const MIN_CYCLES: usize = 15;
/// Appended to the edited file: changes its bytes, not its findings.
const EDIT: &str = "\n# edited by the lint-edit benchmark\n";

/// One `provbench lint` process.
struct LintRun {
    secs: f64,
    stdout: Vec<u8>,
    analyzed: Option<usize>,
    ok: bool,
}

fn lint_once(ctx: &Ctx, dir: &Path) -> Res<LintRun> {
    let start = Instant::now();
    let out = Command::new(&ctx.provbench)
        .arg("lint")
        .arg(dir)
        .args(["--corpus-rules", "--incremental", "--format", "json"])
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("spawn provbench lint: {e}"))?;
    let secs = start.elapsed().as_secs_f64();
    let stderr = String::from_utf8_lossy(&out.stderr);
    let analyzed = stderr
        .lines()
        .find_map(|l| l.strip_prefix("incremental lint: "))
        .and_then(|l| l.split_whitespace().next())
        .and_then(|n| n.parse().ok());
    Ok(LintRun {
        secs,
        stdout: out.stdout,
        analyzed,
        ok: out.status.success(),
    })
}

/// The file the seed picks for the edit cycles.
fn edit_target(dir: &Path, seed: u64) -> Res<PathBuf> {
    let mut files = diag::collect_rdf_files(dir).map_err(|e| e.to_string())?;
    files.sort();
    if files.is_empty() {
        return Err(format!("no RDF files under {}", dir.display()));
    }
    let i = Rng::new(seed ^ 0xED17).below(files.len());
    Ok(files.swap_remove(i))
}

pub fn run(ctx: &Ctx) -> Res<Report> {
    let mut report = Report::default();
    let dir = ctx.work.join("lint");
    serve::write_corpus(&dir, ctx.seed, 0, &mut report)?;
    let target = edit_target(&dir, ctx.seed)?;
    let original = std::fs::read_to_string(&target).map_err(|e| e.to_string())?;
    let edited = format!("{original}{EDIT}");
    report.param(
        "edited_file",
        target.strip_prefix(&dir).unwrap_or(&target).display(),
    );

    // Measured phase: cycles of a cold lint (cache deleted), a warm lint,
    // and two edit lints (one file edited, then restored; each
    // re-analyzes exactly that file). Interleaving the kinds means a slow
    // spell of a shared machine weighs on all of them alike.
    let cache = dir.join(LINT_SNAPSHOT_FILE);
    let (mut cold, mut warm, mut edits) = (Vec::new(), Vec::new(), Vec::new());
    let mut reference: Option<Vec<u8>> = None;
    let start = Instant::now();
    while cold.len() < MIN_CYCLES || start.elapsed().as_secs_f64() < ctx.seconds {
        let _ = std::fs::remove_file(&cache);
        let r = lint_once(ctx, &dir)?;
        let expected = reference.get_or_insert_with(|| r.stdout.clone());
        report.op(
            r.ok && r.analyzed.is_some_and(|n| n > 0) && r.stdout == *expected,
            || format!("cold lint: exit ok {}, analyzed {:?}", r.ok, r.analyzed),
        );
        cold.push(r.secs);
        for (content, want) in [(None, 0), (Some(&edited), 1), (Some(&original), 1)] {
            if let Some(content) = content {
                std::fs::write(&target, content).map_err(|e| e.to_string())?;
            }
            let r = lint_once(ctx, &dir)?;
            report.op(
                r.ok && r.analyzed == Some(want) && Some(&r.stdout) == reference.as_ref(),
                || {
                    format!(
                        "lint: exit ok {}, analyzed {:?} (want {want}), output identical to cold {}",
                        r.ok,
                        r.analyzed,
                        Some(&r.stdout) == reference.as_ref()
                    )
                },
            );
            if want == 0 {
                warm.push(r.secs);
            } else {
                edits.push(r.secs * 1e3);
            }
        }
    }
    let reference = reference.expect("at least one cycle");
    report.param("cycles", cold.len());
    report.param("edit_lints", edits.len());
    report.metric("setup_s", median(&warm), "s");
    report.metric("cold_s", median(&cold), "s");
    // Other tenants of a shared machine only ever add time to a lint
    // process, in spells long enough to move a run's median; the fastest
    // edit lint, the cost of the lint itself, repeats more closely
    // across runs (perfbench/BENCHMARK.md, "End-to-end metrics").
    report.metric("unloaded_ms", fastest(&edits), "ms");
    report.metric("p50_ms", percentile(&edits, 50.0), "ms");
    report.metric("p90_ms", percentile(&edits, 90.0), "ms");
    report.metric("peak_rss_mb", crate::util::children_peak_rss_mb(), "MB");

    if ctx.trace {
        let mut tracer = Tracer::new(false);
        let untraced = replay(
            ctx,
            &dir,
            &target,
            &original,
            &edited,
            &reference,
            &mut tracer,
            &mut report,
        )?;
        tracer.enabled = true;
        let traced = replay(
            ctx,
            &dir,
            &target,
            &original,
            &edited,
            &reference,
            &mut tracer,
            &mut report,
        )?;
        report.metric(
            "trace.overhead_pct",
            (traced - untraced) / untraced * 100.0,
            "%",
        );
        report.trace_jsonl = tracer.to_jsonl("lint-edit");
    }
    Ok(report)
}

/// Cold, warm and edit lints in-process through
/// `diag::lint_corpus_incremental`, plus the JSON rendering. Records
/// the diag metrics when the tracer is on; returns the wall time (s).
#[allow(clippy::too_many_arguments)]
fn replay(
    ctx: &Ctx,
    dir: &Path,
    target: &Path,
    original: &str,
    edited: &str,
    reference: &[u8],
    tracer: &mut Tracer,
    report: &mut Report,
) -> Res<f64> {
    let registry = Registry::with_corpus_rules();
    let opts = CorpusLintOptions {
        jobs: ctx.nproc,
        corpus_rules: true,
        incremental: true,
        cache_path: None,
    };
    let cache = dir.join(LINT_SNAPSHOT_FILE);
    let _ = std::fs::remove_file(&cache);
    let id = 0;
    let start = Instant::now();
    let root = tracer.begin("lint.replay", id, None);
    let parent = Some(root);
    let lint = |tracer: &mut Tracer, name: &'static str| {
        tracer
            .time(name, id, parent, || {
                diag::lint_corpus_incremental(dir, &registry, &opts)
            })
            .map_err(|e| format!("lint {}: {e}", dir.display()))
    };
    let cold = lint(tracer, "diag.lint_cold")?;
    let rendered = tracer.time("diag.render", id, parent, || {
        diag::render_jsonl(&cold.reports)
    });
    let warm = lint(tracer, "diag.lint_warm")?;
    std::fs::write(target, edited).map_err(|e| e.to_string())?;
    let edit = lint(tracer, "diag.lint_edit");
    std::fs::write(target, original).map_err(|e| e.to_string())?;
    let edit = edit?;
    tracer.end(root);
    let secs = start.elapsed().as_secs_f64();
    report.op(rendered.as_bytes() == reference, || {
        "in-process lint output differs from provbench lint".into()
    });
    report.op(warm.analyzed == 0 && edit.analyzed == 1, || {
        format!(
            "in-process lint analyzed {} warm (want 0), {} after an edit (want 1)",
            warm.analyzed, edit.analyzed
        )
    });
    if tracer.enabled {
        let last_ms = |name: &str| tracer.durations_us(name).last().copied().unwrap_or(0.0) / 1e3;
        report.metric("diag.lint_cold_ms", last_ms("diag.lint_cold"), "ms");
        report.metric("diag.lint_warm_ms", last_ms("diag.lint_warm"), "ms");
        report.metric("diag.lint_edit_ms", last_ms("diag.lint_edit"), "ms");
        report.metric("diag.render_ms", last_ms("diag.render"), "ms");
        report.metric("diag.analyzed_cold", cold.analyzed as f64, "count");
        report.metric("diag.analyzed_warm", warm.analyzed as f64, "count");
        report.metric("diag.analyzed_edit", edit.analyzed as f64, "count");
        report.metric(
            "diag.replay_ratio",
            warm.reused as f64 / (warm.reused + warm.analyzed).max(1) as f64,
            "ratio",
        );
        let bytes = std::fs::metadata(&cache).map_or(0, |m| m.len());
        report.metric("diag.cache_bytes", bytes as f64, "bytes");
    }
    Ok(secs)
}
