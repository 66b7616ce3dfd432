//! `open-paper`: the store layer on a large corpus. Cold and warm opens
//! each run in a fresh child process (`benchmark open-child`), and
//! `provbench serve` is timed from spawn to its first answer.

use crate::serve::{self, Query};
use crate::trace::Tracer;
use crate::util::{fnv1a, median, own_peak_rss_mb, percentile};
use crate::{Ctx, Report, Res};
use provbench_core::snapshot::{self, SNAPSHOT_FILE};
use provbench_core::{store, CorpusStore, StoreFs, REAL_FS};
use provbench_query::exemplar;
use provbench_query::QueryEngine;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

/// Value payload of the open-paper corpus: 39 MB of sources, about a
/// ninth of the paper's 360 MB, so that a run fits its time budget.
pub const PAYLOAD: usize = 16384;
/// Warm opens after each cold open and serve start.
const WARM_PER_CYCLE: usize = 6;
/// Cycles run even when the measured time is up sooner.
const MIN_CYCLES: usize = 3;

/// What one child-process open reported.
pub struct ChildOpen {
    pub warm: bool,
    pub secs: f64,
    pub triples: u64,
    /// Fingerprint of `QueryEngine::predicate_statistics()`.
    pub stats: u64,
    pub rss_mb: f64,
    pub snapshot_bytes: u64,
    pub source_bytes: u64,
}

/// `benchmark open-child DIR JOBS`: open the store once and report.
pub fn child(args: &[String]) -> Res<()> {
    let [dir, jobs] = args else {
        return Err("usage: benchmark open-child DIR JOBS".into());
    };
    let jobs: usize = jobs.parse().map_err(|_| "JOBS must be an integer")?;
    let start = Instant::now();
    let s = CorpusStore::open_or_build_opts(
        Path::new(dir),
        &store::StoreOptions {
            jobs,
            ..store::StoreOptions::default()
        },
    )
    .map_err(|e| format!("open {dir}: {e}"))?;
    let secs = start.elapsed().as_secs_f64();
    let stats = format!("{:?}", QueryEngine::new(&s.union).predicate_statistics());
    println!(
        "open warm={} secs={secs} triples={} stats={} rss_mb={} snapshot_bytes={} source_bytes={}",
        s.provenance.warm as u8,
        s.union.len(),
        fnv1a(stats.as_bytes()),
        own_peak_rss_mb(),
        s.provenance.snapshot_bytes,
        s.provenance.source_bytes,
    );
    // Skip tearing the corpus down: the parent has what it needs.
    std::process::exit(0)
}

fn open_in_child(ctx: &Ctx, dir: &Path) -> Res<ChildOpen> {
    let out = Command::new(&ctx.self_exe)
        .arg("open-child")
        .arg(dir)
        .arg(ctx.nproc.to_string())
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn open-child: {e}"))?;
    if !out.status.success() {
        return Err(format!("open-child exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let field = |k: &str| -> Res<f64> {
        text.split_whitespace()
            .find_map(|kv| kv.strip_prefix(k)?.strip_prefix('='))
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("open-child output lacks {k}: {text:?}"))
    };
    Ok(ChildOpen {
        warm: field("warm")? == 1.0,
        secs: field("secs")?,
        triples: field("triples")? as u64,
        stats: text
            .split_whitespace()
            .find_map(|kv| kv.strip_prefix("stats="))
            .and_then(|v| v.parse().ok())
            .ok_or("open-child output lacks stats")?,
        rss_mb: field("rss_mb")?,
        snapshot_bytes: field("snapshot_bytes")? as u64,
        source_bytes: field("source_bytes")? as u64,
    })
}

/// `count` warm opens in fresh children; returns their open times (s).
pub fn warm_opens(ctx: &Ctx, dir: &Path, count: usize, report: &mut Report) -> Res<Vec<f64>> {
    let mut times = Vec::new();
    for _ in 0..count {
        let o = open_in_child(ctx, dir)?;
        report.op(o.warm, || "a warm open rebuilt the snapshot".into());
        times.push(o.secs);
    }
    Ok(times)
}

pub fn run(ctx: &Ctx) -> Res<Report> {
    let mut report = Report::default();
    let dir = ctx.work.join("paper");
    serve::write_corpus(&dir, ctx.seed, PAYLOAD, &mut report)?;
    report.param("open_jobs", ctx.nproc);
    report.param("warm_opens_per_cycle", WARM_PER_CYCLE);

    // The reference: the corpus opened in-process, cold then warm.
    let q1 = Query::new(exemplar::q1_sparql(), false);
    let options = store::StoreOptions::default();
    let open = || {
        CorpusStore::open_or_build_opts(&dir, &options)
            .map_err(|e| format!("open {}: {e}", dir.display()))
    };
    drop(open()?);
    let reference = open()?;
    let q1_expected = fnv1a(serve::answer(&reference.union, &q1)?.0.as_bytes());
    let stats = format!(
        "{:?}",
        QueryEngine::new(&reference.union).predicate_statistics()
    );
    let (triples, stats) = (reference.union.len() as u64, fnv1a(stats.as_bytes()));
    report.param("corpus_triples", triples);
    drop(reference);

    // Measured phase: cycles of a cold open (snapshot deleted), a serve
    // start on the fresh snapshot, and warm opens, interleaved so a slow
    // spell of a shared machine weighs on every kind alike.
    let (mut cold, mut warm, mut starts) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    while cold.len() < MIN_CYCLES || start.elapsed().as_secs_f64() < ctx.seconds {
        let _ = std::fs::remove_file(dir.join(SNAPSHOT_FILE));
        let o = open_in_child(ctx, &dir)?;
        report.op(
            !o.warm && o.snapshot_bytes > 0 && o.triples == triples && o.stats == stats,
            || "a cold open did not build the reference corpus and its snapshot".into(),
        );
        cold.push(o);
        let mut hashes = Vec::new();
        let (t, server) = serve::starts(ctx, &dir, &q1, 1, false, &mut hashes)?;
        drop(server);
        starts.extend(t);
        for h in hashes {
            report.op(h == q1_expected, || {
                "first Q1 answer of serve differs from the reference".into()
            });
        }
        for _ in 0..WARM_PER_CYCLE {
            let o = open_in_child(ctx, &dir)?;
            report.op(o.warm && o.triples == triples && o.stats == stats, || {
                format!(
                    "warm open differs from the reference: warm={} triples {} vs {triples}",
                    o.warm, o.triples
                )
            });
            warm.push(o);
        }
    }
    report.param("cycles", cold.len());

    let warm_secs: Vec<f64> = warm.iter().map(|o| o.secs).collect();
    let warm_ms: Vec<f64> = warm_secs.iter().map(|s| s * 1e3).collect();
    report.param("warm_opens", warm.len());
    report.metric("setup_s", median(&starts), "s");
    report.metric(
        "cold_s",
        median(&cold.iter().map(|o| o.secs).collect::<Vec<_>>()),
        "s",
    );
    // Unlike the edit lint's, the median warm open repeats across runs
    // more closely than the fastest one (3.9 % against 6.4 % spread over
    // ten seeds).
    let p50 = percentile(&warm_ms, 50.0);
    report.metric("unloaded_ms", p50, "ms");
    report.metric("p50_ms", p50, "ms");
    report.metric("p90_ms", percentile(&warm_ms, 90.0), "ms");
    report.metric("peak_rss_mb", crate::util::children_peak_rss_mb(), "MB");
    report.metric(
        "core.warm_peak_rss_mb",
        warm.iter().map(|o| o.rss_mb).fold(0.0, f64::max),
        "MB",
    );
    report.metric(
        "core.snapshot_bytes_per_source_byte",
        cold[0].snapshot_bytes as f64 / cold[0].source_bytes.max(1) as f64,
        "ratio",
    );
    report.metric(
        "core.ready_minus_warm_open_s",
        median(&starts) - median(&warm_secs),
        "s",
    );

    if ctx.trace {
        // Untraced, then traced: the difference is the tracing overhead.
        let mut tracer = Tracer::new(false);
        let untraced = replay_store(ctx, &dir, &mut tracer, &mut report)?;
        tracer.enabled = true;
        let traced = replay_store(ctx, &dir, &mut tracer, &mut report)?;
        report.metric(
            "trace.overhead_pct",
            (traced - untraced) / untraced * 100.0,
            "%",
        );
        report.trace_jsonl = tracer.to_jsonl("open-paper");
    }
    Ok(report)
}

/// Replay a cold and a warm open in-process, stage by stage, each stage
/// a call into the `rdf` or `core` crate under its own span (request id
/// 0; replayed requests count from 1). Records the stage metrics when
/// the tracer is on; returns the wall time (s).
pub fn replay_store(ctx: &Ctx, dir: &Path, tracer: &mut Tracer, report: &mut Report) -> Res<f64> {
    let id = 0;
    let start = Instant::now();
    let root = tracer.begin("store.replay", id, None);
    let parent = Some(root);
    let outcome = tracer
        .time("rdf.parse", id, parent, || {
            store::load_with_threads(dir, ctx.nproc)
        })
        .map_err(|e| format!("load {}: {e}", dir.display()))?;
    let union = tracer.time("core.union_build", id, parent, || {
        outcome.corpus.combined_dataset().union_graph()
    });
    let (files, bytes) = store::source_fingerprint(dir).map_err(|e| e.to_string())?;
    let encoded = tracer.time("core.snapshot_encode", id, parent, || {
        snapshot::encode(&outcome.corpus, files, bytes, &[])
    });
    let (tmp, dest) = (
        ctx.work.join("replay.tmp"),
        ctx.work.join("replay.snapshot"),
    );
    tracer
        .time("core.snapshot_write", id, parent, || {
            REAL_FS.write(&tmp, &encoded)?;
            REAL_FS.rename(&tmp, &dest)
        })
        .map_err(|e| format!("write snapshot: {e}"))?;
    let read = tracer
        .time("core.snapshot_read", id, parent, || {
            REAL_FS.read(&dir.join(SNAPSHOT_FILE))
        })
        .map_err(|e| format!("read snapshot: {e}"))?;
    let decoded = tracer
        .time("core.snapshot_decode", id, parent, || {
            snapshot::decode(&read)
        })
        .map_err(|e| format!("decode snapshot: {e}"))?;
    tracer.end(root);
    let secs = start.elapsed().as_secs_f64();
    let _ = std::fs::remove_file(&dest);
    report.op(decoded.union.len() == union.len(), || {
        format!(
            "decoded snapshot has {} triples, parsed sources {}",
            decoded.union.len(),
            union.len()
        )
    });
    if tracer.enabled {
        for (span, metric) in [
            ("rdf.parse", "rdf.parse_s"),
            ("core.union_build", "core.union_build_s"),
            ("core.snapshot_encode", "core.snapshot_encode_s"),
            ("core.snapshot_write", "core.snapshot_write_s"),
            ("core.snapshot_read", "core.snapshot_read_s"),
            ("core.snapshot_decode", "core.snapshot_decode_s"),
        ] {
            let d = tracer.durations_us(span);
            report.metric(metric, d.last().copied().unwrap_or(0.0) / 1e6, "s");
        }
    }
    Ok(secs)
}
