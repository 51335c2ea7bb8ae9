//! The serve-reload workload's timed run, and the set-up it shares with
//! the traced run: artifacts A and A + seed delta, a document sample
//! and its expected responses.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use thor_core::PreparedEngine;
use thor_obs::Json;

use crate::corpus::Corpus;
use crate::report::{phase, Report};
use crate::serve::{
    open_loop, saturate, tsv_annotations, unloaded, windows, write_requests, Fixture, Outcome,
    Record, ServerProcess, Step, Swapper, EXTRACT,
};
use crate::stats::{percentile, sorted, Latency, Summary, TAIL_MIN_BEYOND};
use crate::{Ctx, F1_FLOOR};

/// Spawns of `thor serve` timed for `setup_s`.
const SERVE_SETUP_REPS: usize = 21;
/// Documents in the request sample.
pub const SAMPLE_DOCS: usize = 400;
/// The steady open-loop rate (requests/s, one document each): about a
/// quarter of the saturated capacity of `thor serve` at paper scale on
/// two cores (~550 requests/s), so latency is mostly service time.
pub const STEADY_RPS: f64 = 120.0;
/// Share of `--seconds` spent in steady steps and measured saturation.
const STEADY_SHARE: f64 = 0.6;
const SATURATE_SHARE: f64 = 0.4;
/// Steady segments (each followed by a saturating window) per run.
const SEGMENTS: usize = 6;
/// Requests per segment, at least: twelve beyond its p95.
const SEGMENT_MIN: usize = 250;

/// Requests a p99 needs: ten beyond it.
pub const TAIL_SAMPLES: usize = 100 * TAIL_MIN_BEYOND;
/// Time between hot swaps during the timed run.
pub const SWAP_EVERY: Duration = Duration::from_millis(500);
/// Requests each saturating connection keeps in flight.
const SATURATE_DEPTH: usize = 2;

/// Engine generations on disk and in memory.
pub struct Engines {
    pub a_path: PathBuf,
    pub b_path: PathBuf,
    pub a: PreparedEngine,
    pub b: PreparedEngine,
}

impl Engines {
    /// Save A (the workload's engine) and B (A + a ~5% seed delta).
    pub fn build(ctx: &Ctx, corpus: &Corpus, a: PreparedEngine) -> Result<Engines, String> {
        let a_path = ctx.work.join("a.thor");
        let b_path = ctx.work.join("b.thor");
        a.save(&a_path).map_err(|e| e.to_string())?;
        let b = a
            .apply_delta(&corpus.seed_delta())
            .map_err(|e| e.to_string())?;
        b.save(&b_path).map_err(|e| e.to_string())?;
        Ok(Engines {
            a_path,
            b_path,
            a,
            b,
        })
    }

    /// The request sample ([`Corpus::sample`]) and its expected
    /// responses, with the live path holding A.
    pub fn fixture(&self, ctx: &Ctx, corpus: &Corpus) -> Result<Fixture, String> {
        let docs = corpus.sample(SAMPLE_DOCS, ctx.seed);
        let live = ctx.work.join("live.thor");
        let _ = std::fs::remove_file(&live);
        std::fs::hard_link(&self.a_path, &live).map_err(|e| format!("link live: {e}"))?;
        let threads = ctx.nproc;
        Ok(Fixture::new(
            docs,
            [&self.a.with_threads(threads), &self.b.with_threads(threads)],
            [self.a_path.clone(), self.b_path.clone()],
            live,
        ))
    }
}

/// Account for an open-loop step: one operation per request, phase
/// and swap-window entries. Returns latencies from the due time (ms).
pub fn account(report: &mut Report, name: &str, rate: f64, records: &[Record]) -> Vec<f64> {
    let count = |f: fn(&Outcome) -> bool| records.iter().filter(|r| f(&r.outcome)).count();
    for r in records {
        match &r.outcome {
            Outcome::Wrong(why) => report.check(false, || format!("{name}: {why}")),
            o => report.op(*o == Outcome::Ok),
        }
    }
    let latency: Vec<f64> = records.iter().map(Record::latency_ms).collect();
    let late = sorted(records.iter().map(Record::late_ms).collect());
    let mut fields = vec![
        ("rate", Json::Float(rate)),
        ("sent", Json::UInt(records.len() as u64)),
        ("succeeded", Json::UInt(count(|o| *o == Outcome::Ok) as u64)),
        ("failed", Json::UInt(count(|o| *o != Outcome::Ok) as u64)),
        (
            "refused",
            Json::UInt(count(|o| *o == Outcome::Refused) as u64),
        ),
        (
            "timeouts",
            Json::UInt(count(|o| *o == Outcome::Timeout) as u64),
        ),
        (
            "connection_errors",
            Json::UInt(count(|o| *o == Outcome::Connection) as u64),
        ),
        (
            "wrong_bytes",
            Json::UInt(count(|o| matches!(o, Outcome::Wrong(_))) as u64),
        ),
    ];
    if let Some(l) = Latency::of(&latency) {
        fields.push(("p50_ms", Json::Float(l.p50)));
        if let Some(p99) = l.p99 {
            fields.push(("p99_ms", Json::Float(p99)));
        }
        fields.push(("late_p50_ms", Json::Float(percentile(&late, 0.5))));
        fields.push(("late_max_ms", Json::Float(late[late.len() - 1])));
    }
    report.phases.push(phase(name, &fields));
    for (w, sent, ok) in windows(records) {
        report.phases.push(phase(
            &format!("{name}.swap_window"),
            &[
                ("window", Json::UInt(w as u64)),
                ("sent", Json::UInt(sent as u64)),
                ("succeeded", Json::UInt(ok as u64)),
                ("failed", Json::UInt((sent - ok) as u64)),
            ],
        ));
    }
    latency
}

/// Count swaps as operations and report their times.
pub fn account_swaps(report: &mut Report, swapper: &Swapper) -> Vec<f64> {
    let (samples, failed) = swapper.results();
    for _ in &samples {
        report.op(true);
    }
    for _ in 0..failed {
        report.op(false);
    }
    let mut fields = vec![
        ("issued", Json::UInt(swapper.issued() as u64)),
        ("observed", Json::UInt(samples.len() as u64)),
        ("failed", Json::UInt(failed)),
    ];
    if !samples.is_empty() {
        fields.push(("median_ms", Json::Float(Summary::of(&samples).median)));
    }
    report.phases.push(phase("swaps", &fields));
    samples
}

/// Unloaded `/extract` over the sample: checks, and the served
/// entities' F1 against the sample's gold (gated by [`F1_FLOOR`]).
pub fn served_f1(
    report: &mut Report,
    corpus: &Corpus,
    fx: &Fixture,
    addr: std::net::SocketAddr,
) -> Result<f64, String> {
    let (_, outs) = unloaded(addr, fx, EXTRACT)?;
    let mut predictions = Vec::new();
    for (outcome, body) in &outs {
        match outcome {
            Outcome::Wrong(why) => report.check(false, || format!("unloaded: {why}")),
            o => report.op(*o == Outcome::Ok),
        }
        predictions.extend(tsv_annotations(body));
    }
    let ids: Vec<&str> = fx.docs.iter().map(|d| d.id.as_str()).collect();
    let f1 = corpus.f1(&predictions, Some(&ids));
    report.check(f1 >= F1_FLOOR, || {
        format!("served f1 {f1} below {F1_FLOOR}")
    });
    Ok(f1)
}

pub fn run(ctx: &Ctx, corpus: &Corpus, report: &mut Report) -> Result<(), String> {
    let engines = Engines::build(ctx, corpus, corpus.thor.prepare(&corpus.table))?;
    let fx = engines.fixture(ctx, corpus)?;

    // Set-up as `thor build` + `thor serve` pay it: prepare, save the
    // live artifact, spawn to first healthy /healthz; several times.
    // `thor serve` polls its listener every 10 ms, so a spawn lands on
    // one of two modes (ready before its first accept, or one poll
    // later); the build keeps that quantum a small part of the figure,
    // and the mean weighs both modes.
    let mut setup = Vec::new();
    let mut server = None;
    for _ in 0..SERVE_SETUP_REPS {
        if let Some(previous) = server.take() {
            ServerProcess::stop(previous)?;
        }
        let t = Instant::now();
        corpus
            .thor
            .prepare(&corpus.table)
            .save(&fx.live)
            .map_err(|e| e.to_string())?;
        let built = t.elapsed().as_secs_f64();
        let (s, secs) = ServerProcess::spawn(&ctx.thor, &fx.live, &ctx.work)?;
        setup.push(built + secs);
        server = Some(s);
    }
    let server = server.expect("at least one spawn");
    report.mean("setup_s", &setup, "s");

    let f1 = served_f1(report, corpus, &fx, server.addr)?;
    report.set("f1", f1, "ratio");
    report.set(
        "rss_mb",
        crate::sys::proc_status(server.pid)
            .and_then(|s| crate::sys::status_mb(&s, "VmRSS"))
            .ok_or("no /proc status for thor serve")?,
        "MB",
    );

    // Segments of steady open loop, each followed by a saturating
    // window, so both sample the whole run; hot swaps run throughout.
    let swapper = Swapper::new(&fx, server.pid, SWAP_EVERY, 1);
    let per_segment =
        ((ctx.seconds * STEADY_SHARE * STEADY_RPS) as usize / SEGMENTS).max(SEGMENT_MIN);
    let window = Duration::from_secs_f64((ctx.seconds * SATURATE_SHARE / SEGMENTS as f64).max(0.5));
    let (mut records, mut rates, mut outcomes) = (Vec::new(), Vec::new(), Vec::new());
    let mut p50s = Vec::new();
    let mut first_k = 0;
    swapper.arm();
    for segment in 0..SEGMENTS {
        let step = Step {
            rate: STEADY_RPS,
            count: per_segment,
            first_k,
            conns: ctx.nproc,
        };
        first_k += per_segment;
        let (start, segment_records) = open_loop(server.addr, &fx, Some(&swapper), &step);
        let path = ctx.out.join(format!(
            "requests-{}-seed{}-segment{segment}.tsv",
            ctx.workload.name(),
            ctx.seed
        ));
        write_requests(&path, start, &segment_records, &swapper.issued_at())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        let lat = Latency::of(
            &segment_records
                .iter()
                .map(Record::latency_ms)
                .collect::<Vec<_>>(),
        )
        .expect("segments send requests");
        p50s.push(lat.p50);
        report.phases.push(phase(
            "steady.segment",
            &[
                ("segment", Json::UInt(segment as u64)),
                ("sent", Json::UInt(lat.n as u64)),
                ("p50_ms", Json::Float(lat.p50)),
                ("p90_ms", Json::Float(lat.p90)),
                ("p95_ms", Json::Float(lat.p95)),
            ],
        ));
        records.extend(segment_records);
        let (rate, o) = saturate(
            server.addr,
            &fx,
            Some(&swapper),
            ctx.nproc,
            SATURATE_DEPTH,
            window,
            first_k,
        )?;
        first_k += o.len();
        rates.push(rate);
        outcomes.extend(o);
    }
    swapper.disarm();
    account(report, "steady", STEADY_RPS, &records);
    if account_swaps(report, &swapper).is_empty() {
        return Err("no hot swap completed".into());
    }
    for o in &outcomes {
        match o {
            Outcome::Wrong(why) => report.check(false, || format!("saturate: {why}")),
            o => report.op(*o == Outcome::Ok),
        }
    }
    report.phases.push(phase(
        "saturate",
        &[
            ("sent", Json::UInt(outcomes.len() as u64)),
            (
                "succeeded",
                Json::UInt(outcomes.iter().filter(|o| **o == Outcome::Ok).count() as u64),
            ),
        ],
    ));

    // Medians over the saturating windows and the steady segments.
    report.median("docs_per_s", &rates, "1/s");
    report.median("p50_ms", &p50s, "ms");
    report
        .header
        .insert("runs".into(), Json::UInt(records.len() as u64));
    server.stop()
}
