//! The traced run: per-layer numbers for any workload, measured apart
//! from the timed run. Every workload reports the same layers, each on
//! its own table and corpus: the engine lifecycle, the per-document
//! pipeline at one thread, the one-document request decomposition, and
//! the HTTP front end under open-loop steps with hot swaps.

use std::time::Instant;

use thor_core::{MapMode, PipelineMetrics, PreparedEngine, ResilientOptions, RunMode};
use thor_data::to_csv;
use thor_obs::Json;

use crate::corpus::Corpus;
use crate::online::{account, account_swaps, served_f1, Engines, SWAP_EVERY, TAIL_SAMPLES};
use crate::pipeline::traced_enrich;
use crate::report::{phase, Report};
use crate::serve::{open_loop, unloaded, Outcome, ServerProcess, Step, Swapper, ENRICH, EXTRACT};
use crate::stats::{percentile, sorted, Latency, Summary};
use crate::Ctx;

/// Repetitions of each engine-lifecycle timing.
const ENGINE_REPS: usize = 3;
/// Open-loop steps (requests/s) for `serve.max_rps`, ascending. The
/// last is the peak rate of `serve.p99_ms.peak`.
pub const RATES: [f64; 4] = [120.0, 240.0, 360.0, 480.0];
/// The p99 limit a step must meet to count towards `serve.max_rps`.
pub const P99_LIMIT_MS: f64 = 50.0;

fn median(v: &[f64]) -> f64 {
    Summary::of(v).median
}

pub fn run(ctx: &Ctx, corpus: &Corpus, report: &mut Report) -> Result<(), String> {
    let err = |e: thor_fault::ThorError| e.to_string();
    let a_path = ctx.work.join("a.thor");
    let load = |p: &std::path::Path| PreparedEngine::load_with(p, MapMode::Mapped).map_err(err);

    // Engine lifecycle.
    let delta = corpus.seed_delta();
    let (mut prepare, mut save, mut mapped, mut apply) = (vec![], vec![], vec![], vec![]);
    let mut built = None;
    for _ in 0..ENGINE_REPS {
        let t = Instant::now();
        let engine = corpus.thor.prepare(&corpus.table);
        prepare.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        engine.save(&a_path).map_err(err)?;
        save.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        let loaded = load(&a_path)?;
        mapped.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        std::hint::black_box(loaded.apply_delta(&delta).map_err(err)?);
        apply.push(t.elapsed().as_secs_f64() * 1e3);
        built = Some(engine);
    }
    report.median("engine.prepare_ms", &prepare, "ms");
    report.median("engine.save_ms", &save, "ms");
    report.median("engine.load_mapped_ms", &mapped, "ms");
    report.median("engine.delta_apply_ms", &apply, "ms");
    let bytes = std::fs::metadata(&a_path).map_err(|e| e.to_string())?.len();
    report.set("engine.artifact_bytes", bytes as f64, "B");

    // The per-document pipeline at one thread: a warm-up pass that is
    // also the reference output, then traced and untraced timed passes.
    let untraced = load(&a_path)?.with_threads(1).enrich(&corpus.docs);
    let metrics = PipelineMetrics::new();
    let engine = load(&a_path)?.with_threads(1).with_metrics(metrics.clone());
    let t = Instant::now();
    let pass = traced_enrich(&engine, &corpus.docs);
    let traced_s = t.elapsed().as_secs_f64();
    let engine = load(&a_path)?.with_threads(1);
    let t = Instant::now();
    std::hint::black_box(engine.enrich(&corpus.docs));
    let untraced_s = t.elapsed().as_secs_f64();
    report.check(pass.entities == untraced.entities, || {
        "traced entities differ from PreparedEngine::enrich".into()
    });
    report.check(to_csv(&pass.table) == to_csv(&untraced.table), || {
        "traced table differs from PreparedEngine::enrich".into()
    });
    let spans_path = ctx.out.join(format!(
        "spans-{}-seed{}.tsv",
        ctx.workload.name(),
        ctx.seed
    ));
    pass.tracer
        .write_tsv(&spans_path)
        .map_err(|e| format!("write spans: {e}"))?;
    let b = pass.breakdown();
    let us = |layer: &str, per: u64| b.layer_ns[layer] as f64 / per.max(1) as f64 / 1e3;
    report.set("segment.us_per_doc", us("segment", pass.docs), "us");
    report.set("chunk.us_per_sentence", us("chunk", pass.sentences), "us");
    report.set("match.us_per_phrase", us("match", pass.phrases), "us");
    report.set("refine.us_per_phrase", us("refine", pass.phrases), "us");
    report.set("slot_fill.ms", b.layer_ns["slot_fill"] as f64 / 1e6, "ms");
    for (layer, name) in [
        ("segment", "segment.share"),
        ("chunk", "chunk.share"),
        ("match", "match.share"),
        ("refine", "refine.share"),
        ("slot_fill", "slot_fill.share"),
    ] {
        report.set(name, b.share(layer), "ratio");
    }
    report.set("residual.share", b.residual_share(), "ratio");
    report.set("trace.overhead_frac", traced_s / untraced_s - 1.0, "ratio");
    let frac = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let (hits, misses) = (metrics.cache_hits.get(), metrics.cache_misses.get());
    report.set("match.cache_hit_frac", frac(hits, hits + misses), "ratio");
    report.set(
        "index.pruned_rows_frac",
        frac(metrics.pruned_rows.get(), metrics.index_rows.get() * misses),
        "ratio",
    );
    report.set(
        "refine.pruned_frac",
        frac(pass.refine_pruned, pass.refine_scored + pass.refine_pruned),
        "ratio",
    );
    report.phases.push(phase(
        "traced",
        &[
            ("docs", Json::UInt(pass.docs)),
            ("sentences", Json::UInt(pass.sentences)),
            ("phrases", Json::UInt(pass.phrases)),
            ("spans", Json::UInt(pass.tracer.spans.len() as u64)),
            ("untraced_s", Json::Float(untraced_s)),
            ("traced_s", Json::Float(traced_s)),
        ],
    ));

    // One-document requests, in process: extract, + table clone and
    // slot fill (enrich), + the resilient wrapper. Warmed by one pass.
    let engines = Engines::build(ctx, corpus, built.expect("ENGINE_REPS > 0"))?;
    let fx = engines.fixture(ctx, corpus)?;
    let lenient = ResilientOptions {
        mode: RunMode::Lenient,
        ..ResilientOptions::default()
    };
    let one = load(&engines.a_path)?.with_threads(1);
    for doc in &fx.docs {
        std::hint::black_box(
            one.enrich_resilient(std::slice::from_ref(doc), &lenient)
                .map_err(err)?,
        );
    }
    // [extract, enrich, enrich_resilient] times per document; which call
    // goes first rotates, so no call always meets a cold cache.
    let mut calls = vec![[0.0f64; 3]; fx.docs.len()];
    for (i, doc) in fx.docs.iter().enumerate() {
        let d = std::slice::from_ref(doc);
        for j in 0..3 {
            let call = (i + j) % 3;
            let t = Instant::now();
            match call {
                0 => drop(std::hint::black_box(one.extract(d))),
                1 => drop(std::hint::black_box(one.enrich(d))),
                _ => drop(std::hint::black_box(
                    one.enrich_resilient(d, &lenient).map_err(err)?,
                )),
            }
            calls[i][call] = t.elapsed().as_secs_f64() * 1e3;
        }
    }
    let x: Vec<f64> = calls.iter().map(|c| c[0]).collect();
    let e: Vec<f64> = calls.iter().map(|c| c[1]).collect();
    let r: Vec<f64> = calls.iter().map(|c| c[2]).collect();

    // The same documents over HTTP, unloaded: a warming pass, then the
    // timed /extract pass and an /enrich pass.
    let (server, _) = ServerProcess::spawn(&ctx.thor, &fx.live, &ctx.work)?;
    served_f1(report, corpus, &fx, server.addr)?;
    let mut http_pass = |endpoint: usize| -> Result<Vec<f64>, String> {
        let (rts, outs) = unloaded(server.addr, &fx, endpoint)?;
        let mut kb = Vec::new();
        for (o, body) in &outs {
            match o {
                Outcome::Wrong(why) => report.check(false, || format!("unloaded: {why}")),
                o => report.op(*o == Outcome::Ok),
            }
            kb.push(body.len() as f64 / 1024.0);
        }
        if endpoint == ENRICH {
            report.median("serve.resp_kb.enrich", &kb, "kB");
        }
        Ok(rts)
    };
    let rt = http_pass(EXTRACT)?;
    http_pass(ENRICH)?;
    let diff = |a: &[f64], b: &[f64]| -> Vec<f64> { a.iter().zip(b).map(|(a, b)| a - b).collect() };
    let extract1 = median(&x);
    let table = median(&diff(&e, &x));
    let resilient = median(&diff(&r, &e));
    let http = median(&diff(&rt, &r));
    let rt_p50 = median(&rt);
    report.set("extract1.ms", extract1, "ms");
    report.set("enrich1.table_ms", table, "ms");
    report.set("resilient.overhead_ms", resilient, "ms");
    report.set("serve.http_ms", http, "ms");
    report.set("serve.rt_ms", rt_p50, "ms");
    report.set(
        "serve.rt_remainder_ms",
        rt_p50 - (extract1 + table + resilient + http),
        "ms",
    );

    // Open-loop steps with hot swaps.
    let swapper = Swapper::new(&fx, server.pid, SWAP_EVERY, 1);
    let (mut sent, mut refused, mut late) = (0usize, 0usize, Vec::new());
    let mut max_rps = 0.0;
    let mut first_k = 0;
    let mut queue_ms = 0.0;
    let mut peak_p99 = 0.0;
    for (i, &rate) in RATES.iter().enumerate() {
        let step = Step {
            rate,
            count: TAIL_SAMPLES,
            first_k,
            conns: ctx.nproc,
        };
        first_k += step.count;
        swapper.arm();
        let (_, records) = open_loop(server.addr, &fx, Some(&swapper), &step);
        swapper.disarm();
        let latency = account(report, &format!("step{i}"), rate, &records);
        let lat = Latency::of(&latency).expect("step sent requests");
        let p99 = lat.p99.expect("steps send enough for a p99");
        sent += records.len();
        refused += records
            .iter()
            .filter(|r| r.outcome == Outcome::Refused)
            .count();
        late.extend(records.iter().map(|r| r.late_ms()));
        let failed = records.iter().any(|r| r.outcome != Outcome::Ok);
        if p99 <= P99_LIMIT_MS && !failed && !backlog_grows(&records) {
            max_rps = rate;
        }
        if i == 0 {
            report.set("serve.p99_ms", p99, "ms");
            let loaded: Vec<f64> = records
                .iter()
                .filter(|r| r.endpoint == EXTRACT)
                .map(|r| r.latency_ms())
                .collect();
            queue_ms = median(&loaded) - rt_p50;
        }
        peak_p99 = p99;
    }
    let swaps = account_swaps(report, &swapper);
    if swaps.is_empty() {
        return Err("no hot swap completed".into());
    }
    report.median("serve.swap_ms", &swaps, "ms");
    report.set("serve.max_rps", max_rps, "1/s");
    report.set("serve.p99_ms.peak", peak_p99, "ms");
    report.set("serve.queue_ms", queue_ms, "ms");
    report.set(
        "serve.refused_frac",
        frac(refused as u64, sent as u64),
        "ratio",
    );
    let late = sorted(late);
    report.set("gen.late_ms", percentile(&late, 0.99), "ms");
    server.stop()?;
    report.set(
        "failed_frac",
        frac(report.failed, report.attempted),
        "ratio",
    );
    report.header.insert("runs".into(), Json::UInt(1));
    Ok(())
}

/// A step's backlog grows when its last quarter waits clearly longer
/// than its first half.
fn backlog_grows(records: &[crate::serve::Record]) -> bool {
    let n = records.len();
    if n < 8 {
        return false;
    }
    let lat: Vec<f64> = records.iter().map(|r| r.latency_ms()).collect();
    let head = median(&lat[..n / 2]);
    let tail = median(&lat[n - n / 4..]);
    tail > 1.5 * head + 1.0
}
