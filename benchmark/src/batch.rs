//! The batch workloads' timed run: `PreparedEngine::enrich` over the
//! whole corpus at `nproc` threads, each pass on a freshly mapped
//! engine, interleaved with rounds of one-document calls for
//! per-document latency. Interleaving makes both metrics sample the
//! whole run, so a slow stretch of a shared host weighs on them alike.
//! Resident memory is that of a `thor enrich --engine` child holding
//! the same artifact.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use thor_core::{MapMode, PreparedEngine};
use thor_data::to_csv;
use thor_obs::Json;

use crate::corpus::{annotations, Corpus, Workload};
use crate::pipeline::by_doc;
use crate::report::{phase, Report};
use crate::stats::{Latency, Summary};
use crate::{Ctx, F1_FLOOR};

/// Set-ups (prepare + save + mapped load) timed for `setup_s`.
const SETUP_REPS: usize = 11;
/// Whole-corpus passes per run, however short `--seconds` is.
const MIN_PASSES: usize = 3;
/// Documents timed one at a time per round.
const LATENCY_DOCS: usize = 300;
/// Rounds of one-document calls, spread evenly over the run; `p50_ms`
/// is the median of the rounds' medians.
const LATENCY_ROUNDS: usize = 12;
/// Share of `--seconds` given to whole-corpus passes; the latency
/// rounds take most of the rest.
const PASS_SHARE: f64 = 0.75;
/// How often the `thor enrich` child's peak memory is read.
const RSS_POLL: Duration = Duration::from_millis(2);

/// Nominal seconds of one whole-corpus pass (2-vCPU x86-64 host). It
/// fixes a run's pass count from `--seconds` alone, so the count does
/// not depend on how fast the code under test is.
fn nominal_pass_s(workload: Workload) -> f64 {
    match workload {
        Workload::SmallTable => 0.35,
        _ => 1.0,
    }
}

pub fn run(ctx: &Ctx, corpus: &Corpus, report: &mut Report) -> Result<(), String> {
    let a_path = ctx.work.join("a.thor");
    let load =
        |path: &Path| PreparedEngine::load_with(path, MapMode::Mapped).map_err(|e| e.to_string());

    // Set-up as `thor build` + `thor enrich --engine` pay it: prepare,
    // save, mapped load.
    let mut setup = Vec::new();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let engine = corpus.thor.prepare(&corpus.table);
        engine.save(&a_path).map_err(|e| e.to_string())?;
        std::hint::black_box(load(&a_path)?);
        setup.push(t.elapsed().as_secs_f64());
    }
    report.median("setup_s", &setup, "s");

    // Correctness reference: one thread.
    let reference = load(&a_path)?.with_threads(1).enrich(&corpus.docs);
    let reference_csv = to_csv(&reference.table);
    let f1 = corpus.f1(&annotations(&reference.entities), None);
    report.check(f1 >= F1_FLOOR, || format!("f1 {f1} below {F1_FLOOR}"));
    report.set("f1", f1, "ratio");
    let expected = by_doc(&reference.entities);

    // One long-lived engine for the latency rounds, warmed once on the
    // sample, as a library caller's engine would be.
    let latency_docs = corpus.sample(LATENCY_DOCS, ctx.seed);
    let engine = load(&a_path)?.with_threads(ctx.nproc);
    for doc in &latency_docs {
        std::hint::black_box(engine.enrich(std::slice::from_ref(doc)));
    }

    let passes = ((ctx.seconds * PASS_SHARE / nominal_pass_s(ctx.workload)).round() as usize)
        .max(MIN_PASSES);
    let (mut p50s, mut p90s, mut rates) = (Vec::new(), Vec::new(), Vec::new());
    for pass in 0..passes {
        while p50s.len() < (pass + 1) * LATENCY_ROUNDS / passes {
            let mut round = Vec::with_capacity(latency_docs.len());
            for doc in &latency_docs {
                let t = Instant::now();
                let out = engine.enrich(std::slice::from_ref(doc));
                round.push(t.elapsed().as_secs_f64() * 1e3);
                let want = expected.get(doc.id.as_str()).map_or(&[][..], Vec::as_slice);
                report.check(out.entities == want, || {
                    format!("one-document enrich of {} diverged", doc.id)
                });
            }
            let lat = Latency::of(&round).expect("latency sample is not empty");
            p50s.push(lat.p50);
            p90s.push(lat.p90);
        }

        // A whole-corpus pass on a freshly mapped engine.
        let fresh = load(&a_path)?.with_threads(ctx.nproc);
        let t = Instant::now();
        let out = fresh.enrich(&corpus.docs);
        rates.push(corpus.docs.len() as f64 / t.elapsed().as_secs_f64());
        report.check(to_csv(&out.table) == reference_csv, || {
            format!(
                "pass {pass} at {} threads diverged from 1 thread",
                ctx.nproc
            )
        });
    }
    drop(engine);

    report.median("docs_per_s", &rates, "1/s");
    report.median("p50_ms", &p50s, "ms");
    report.phases.push(phase(
        "passes",
        &[
            ("sent", Json::UInt(rates.len() as u64)),
            ("docs", Json::UInt(corpus.docs.len() as u64)),
            ("latency_docs", Json::UInt(latency_docs.len() as u64)),
            ("latency_rounds", Json::UInt(p50s.len() as u64)),
            ("round_p90_ms", Json::Float(Summary::of(&p90s).median)),
        ],
    ));

    let (peak_mb, csv) = cli_enrich(ctx, corpus, &a_path)?;
    report.check(csv == reference_csv, || {
        "thor enrich --engine diverged from the library's 1-thread output".into()
    });
    report.set("rss_mb", peak_mb, "MB");
    report
        .header
        .insert("runs".into(), Json::UInt(rates.len() as u64));
    Ok(())
}

/// One whole-corpus `thor enrich --engine` run at `nproc` threads, as a
/// user of the batch CLI makes it. Returns the child's peak resident
/// memory (`VmHWM`, read until it exits) and the CSV it wrote.
fn cli_enrich(ctx: &Ctx, corpus: &Corpus, engine: &Path) -> Result<(f64, String), String> {
    let dir = ctx.work.join("docs");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let mut files: Vec<PathBuf> = Vec::with_capacity(corpus.docs.len());
    for doc in &corpus.docs {
        if doc.id.contains(['.', '/']) {
            return Err(format!("document id `{}` is not a file stem", doc.id));
        }
        let path = dir.join(format!("{}.txt", doc.id));
        std::fs::write(&path, &doc.text).map_err(|e| format!("write {}: {e}", path.display()))?;
        files.push(path);
    }
    let out = ctx.work.join("cli.csv");
    let mut child = Command::new(&ctx.thor)
        .arg("enrich")
        .arg("--engine")
        .arg(engine)
        .args(["--threads", &ctx.nproc.to_string()])
        .arg("--out")
        .arg(&out)
        .args(&files)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", ctx.thor.display()))?;
    // Until the child has exec'd `thor`, its status shows this
    // process's memory: only readings under the new name count.
    let name = format!(
        "Name:\t{}",
        ctx.thor.file_name().unwrap_or_default().to_string_lossy()
    );
    let mut peak_mb = 0.0f64;
    let status = loop {
        if let Some(s) =
            crate::sys::proc_status(child.id()).filter(|s| s.lines().any(|l| l == name))
        {
            peak_mb = peak_mb.max(crate::sys::status_mb(&s, "VmHWM").unwrap_or(0.0));
        }
        match child.try_wait().map_err(|e| e.to_string())? {
            Some(status) => break status,
            None => std::thread::sleep(RSS_POLL),
        }
    };
    if !status.success() {
        return Err(format!("thor enrich --engine exited with {status}"));
    }
    if peak_mb == 0.0 {
        return Err("thor enrich exited before its memory could be read".into());
    }
    let csv = std::fs::read_to_string(&out).map_err(|e| format!("read {}: {e}", out.display()))?;
    Ok((peak_mb, csv))
}
