//! THOR benchmark: end-to-end metrics per workload (`--trace 0`) and
//! per-layer metrics from a separate traced run (`--trace 1`), measured
//! from outside the program through public functions and the `thor`
//! CLI. See `README.md` in this directory for the workloads and every
//! metric's definition.
//!
//! Usage: `thor-benchmark --workload <name> --seed <n> --seconds <s>
//! --trace <0|1> --thor <path to thor> --work <dir> --out <dir>
//! [--revision <rev>]`. The last line of stdout is the result object;
//! the line before it is the full report. Exits 1 when a correctness
//! check fails, 2 when the run could not be made.

mod batch;
mod corpus;
mod http;
mod layers;
mod online;
mod pipeline;
mod report;
mod serve;
mod stats;
mod sys;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;

use thor_obs::Json;

use corpus::{Corpus, Workload};
use report::Report;

/// Extraction quality gate: partial-match F1 of the output against
/// gold. THOR scores about 0.7 on these corpora at τ = 0.7.
pub const F1_FLOOR: f64 = 0.6;

/// One run's settings.
pub struct Ctx {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub nproc: usize,
    pub thor: PathBuf,
    /// Scratch directory for artifacts; removed after the run.
    pub work: PathBuf,
    /// Where reports and span files are kept.
    pub out: PathBuf,
    pub revision: String,
}

fn parse_args() -> Result<Ctx, String> {
    let mut opts: BTreeMap<String, String> = BTreeMap::new();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{flag}`"))?;
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        opts.insert(key.to_string(), value);
    }
    let get = |k: &str| opts.get(k).ok_or_else(|| format!("missing --{k}"));
    let workload = Workload::parse(get("workload")?)
        .ok_or_else(|| format!("unknown workload `{}`", opts["workload"]))?;
    let seed = get("seed")?
        .parse()
        .map_err(|_| "--seed wants an integer")?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|_| "--seconds wants a number")?;
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace wants 0 or 1, got `{other}`")),
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Ok(Ctx {
        workload,
        seed,
        seconds,
        trace,
        nproc,
        thor: PathBuf::from(get("thor")?),
        work: PathBuf::from(get("work")?),
        out: PathBuf::from(get("out")?),
        revision: opts
            .get("revision")
            .cloned()
            .unwrap_or_else(|| "unknown".into()),
    })
}

fn main() {
    let ctx = match parse_args() {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("thor-benchmark: {e}");
            std::process::exit(2);
        }
    };
    for dir in [&ctx.work, &ctx.out] {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("thor-benchmark: create {}: {e}", dir.display());
            std::process::exit(2);
        }
    }
    let corpus = Corpus::generate(ctx.workload, ctx.seed);
    let mut report = Report::default();
    let spec = ctx.workload.spec();
    for (k, v) in [
        ("workload", Json::Str(ctx.workload.name().into())),
        ("seed", Json::UInt(ctx.seed)),
        ("dataset_seed", Json::UInt(corpus::DATASET_SEED)),
        ("scale", Json::Float(1.0)),
        (
            "subjects",
            Json::UInt((spec.subjects.0 + spec.subjects.1 + spec.subjects.2) as u64),
        ),
        ("docs", Json::UInt(corpus.docs.len() as u64)),
        ("corpus_bytes", Json::UInt(corpus.bytes() as u64)),
        ("vocab_words", Json::UInt(corpus.dataset.store.len() as u64)),
        ("nproc", Json::UInt(ctx.nproc as u64)),
        (
            "threads",
            Json::UInt(if ctx.trace { 1 } else { ctx.nproc } as u64),
        ),
        ("revision", Json::Str(ctx.revision.clone())),
        ("trace", Json::Bool(ctx.trace)),
        ("seconds", Json::Float(ctx.seconds)),
    ] {
        report.header.insert(k.into(), v);
    }
    let outcome = match (ctx.trace, ctx.workload) {
        (true, _) => layers::run(&ctx, &corpus, &mut report),
        (false, Workload::ServeReload) => online::run(&ctx, &corpus, &mut report),
        (false, _) => batch::run(&ctx, &corpus, &mut report),
    };
    let _ = std::fs::remove_dir_all(&ctx.work);
    if let Err(e) = outcome {
        eprintln!("thor-benchmark: {}: {e}", ctx.workload.name());
        std::process::exit(2);
    }
    let detail = report.detail_json();
    let path = ctx.out.join(format!(
        "{}-seed{}-trace{}.json",
        ctx.workload.name(),
        ctx.seed,
        u8::from(ctx.trace)
    ));
    if let Err(e) = std::fs::write(&path, format!("{detail}\n")) {
        eprintln!("thor-benchmark: write {}: {e}", path.display());
    }
    for f in &report.failures {
        eprintln!("correctness: {f}");
    }
    println!("{detail}");
    println!("{}", report.result_json());
    std::process::exit(if report.correct() { 0 } else { 1 });
}
