//! **BENCH_matcher** — candidate-generation engine benchmark: the
//! structure-of-arrays index + phrase cache path (`match_phrase`)
//! against the retained brute-force reference
//! (`match_phrase_reference`) on Disease A–Z sentences.
//!
//! Emits `BENCH_matcher.json` (phrases/sec for both paths, index build
//! time, cache hit rate, speedup) to the working directory and prints
//! the same document to stdout. The document opens with the run header
//! (mode, scale, threads, nproc, git revision, reps); every rate is the
//! median of its timed samples with their min and max. Before timing,
//! every phrase is checked for *exact* equality between the two paths —
//! the speedup claim is only meaningful because the engine is a drop-in
//! replacement.
//!
//! Usage: `bench_matcher [--smoke]` (env: `THOR_SCALE`, `THOR_SEED`).
//! `--smoke` pins a small scale and few repetitions so CI can afford to
//! run it on every push; the full mode additionally enforces the ≥3×
//! speedup floor (smoke timings are too noisy to gate on).
//!
//! The document also carries a **vocabulary sweep** (`vocab_sweep`):
//! synthetic clustered spaces at 1×/4×/16× words-per-concept, timing
//! bound-pruned candidate generation (`match_phrase`, phrase cache
//! disabled) against the brute-force reference. Reference throughput
//! decays roughly linearly with representative rows; pruned throughput
//! flattens — full mode asserts a pruned speedup floor at the largest
//! size ([`SWEEP_SPEEDUP_FLOOR`]) and that pruned decays strictly
//! slower.

use std::collections::BTreeMap;
use std::time::Instant;

use thor_bench::harness::{disease_dataset, scale_from_env, seed_from_env};
use thor_core::{Thor, ThorConfig};
use thor_datagen::Split;
use thor_embed::SemanticSpaceBuilder;
use thor_match::{MatcherConfig, SimilarityMatcher};
use thor_obs::{Json, PipelineMetrics};

/// Mid-sweep τ: representative clusters are at their paper-default size.
const TAU: f64 = 0.7;

/// Concept count held fixed across the vocabulary sweep — the sweep
/// scales *words per concept*, which is what grows the row count the
/// exhaustive scan pays for while the concept-bound walk does not.
const SWEEP_CONCEPTS: usize = 16;

/// Vocabulary multipliers: 1×/4×/16× words per concept.
const SWEEP_MULTS: [usize; 3] = [1, 4, 16];

/// Full-mode floor on the pruned-over-reference speedup at the largest
/// sweep size: about half the median of five full-mode runs on a
/// shared 2-core x86-64 box (84×, 96×, 102×, 111×, 191×), so losing
/// half the pruning win fails while run-to-run noise does not.
const SWEEP_SPEEDUP_FLOOR: f64 = 50.0;

/// Median, min and max throughput over a run's timed samples.
#[derive(Clone, Copy)]
struct Spread {
    median: f64,
    min: f64,
    max: f64,
}

impl Spread {
    fn json(self) -> Json {
        let mut o = BTreeMap::new();
        o.insert("median".into(), Json::Float(self.median));
        o.insert("min".into(), Json::Float(self.min));
        o.insert("max".into(), Json::Float(self.max));
        Json::Object(o)
    }
}

/// Time `samples` samples, each `reps` passes of `score` over
/// `phrases`, and return the spread of their phrases/sec.
fn phrases_per_sec<R>(
    samples: usize,
    reps: usize,
    phrases: &[String],
    score: impl Fn(&str) -> R,
) -> Spread {
    let mut rates: Vec<f64> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..reps {
                for p in phrases {
                    std::hint::black_box(score(p));
                }
            }
            (phrases.len() * reps) as f64 / t0.elapsed().as_secs_f64()
        })
        .collect();
    rates.sort_by(f64::total_cmp);
    Spread {
        median: rates[samples / 2],
        min: rates[0],
        max: rates[samples - 1],
    }
}

/// The checked-out revision, `-dirty` when the tree has uncommitted
/// changes; `unknown` outside a git checkout.
fn git_revision() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

/// One measured point of the vocabulary sweep.
struct SweepPoint {
    mult: usize,
    vocab_words: usize,
    index_rows: usize,
    pruned_rate: Spread,
    reference_rate: Spread,
}

/// Build the sweep matcher for a vocabulary multiplier: 16 tight
/// synthetic concepts (`spread(0.05)` keeps intra-concept radii small,
/// the regime the cluster bounds are designed for), `16 × mult` words
/// each, with the first 8 words of each concept as its seed instances.
/// The phrase cache is disabled so the timing isolates candidate
/// generation itself rather than cache hits.
fn sweep_matcher(mult: usize) -> SimilarityMatcher {
    let words_per = 16 * mult;
    let mut builder = SemanticSpaceBuilder::new(32, 0x7468_6f72 + mult as u64).spread(0.05);
    for ci in 0..SWEEP_CONCEPTS {
        let topic = format!("t{ci:02}");
        builder = builder.topic(&topic);
        for wi in 0..words_per {
            builder = builder.word(&topic, &format!("t{ci:02}w{wi:03}"));
        }
    }
    let store = builder.build().into_store();
    let concepts: Vec<(String, Vec<String>)> = (0..SWEEP_CONCEPTS)
        .map(|ci| {
            (
                format!("Concept{ci:02}"),
                (0..8).map(|wi| format!("t{ci:02}w{wi:03}")).collect(),
            )
        })
        .collect();
    let config = MatcherConfig {
        tau: TAU,
        cache_capacity: 0,
        ..MatcherConfig::default()
    };
    SimilarityMatcher::fine_tune(&concepts, store, config)
}

/// Measure one sweep point: pruned vs reference throughput on a fixed
/// query set (two-word phrases of *expansion* words — present at every
/// multiplier, not seed instances — so the work per query is the scan,
/// not a trivial seed hit). Before timing, the two paths are checked
/// for exact equality on every query: the sweep's claim is only
/// meaningful because pruning is a drop-in replacement.
fn sweep_point(mult: usize, samples: usize, reps: usize) -> SweepPoint {
    let matcher = sweep_matcher(mult);
    let queries: Vec<String> = (0..SWEEP_CONCEPTS)
        .map(|ci| format!("t{ci:02}w008 t{ci:02}w009"))
        .collect();
    for q in &queries {
        assert_eq!(
            matcher.match_phrase(q),
            matcher.match_phrase_reference(q, |_| true),
            "pruned scan diverged from the reference at {mult}x on {q:?}"
        );
    }
    SweepPoint {
        mult,
        vocab_words: SWEEP_CONCEPTS * 16 * mult,
        index_rows: matcher.index().row_count(),
        pruned_rate: phrases_per_sec(samples, reps, &queries, |q| matcher.match_phrase(q)),
        reference_rate: phrases_per_sec(samples, reps, &queries, |q| {
            matcher.match_phrase_reference(q, |_| true)
        }),
    }
}

/// Run the vocabulary sweep and render it as the `vocab_sweep` array.
/// In full mode, enforce the sub-linear claim: at least
/// [`SWEEP_SPEEDUP_FLOOR`] pruned speedup at the largest vocabulary,
/// and pruned throughput decaying strictly slower than the reference
/// (≤ 0.7× the reference decay factor).
fn vocab_sweep(smoke: bool, samples: usize) -> Json {
    let reps = if smoke { 5 } else { 40 };
    let points: Vec<SweepPoint> = SWEEP_MULTS
        .iter()
        .map(|&mult| sweep_point(mult, samples, reps))
        .collect();
    let speedup = |p: &SweepPoint| p.pruned_rate.median / p.reference_rate.median;
    for p in &points {
        println!(
            "sweep {:>2}x: {:>5} words, {:>5} rows | pruned {:>9.0} phrases/s | \
             reference {:>9.0} phrases/s | speedup {:.1}x",
            p.mult,
            p.vocab_words,
            p.index_rows,
            p.pruned_rate.median,
            p.reference_rate.median,
            speedup(p)
        );
    }
    let (first, last) = (&points[0], &points[points.len() - 1]);
    if !smoke {
        assert!(
            speedup(last) >= SWEEP_SPEEDUP_FLOOR,
            "expected >={SWEEP_SPEEDUP_FLOOR}x pruned speedup at {}x vocabulary, got {:.2}x",
            last.mult,
            speedup(last)
        );
        // Decay factor: how much throughput is lost growing the
        // vocabulary 16×. The reference decays ~linearly with rows; the
        // bound-pruned walk must decay strictly slower.
        let pruned_decay = first.pruned_rate.median / last.pruned_rate.median;
        let reference_decay = first.reference_rate.median / last.reference_rate.median;
        assert!(
            pruned_decay <= reference_decay * 0.7,
            "pruned scan is not sub-linear: pruned decayed {pruned_decay:.2}x vs \
             reference {reference_decay:.2}x over a {}x vocabulary growth",
            last.mult
        );
    }
    Json::Array(
        points
            .iter()
            .map(|p| {
                let mut o = BTreeMap::new();
                o.insert("mult".into(), Json::UInt(p.mult as u64));
                o.insert("vocab_words".into(), Json::UInt(p.vocab_words as u64));
                o.insert("index_rows".into(), Json::UInt(p.index_rows as u64));
                o.insert("pruned_phrases_per_sec".into(), p.pruned_rate.json());
                o.insert("reference_phrases_per_sec".into(), p.reference_rate.json());
                o.insert("speedup".into(), Json::Float(speedup(p)));
                Json::Object(o)
            })
            .collect(),
    )
}

/// Crude sentence split — the workload only needs realistic multi-word
/// phrases, not linguistically perfect boundaries.
fn sentences(text: &str) -> Vec<String> {
    text.split(['.', '!', '?'])
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect()
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (scale, reps) = if smoke {
        (0.1, 3)
    } else {
        (scale_from_env(), 5)
    };
    let dataset = disease_dataset(seed_from_env(), scale);
    let table = dataset.enrichment_table();
    let docs = dataset.documents(Split::Test);
    let phrases: Vec<String> = docs.iter().flat_map(|d| sentences(&d.text)).collect();
    assert!(!phrases.is_empty(), "empty workload");

    let metrics = PipelineMetrics::new();
    let thor =
        Thor::new(dataset.store.clone(), ThorConfig::with_tau(TAU)).with_metrics(metrics.clone());
    let engine = thor.prepare(&table);
    let matcher = engine.matcher();
    let index_build = metrics.index_build.total();

    // Correctness before speed: the engine path must reproduce the
    // brute-force reference exactly. This pass also warms the cache,
    // exactly as a document stream would.
    for p in &phrases {
        assert_eq!(
            matcher.match_phrase(p),
            matcher.match_phrase_reference(p, |_| true),
            "index path diverged from reference on {p:?}"
        );
    }

    // One timed sample per rep, each a pass over every phrase.
    let ref_rate = phrases_per_sec(reps, 1, &phrases, |p| {
        matcher.match_phrase_reference(p, |_| true)
    });
    let idx_rate = phrases_per_sec(reps, 1, &phrases, |p| matcher.match_phrase(p));

    let speedup = idx_rate.median / ref_rate.median;
    let cache = matcher.cache_stats();
    let mut doc = BTreeMap::new();
    doc.insert("bench".into(), Json::Str("matcher".into()));
    doc.insert(
        "mode".into(),
        Json::Str(if smoke { "smoke" } else { "full" }.into()),
    );
    doc.insert("scale".into(), Json::Float(scale));
    // Candidate generation is timed on the calling thread only.
    doc.insert("threads".into(), Json::UInt(1));
    doc.insert(
        "nproc".into(),
        Json::UInt(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
    );
    doc.insert("revision".into(), Json::Str(git_revision()));
    doc.insert("reps".into(), Json::UInt(reps as u64));
    doc.insert("tau".into(), Json::Float(TAU));
    doc.insert("phrases".into(), Json::UInt(phrases.len() as u64));
    doc.insert(
        "index_rows".into(),
        Json::UInt(matcher.index().row_count() as u64),
    );
    doc.insert(
        "index_build_ms".into(),
        Json::Float(index_build.as_secs_f64() * 1e3),
    );
    doc.insert("reference_phrases_per_sec".into(), ref_rate.json());
    doc.insert("index_phrases_per_sec".into(), idx_rate.json());
    doc.insert("speedup".into(), Json::Float(speedup));
    doc.insert("cache_hits".into(), Json::UInt(cache.hits));
    doc.insert("cache_misses".into(), Json::UInt(cache.misses));
    doc.insert("cache_hit_rate".into(), Json::Float(cache.hit_rate()));
    doc.insert("vocab_sweep".into(), vocab_sweep(smoke, reps));
    let rendered = Json::Object(doc).render();
    std::fs::write("BENCH_matcher.json", format!("{rendered}\n"))
        .expect("write BENCH_matcher.json");
    println!("{rendered}");
    println!(
        "reference {:.0} phrases/s | index+cache {:.0} phrases/s | \
         speedup {speedup:.1}x | cache hit rate {:.1}%",
        ref_rate.median,
        idx_rate.median,
        cache.hit_rate() * 100.0
    );
    if !smoke {
        assert!(
            speedup >= 3.0,
            "expected >=3x speedup over brute force, got {speedup:.2}x"
        );
    }
}
