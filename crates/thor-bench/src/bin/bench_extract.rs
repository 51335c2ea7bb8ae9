//! **BENCH_extract** — refinement-kernel benchmark: the
//! allocation-free `thor_text::kernels` scoring path with score-bound
//! early abandon (`refine_candidates`, what the pipeline runs) against
//! the reference implementation (`refine_candidates_reference`:
//! `jaccard_words`/`gestalt_similarity` on the raw strings) on Disease
//! A–Z candidate lists.
//!
//! Emits `BENCH_extract.json` (selections/sec for both paths, pruned
//! fraction, speedup, end-to-end equivalence checks) to the working
//! directory and prints the same document to stdout. Before timing,
//! every candidate list is checked for *bit-exact* winner equality
//! between the two paths — the speedup claim is only meaningful because
//! the kernel path is a drop-in replacement — and a full enrich run is
//! compared byte-for-byte (CSV) between 1 and 4 threads. (The
//! end-to-end kernel-vs-reference comparison lives in thor-core's
//! `refine_kernels` test suite.)
//!
//! A second workload sweeps segmentation over the subject table: every
//! split's documents are segmented against the table's own subjects and
//! against 4× and 16× tables (each extra subject a variant name no
//! document mentions), reporting `segment_us_per_doc` per size.
//!
//! Usage: `bench_extract [--smoke]` (env: `THOR_SCALE`, `THOR_SEED`).
//! `--smoke` pins a small scale and few repetitions so CI can afford to
//! run it on every push; the full mode additionally enforces the ≥3×
//! speedup floor and keeps segmentation at 16× subjects within 2× of
//! 1× (smoke timings are too noisy to gate on).

use std::collections::BTreeMap;
use std::time::Instant;

use thor_bench::harness::{disease_dataset, scale_from_env, seed_from_env};
use thor_core::segment::{segment, Subjects};
use thor_core::{
    refine_candidates, refine_candidates_reference, Document, PreparedEngine, Thor, ThorConfig,
};
use thor_data::csv::to_csv;
use thor_datagen::Split;
use thor_match::CandidateSource;
use thor_obs::Json;
use thor_text::ScoreScratch;

/// Mid-sweep τ: representative clusters are at their paper-default size.
const TAU: f64 = 0.7;

/// Subject-table sizes of the segmentation sweep, as multiples of the
/// table's own subject count.
const SWEEP: [usize; 3] = [1, 4, 16];

/// Median segmentation time per document (µs) for each [`SWEEP`] size,
/// with the subject count. Sizes are interleaved within every rep so
/// drift hits them alike.
fn segment_sweep(engine: &PreparedEngine, docs: &[Document], reps: usize) -> Vec<(usize, f64)> {
    let base: &[String] = engine.subjects();
    let tables: Vec<Subjects> = SWEEP
        .iter()
        .map(|&factor| {
            let variants =
                (1..factor).flat_map(|k| base.iter().map(move |s| format!("{s} variant {k}")));
            let names: Vec<String> = base.iter().cloned().chain(variants).collect();
            Subjects::new(names, engine.store())
        })
        .collect();
    let mode = engine.config().segmentation;
    let mut samples = vec![Vec::with_capacity(reps); SWEEP.len()];
    for _ in 0..reps {
        for (subjects, out) in tables.iter().zip(&mut samples) {
            let t0 = Instant::now();
            for doc in docs {
                std::hint::black_box(segment(doc, subjects, engine.matcher(), mode));
            }
            out.push(t0.elapsed().as_secs_f64() * 1e6 / docs.len() as f64);
        }
    }
    tables
        .iter()
        .zip(samples)
        .map(|(subjects, mut us)| {
            us.sort_by(f64::total_cmp);
            (subjects.len(), us[us.len() / 2])
        })
        .collect()
}

/// Crude sentence split — the workload only needs realistic candidate
/// lists, not linguistically perfect boundaries.
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
        (scale_from_env(), 10)
    };
    let dataset = disease_dataset(seed_from_env(), scale);
    let table = dataset.enrichment_table();
    let docs = dataset.documents(Split::Test);

    let kernel_config = ThorConfig::with_tau(TAU);

    let thor = Thor::new(dataset.store.clone(), kernel_config.clone());
    let engine = thor.prepare(&table);
    let matcher = engine.matcher();

    // The refinement workload: one candidate list per sentence, exactly
    // what `extract_entities` hands to `refine_candidates`. Generation
    // runs once up front so the timed loops measure refinement alone.
    let lists: Vec<Vec<_>> = docs
        .iter()
        .flat_map(|d| sentences(&d.text))
        .map(|s| matcher.candidates(&s))
        .filter(|c| !c.is_empty())
        .collect();
    assert!(!lists.is_empty(), "empty workload");
    let candidates_total: usize = lists.iter().map(Vec::len).sum();

    // Correctness before speed: bit-exact winner equality per list,
    // accumulating the kernel's prune accounting along the way.
    let mut scratch = ScoreScratch::new();
    let (mut scored, mut pruned) = (0u64, 0u64);
    for list in &lists {
        let kernel = refine_candidates(list, matcher, &kernel_config, &mut scratch);
        let reference = refine_candidates_reference(list, &kernel_config);
        scored += kernel.scored;
        pruned += kernel.pruned;
        match (&kernel.best, &reference.best) {
            (None, None) => {}
            (Some((kc, ks)), Some((rc, rs))) => {
                assert_eq!(kc, rc, "kernel winner diverged from reference");
                assert_eq!(ks.to_bits(), rs.to_bits(), "winner score bits diverged");
            }
            other => panic!("winner presence diverged: {other:?}"),
        }
    }
    let pruned_fraction = pruned as f64 / (scored + pruned) as f64;

    let total = (lists.len() * reps) as f64;
    let t0 = Instant::now();
    for _ in 0..reps {
        for list in &lists {
            std::hint::black_box(refine_candidates_reference(list, &kernel_config));
        }
    }
    let ref_rate = total / t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    for _ in 0..reps {
        for list in &lists {
            std::hint::black_box(refine_candidates(
                list,
                matcher,
                &kernel_config,
                &mut scratch,
            ));
        }
    }
    let kernel_rate = total / t0.elapsed().as_secs_f64();
    let speedup = kernel_rate / ref_rate;

    // End-to-end check: the enriched CSV must be byte-identical at 1
    // and 4 threads.
    let enrich_csv = |threads: usize| {
        let mut config = kernel_config.clone();
        config.threads = threads;
        to_csv(
            &Thor::new(dataset.store.clone(), config)
                .prepare(&table)
                .enrich(&docs)
                .table,
        )
    };
    assert_eq!(
        enrich_csv(1),
        enrich_csv(4),
        "kernel enrich CSV diverged across threads"
    );

    // Every split's documents: the test split alone is too few to time.
    let sweep_docs: Vec<Document> = [Split::Train, Split::Validation, Split::Test]
        .into_iter()
        .flat_map(|s| dataset.documents(s))
        .collect();
    let sweep = segment_sweep(&engine, &sweep_docs, reps);
    let growth = sweep[SWEEP.len() - 1].1 / sweep[0].1;

    let mut doc = BTreeMap::new();
    doc.insert("bench".into(), Json::Str("extract".into()));
    doc.insert(
        "mode".into(),
        Json::Str(if smoke { "smoke" } else { "full" }.into()),
    );
    doc.insert("tau".into(), Json::Float(TAU));
    doc.insert("scale".into(), Json::Float(scale));
    doc.insert("candidate_lists".into(), Json::UInt(lists.len() as u64));
    doc.insert("candidates".into(), Json::UInt(candidates_total as u64));
    doc.insert("reps".into(), Json::UInt(reps as u64));
    doc.insert("refine_scored".into(), Json::UInt(scored));
    doc.insert("refine_pruned".into(), Json::UInt(pruned));
    doc.insert("pruned_fraction".into(), Json::Float(pruned_fraction));
    doc.insert("reference_selections_per_sec".into(), Json::Float(ref_rate));
    doc.insert("kernel_selections_per_sec".into(), Json::Float(kernel_rate));
    doc.insert("speedup".into(), Json::Float(speedup));
    doc.insert("csv_byte_identical".into(), Json::Bool(true));
    doc.insert("segment_docs".into(), Json::UInt(sweep_docs.len() as u64));
    doc.insert(
        "segment_sweep".into(),
        Json::Array(
            SWEEP
                .iter()
                .zip(&sweep)
                .map(|(&factor, &(subjects, us))| {
                    let mut row = BTreeMap::new();
                    row.insert("factor".into(), Json::UInt(factor as u64));
                    row.insert("subjects".into(), Json::UInt(subjects as u64));
                    row.insert("segment_us_per_doc".into(), Json::Float(us));
                    Json::Object(row)
                })
                .collect(),
        ),
    );
    doc.insert("segment_growth_16x".into(), Json::Float(growth));
    let rendered = Json::Object(doc).render();
    std::fs::write("BENCH_extract.json", format!("{rendered}\n"))
        .expect("write BENCH_extract.json");
    println!("{rendered}");
    println!(
        "reference {ref_rate:.0} selections/s | kernel {kernel_rate:.0} selections/s | \
         speedup {speedup:.1}x | pruned {:.1}%",
        pruned_fraction * 100.0
    );
    for (&factor, (subjects, us)) in SWEEP.iter().zip(&sweep) {
        println!("segment {factor:>2}x ({subjects} subjects): {us:.1} us/doc");
    }
    if !smoke {
        assert!(
            speedup >= 3.0,
            "expected >=3x speedup over reference refinement, got {speedup:.2}x"
        );
        assert!(
            growth <= 2.0,
            "segmentation at 16x subjects is {growth:.2}x the 1x cost (gate: <=2x)"
        );
    }
}
