//! Property tests for sub-linear candidate generation: **the
//! bound-pruned scan is bit-identical to the brute-force reference**.
//! Candidate generation has one path, and it must reproduce
//! `match_phrase_reference` exactly — same candidates, same order, same
//! score *bits* — across random semantic spaces, the paper's τ sweep
//! and τ = 0, zero-norm words, worker threads {1, 4}, phrase cache
//! {0, 4096}, backing {owned, mapped}, and after delta chains. Artifacts
//! without `prune.*` sections (written before pruning existed) and
//! artifacts that still carry the retired `quant.*` sections must keep
//! loading with identical output.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;
use thor_repro::core::{
    Document, EngineDelta, MapMode, PreparedEngine, SeedDelta, Thor, ThorConfig,
};
use thor_repro::data::{Schema, Table};
use thor_repro::embed::{SemanticSpaceBuilder, Vector, VectorStore};
use thor_repro::fault::{atomic_write, SectionFile, SectionWriter};
use thor_repro::matcher::{CandidateEntity, MatcherConfig, SimilarityMatcher};

fn scratch_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("thor-prune-equiv-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn case_id() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

// ---------------------------------------------------------------------
// Matcher-level properties: pruned == reference, bit for bit.
// ---------------------------------------------------------------------

/// Dimensionality of the matcher-level spaces.
const DIM: usize = 24;

/// A random clustered space plus `nil`, a word whose vector is all
/// zeros: a query of just `nil` has zero norm, and at τ = 0 the word
/// also joins the τ-expansion as a zero-norm index row.
fn space(seed: u64) -> VectorStore {
    let mut store = SemanticSpaceBuilder::new(DIM, seed)
        .spread(0.5)
        .topic("alpha")
        .topic("beta")
        .correlated_topic("gamma", "beta", 0.3)
        .words("alpha", ["ape", "ant", "asp", "auk"])
        .words("beta", ["bee", "bat", "boa", "bug"])
        .words("gamma", ["gnu", "gar", "goa"])
        .generic_words(["elk", "owl"])
        .build()
        .into_store();
    store.insert("nil", Vector::zeros(DIM));
    store
}

fn concepts() -> Vec<(String, Vec<String>)> {
    vec![
        (
            "Alpha".to_string(),
            vec!["ape".to_string(), "ant".to_string()],
        ),
        (
            "Beta".to_string(),
            vec!["bee".to_string(), "bat".to_string()],
        ),
        ("Gamma".to_string(), vec!["gnu".to_string()]),
    ]
}

fn matcher(tau: f64, seed: u64, cache: usize) -> SimilarityMatcher {
    let config = MatcherConfig {
        tau,
        cache_capacity: cache,
        ..MatcherConfig::default()
    };
    SimilarityMatcher::fine_tune(&concepts(), space(seed), config)
}

/// Match every phrase over `threads` workers sharing the one matcher
/// (and therefore the one phrase cache), twice each so cache-hit
/// replays are covered too, and require all rounds to agree.
fn matched_concurrently(
    m: &SimilarityMatcher,
    phrases: &[String],
    threads: usize,
) -> Vec<Vec<CandidateEntity>> {
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(move || {
                    phrases
                        .iter()
                        .map(|p| m.match_phrase(p))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut rounds: Vec<Vec<Vec<CandidateEntity>>> = workers
            .into_iter()
            .map(|w| w.join().expect("worker panicked"))
            .collect();
        let first = rounds.remove(0);
        for later in &rounds {
            assert_eq!(&first, later, "concurrent rounds diverged");
        }
        first
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The invariant: the pruned scan reproduces the brute-force
    /// reference *bit-identically* for random spaces, every τ of the
    /// paper's sweep and τ = 0, cache {0, 4096} and threads {1, 4} on
    /// one shared matcher — including phrases with the zero-norm word,
    /// which the pruned functions answer with the exhaustive scan's
    /// all-zero similarities.
    #[test]
    fn pruned_exact_equals_exhaustive_bit_identically(
        words in prop::collection::vec(
            prop::collection::vec("(ape|ant|asp|auk|bee|bat|boa|bug|gnu|gar|goa|elk|owl|nil|zzz)", 1..5),
            1..6,
        ),
        seed in 0u64..25,
        tau10 in 5u32..=10,
        cache_pick in 0usize..2,
        threads_pick in 0usize..2,
    ) {
        let cache = [0usize, 4096][cache_pick];
        let threads = [1usize, 4][threads_pick];
        let mut phrases: Vec<String> = words.iter().map(|w| w.join(" ")).collect();
        phrases.push("nil".to_string());
        for tau in [tau10 as f64 / 10.0, 0.0] {
            let m = matcher(tau, seed, cache);
            let got = matched_concurrently(&m, &phrases, threads);
            // The zero-norm word is live: at τ = 0 every non-empty
            // concept admits its all-zero similarities.
            prop_assert_eq!(got.last().unwrap().is_empty(), tau > 0.0);
            for (phrase, act) in phrases.iter().zip(&got) {
                let reference = m.match_phrase_reference(phrase, |_| true);
                prop_assert_eq!(
                    &reference, act,
                    "pruned path diverged from reference on `{}` at tau {}", phrase, tau
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Engine-level properties: the pruned scan is exact after delta chains
// and across map modes, and older artifact layouts keep loading.
// ---------------------------------------------------------------------

fn engine_store() -> VectorStore {
    SemanticSpaceBuilder::new(24, 5)
        .topic("anatomy")
        .words(
            "anatomy",
            ["lungs", "brain", "skin", "nerve", "spine", "ear"],
        )
        .topic("medicine")
        .words("medicine", ["aspirin", "insulin"])
        .generic_words(["damages", "grows", "treats", "causes"])
        .build()
        .into_store()
}

fn base_table() -> Table {
    let mut table = Table::new(Schema::new(["Disease", "Anatomy"], "Disease"));
    table.fill_slot("Tuberculosis", "Anatomy", "lungs");
    table.row_for_subject("Acne");
    table
}

fn docs() -> Vec<Document> {
    vec![
        Document::new("d0", "Tuberculosis damages the lungs and the brain."),
        Document::new("d1", "Acne grows on the skin and damages the ear."),
        Document::new("d2", "Aspirin treats the nerve and the spine."),
    ]
}

/// Every phrase the engine-level checks match directly: each fixture
/// word alone, and each document sentence (whose subphrases cover the
/// multi-word cases).
fn engine_phrases() -> Vec<String> {
    let mut phrases: Vec<String> = [
        "lungs", "brain", "skin", "nerve", "spine", "ear", "aspirin", "insulin", "damages",
    ]
    .iter()
    .map(|w| w.to_string())
    .collect();
    phrases.extend(docs().iter().map(|d| d.text.to_string()));
    phrases
}

/// The matcher `engine` serves agrees bit for bit with the brute-force
/// reference over [`engine_phrases`].
fn assert_matches_reference(engine: &PreparedEngine) {
    let m = engine.matcher();
    for phrase in engine_phrases() {
        assert_eq!(
            m.match_phrase(&phrase),
            m.match_phrase_reference(&phrase, |_| true),
            "pruned scan diverged from the reference on `{phrase}`"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// After a random delta chain, the chain-loaded engine's matcher
    /// reproduces the brute-force reference at every {cache} × {mmap}
    /// point, enriches identically to the in-memory evolved engine, and
    /// saves the same bytes.
    #[test]
    fn pruned_scan_equals_reference_after_delta_chains(
        seeds in prop::collection::vec((0usize..3, 0usize..6), 1..4),
        cache_pick in 0usize..2,
        mapped_pick in 0usize..2,
    ) {
        const SUBJECTS: [&str; 3] = ["Tuberculosis", "Acne", "Stroke"];
        const WORDS: [&str; 6] = ["lungs", "brain", "skin", "nerve", "spine", "ear"];
        let mode = [MapMode::Owned, MapMode::Mapped][mapped_pick];

        let mut config = ThorConfig::with_tau(0.6);
        config.cache_capacity = [0usize, 4096][cache_pick];
        let thor = Thor::new(engine_store(), config);
        let mut engine = thor.prepare(&base_table());

        let dir = scratch_dir();
        let case = case_id();
        let mut paths = vec![dir.join(format!("base-{case}.eng"))];
        engine.save(&paths[0]).unwrap();
        for (i, &(sub, word)) in seeds.iter().enumerate() {
            let mut rows = Table::new(Schema::new(["Disease", "Anatomy"], "Disease"));
            rows.fill_slot(SUBJECTS[sub], "Anatomy", WORDS[word]);
            engine = engine.apply_delta(&EngineDelta::Seeds(SeedDelta::new(rows))).unwrap();
            let next = dir.join(format!("d{i}-{case}.eng"));
            engine.save_delta(paths.last().unwrap(), &next, "prune prop").unwrap();
            paths.push(next);
        }
        assert_matches_reference(&engine);

        let loaded = PreparedEngine::load_with(paths.last().unwrap(), mode).unwrap();
        prop_assert_eq!(loaded.fingerprint(), engine.fingerprint());
        assert_matches_reference(&loaded);
        let docs = docs();
        let served = loaded.enrich(&docs);
        let evolved = engine.enrich(&docs);
        prop_assert_eq!(&served.entities, &evolved.entities);
        prop_assert_eq!(
            thor_repro::data::csv::to_csv(&served.table),
            thor_repro::data::csv::to_csv(&evolved.table)
        );

        // The chain-loaded engine saves the evolved engine's bytes.
        let (pa, pb) = (
            dir.join(format!("evolved-{case}.eng")),
            dir.join(format!("loaded-{case}.eng")),
        );
        engine.save(&pa).unwrap();
        loaded.save(&pb).unwrap();
        prop_assert_eq!(std::fs::read(&pa).unwrap(), std::fs::read(&pb).unwrap());

        drop(loaded);
        for p in paths.iter().chain([&pa, &pb]) {
            std::fs::remove_file(p).ok();
        }
    }
}

/// Rewrite the artifact at `src` into `dst` through `SectionWriter`,
/// dropping the sections `drop` selects and appending `extra`.
fn rewrite_sections(
    src: &Path,
    dst: &Path,
    drop: impl Fn(&str) -> bool,
    extra: &[(&str, Vec<u8>)],
) {
    let file = SectionFile::open(src, MapMode::Owned).unwrap();
    let mut w = SectionWriter::new();
    for e in file.entries() {
        if !drop(&e.name) {
            w.add(&e.name, e.version, file.bytes(&e.name).unwrap());
        }
    }
    for (name, bytes) in extra {
        w.add(name, 1, bytes);
    }
    atomic_write(dst, &w.finish()).unwrap();
}

/// The `quant.rows`/`quant.scales` payloads earlier saves carried after
/// the prune sections: the index rows as symmetric i8 codes (one scale
/// `max|x| / 127` per row, codes stored as `u8` bit patterns) and the
/// little-endian `f32` scales.
fn retired_quant_sections(engine: &PreparedEngine) -> [(&'static str, Vec<u8>); 2] {
    let index = engine.matcher().index();
    let mut codes = Vec::new();
    let mut scales = Vec::new();
    for row in index.data().chunks(index.dim()) {
        let max = row.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
        let scale = if max == 0.0 { 0.0 } else { max / 127.0 };
        scales.extend_from_slice(&scale.to_le_bytes());
        codes.extend(row.iter().map(|&x| {
            if scale == 0.0 {
                0
            } else {
                ((x / scale).round().clamp(-127.0, 127.0) as i8) as u8
            }
        }));
    }
    [("quant.rows", codes), ("quant.scales", scales)]
}

/// Older artifact layouts keep loading: one written before pruning
/// existed (every `prune.*` section stripped — the load rebuilds the
/// structures on the fly) and one that still carries the retired
/// `quant.*` sections (looked up by no one, checksum-verified like any
/// other section). Each loads under both map modes, keeps its
/// fingerprint and enriches identically; a delta applied over the
/// `quant.*` artifact loads and enriches like a fresh build of the
/// merged table.
#[test]
fn artifacts_without_prune_sections_still_load_and_agree() {
    let dir = scratch_dir();
    let thor = Thor::new(engine_store(), ThorConfig::with_tau(0.6));
    let engine = thor.prepare(&base_table());
    let full = dir.join("compat-full.eng");
    engine.save(&full).unwrap();

    let file = SectionFile::open(&full, MapMode::Owned).unwrap();
    let names: Vec<String> = file.entries().iter().map(|e| e.name.clone()).collect();
    drop(file);
    assert_eq!(
        names.iter().filter(|n| n.starts_with("prune.")).count(),
        6,
        "a fresh save should carry all six pruning sections: {names:?}"
    );
    assert!(
        !names.iter().any(|n| n.starts_with("quant.")),
        "a fresh save writes no quant.* section: {names:?}"
    );

    let stripped = dir.join("compat-stripped.eng");
    rewrite_sections(&full, &stripped, |n| n.starts_with("prune."), &[]);
    let with_quant = dir.join("compat-quant.eng");
    rewrite_sections(
        &full,
        &with_quant,
        |_| false,
        &retired_quant_sections(&engine),
    );

    let docs = docs();
    let want = engine.enrich(&docs);
    for artifact in [&stripped, &with_quant] {
        for mode in [MapMode::Owned, MapMode::Mapped] {
            let loaded = PreparedEngine::load_with(artifact, mode).unwrap();
            assert_eq!(loaded.fingerprint(), engine.fingerprint());
            let got = loaded.enrich(&docs);
            assert_eq!(want.entities, got.entities);
            assert_eq!(
                thor_repro::data::csv::to_csv(&want.table),
                thor_repro::data::csv::to_csv(&got.table)
            );
        }
    }

    // A delta over the artifact that carries `quant.*`.
    let mut rows = Table::new(Schema::new(["Disease", "Anatomy"], "Disease"));
    rows.fill_slot("Stroke", "Anatomy", "brain");
    let mut merged = base_table();
    merged.fill_slot("Stroke", "Anatomy", "brain");
    let fresh = thor.prepare(&merged);
    let delta = dir.join("compat-quant-d1.eng");
    PreparedEngine::load_with(&with_quant, MapMode::Owned)
        .unwrap()
        .apply_delta(&EngineDelta::Seeds(SeedDelta::new(rows)))
        .unwrap()
        .save_delta(&with_quant, &delta, "over a quant.* artifact")
        .unwrap();
    let want = fresh.enrich(&docs);
    for mode in [MapMode::Owned, MapMode::Mapped] {
        let loaded = PreparedEngine::load_with(&delta, mode).unwrap();
        assert_eq!(loaded.chain_depth(), 1);
        assert_eq!(loaded.fingerprint(), fresh.fingerprint());
        let got = loaded.enrich(&docs);
        assert_eq!(want.entities, got.entities);
        assert_eq!(
            thor_repro::data::csv::to_csv(&want.table),
            thor_repro::data::csv::to_csv(&got.table)
        );
    }
    for p in [&full, &stripped, &with_quant, &delta] {
        std::fs::remove_file(p).ok();
    }
}
