//! The refinement kernels and the early abandon are *performance*
//! devices, not semantic ones: enriching the same table from the same
//! documents must produce a byte-identical CSV serialization and
//! bit-identical entity predictions whether refinement runs on the
//! allocation-free kernel path with score-bound pruning
//! (`refine_candidates`, what every entry point runs) or on the
//! documented reference implementation (`refine_candidates_reference`,
//! every candidate scored from the raw strings). The reference side is
//! the per-document pipeline rebuilt here from public calls; the kernel
//! side is `PreparedEngine::enrich` on one thread or four, owned or
//! memory-mapped, cached or uncached. This is the end-to-end
//! counterpart of the per-function bit-equality proptests in
//! `thor_text::kernels`.

use std::cmp::Ordering;

use thor_core::extract::{refine_candidates, refine_candidates_reference, RefineOutcome};
use thor_core::segment::segment;
use thor_core::slotfill::slot_fill;
use thor_core::{Document, ExtractedEntity, MapMode, PreparedEngine, Thor, ThorConfig};
use thor_data::csv::to_csv;
use thor_data::{Schema, Table};
use thor_embed::{SemanticSpaceBuilder, VectorStore};
use thor_index::{CandidateEntity, CandidateSource};
use thor_nlp::{chunk_sentence, Lexicon, RuleTagger};
use thor_obs::PipelineMetrics;
use thor_text::{tokenize, ScoreScratch};

fn store() -> VectorStore {
    SemanticSpaceBuilder::new(32, 55)
        .spread(0.4)
        .topic("disease")
        .topic("anatomy")
        .correlated_topic("complication", "anatomy", 0.25)
        .words(
            "disease",
            ["tuberculosis", "acne", "neuroma", "acoustic", "malaria"],
        )
        .words(
            "anatomy",
            [
                "nervous", "system", "brain", "nerve", "lungs", "skin", "ear", "liver",
            ],
        )
        .words(
            "complication",
            [
                "cancer",
                "tumor",
                "unsteadiness",
                "empyema",
                "deafness",
                "fever",
            ],
        )
        .generic_words([
            "slow-growing",
            "grows",
            "damage",
            "damages",
            "severe",
            "causes",
        ])
        .build()
        .into_store()
}

fn table() -> Table {
    let mut table = Table::new(Schema::new(
        ["Disease", "Anatomy", "Complication"],
        "Disease",
    ));
    table.fill_slot("Acoustic Neuroma", "Anatomy", "nervous system");
    table.fill_slot("Acne", "Anatomy", "skin");
    table.fill_slot("Acne", "Complication", "skin cancer");
    table.fill_slot("Malaria", "Complication", "fever");
    table.row_for_subject("Tuberculosis");
    table
}

fn docs() -> Vec<Document> {
    [
        "Acoustic Neuroma is a slow-growing non-cancerous brain tumor. \
         It may cause unsteadiness and deafness.",
        "Tuberculosis generally damages the lungs and may cause empyema. \
         Severe tuberculosis damages the lungs.",
        "Malaria causes severe fever and may damage the liver.",
        "Acne damages the skin. The tumor grows on the nerve near the ear.",
        "Acne damages the skin. Acne damages the skin. Acne damages the skin.",
    ]
    .iter()
    .enumerate()
    .map(|(i, text)| Document::new(format!("doc{i:02}"), *text))
    .collect()
}

/// What the reference pipeline produced: the enriched CSV, the deduped
/// entities, and how many candidates refinement scored.
struct ReferenceRun {
    csv: String,
    entities: Vec<ExtractedEntity>,
    scored: u64,
}

/// The pipeline's dedup order: entities sharing a (document, concept,
/// phrase) key ranked best-score-first, every other field breaking ties.
fn dedup_order(a: &ExtractedEntity, b: &ExtractedEntity) -> Ordering {
    a.key()
        .cmp(&b.key())
        .then_with(|| b.score.total_cmp(&a.score))
        .then_with(|| a.phrase.cmp(&b.phrase))
        .then_with(|| a.matched_instance.cmp(&b.matched_instance))
        .then_with(|| a.subject.cmp(&b.subject))
        .then_with(|| a.sentence_index.cmp(&b.sentence_index))
}

/// Enrich `docs` through the per-document pipeline rebuilt from public
/// calls — `segment` → (`tokenize` + `chunk_sentence`) → anchored
/// candidate generation → `refine_candidates_reference`, then dedup and
/// `slot_fill` over a copy of the engine's table.
fn reference_enrich(engine: &PreparedEngine, docs: &[Document]) -> ReferenceRun {
    let config = engine.config();
    assert!(
        config.np_chunking && config.context_gate.is_none(),
        "the rebuilt pipeline covers the default configuration only"
    );
    let matcher = engine.matcher();
    let source: &dyn CandidateSource = matcher;
    let tagger = RuleTagger::default();
    let lexicon = Lexicon::english();
    let anchor = |w: &str| lexicon.tag_of(w, false).is_nominal();
    let mut entities = Vec::new();
    let mut scored = 0;
    for doc in docs {
        for seg in segment(doc, engine.subjects(), matcher, config.segmentation) {
            let tokens = tokenize(&seg.sentence.text);
            let words: Vec<&str> = tokens.iter().map(|t| t.text.as_str()).collect();
            if words.is_empty() {
                continue;
            }
            for np in chunk_sentence(&words, &tagger) {
                let candidates = source.candidates_anchored(&np.text, &anchor);
                let outcome = refine_candidates_reference(&candidates, config);
                assert_eq!(outcome.pruned, 0, "the reference never prunes");
                scored += outcome.scored;
                if let Some((candidate, score)) = outcome.best {
                    entities.push(ExtractedEntity {
                        subject: seg.subject.clone(),
                        concept: candidate.concept,
                        phrase: candidate.phrase,
                        score,
                        matched_instance: candidate.matched_instance,
                        doc_id: doc.id.clone(),
                        sentence_index: seg.index,
                    });
                }
            }
        }
    }
    entities.sort_by(dedup_order);
    entities.dedup_by(|next, first| next.key() == first.key());
    let mut table = engine.table().clone();
    slot_fill(&mut table, &entities);
    ReferenceRun {
        csv: to_csv(&table),
        entities,
        scored,
    }
}

fn engine(tau: f64, cache_capacity: usize) -> PreparedEngine {
    let mut config = ThorConfig::with_tau(tau);
    config.cache_capacity = cache_capacity;
    Thor::new(store(), config).prepare(&table())
}

/// The same engine saved and loaded back memory-mapped.
fn mapped(engine: &PreparedEngine, tag: &str) -> PreparedEngine {
    let path = std::env::temp_dir().join(format!(
        "thor-refine-kernels-{}-{tag}.eng",
        std::process::id()
    ));
    engine.save(&path).expect("save engine");
    let loaded = PreparedEngine::load_with(&path, MapMode::Mapped).expect("load mapped");
    std::fs::remove_file(&path).ok();
    loaded
}

/// Scores compared down to the bit, not just `==`: the whole point of
/// the kernel path is exact reproduction of the reference arithmetic.
fn assert_entities_bit_equal(reference: &[ExtractedEntity], got: &[ExtractedEntity], label: &str) {
    assert_eq!(reference.len(), got.len(), "entity count diverged: {label}");
    for (r, g) in reference.iter().zip(got) {
        assert_eq!(r, g, "entity diverged: {label}");
        assert_eq!(
            r.score.to_bits(),
            g.score.to_bits(),
            "score bits diverged: {label}"
        );
    }
}

#[test]
fn kernel_matches_reference_across_execution_knobs() {
    for tau10 in [5, 7, 9] {
        let tau = tau10 as f64 / 10.0;
        for cache_capacity in [0, 4096] {
            let owned = engine(tau, cache_capacity);
            let reference = reference_enrich(&owned, &docs());
            assert!(
                reference.csv.contains("Disease"),
                "reference CSV should serialize the schema"
            );
            let mapped = mapped(&owned, &format!("{tau10}-{cache_capacity}"));
            for (backing, engine) in [("owned", &owned), ("mapped", &mapped)] {
                for threads in [1, 4] {
                    let result = engine.with_threads(threads).enrich(&docs());
                    let label =
                        format!("tau={tau}, cache={cache_capacity}, {backing}, threads={threads}");
                    assert_eq!(
                        reference.csv,
                        to_csv(&result.table),
                        "CSV diverged: {label}"
                    );
                    assert_entities_bit_equal(&reference.entities, &result.entities, &label);
                }
            }
        }
    }
}

#[test]
fn refine_counters_account_for_every_candidate() {
    let metrics = PipelineMetrics::new();
    let engine = engine(0.6, 4096).with_metrics(metrics.clone());
    let result = engine.enrich(&docs());
    let snap = metrics.snapshot();
    let (scored, pruned) = (snap.count("refine.scored"), snap.count("refine.pruned"));
    assert!(scored > 0, "the corpus must exercise refinement");
    assert!(pruned > 0, "the early abandon must prune on this corpus");
    assert!(
        !result.entities.is_empty(),
        "the corpus must produce entities"
    );

    // The reference scores every candidate and selects the same
    // entities.
    let reference = reference_enrich(&engine, &docs());
    assert_eq!(reference.entities, result.entities);

    // scored + pruned is conserved: the abandon skips work, it does not
    // skip candidates.
    assert_eq!(scored + pruned, reference.scored);
}

#[test]
fn refine_candidates_handles_foreign_instances() {
    // A matched_instance that is not one of the matcher's embedded
    // seeds exercises the defensive per-call PhraseSyntax fallback;
    // its score must equal the reference computation exactly.
    let engine = engine(0.6, 4096);
    let matcher = engine.matcher();
    let candidates = vec![
        CandidateEntity {
            phrase: "brain tumor".into(),
            concept: "Complication".into(),
            matched_instance: "not a seed phrase".into(),
            semantic_score: 0.9,
            cluster_score: 0.9,
        },
        CandidateEntity {
            phrase: "brain tumor".into(),
            concept: "Complication".into(),
            matched_instance: "skin cancer".into(),
            semantic_score: 0.8,
            cluster_score: 0.8,
        },
    ];
    let mut scratch = ScoreScratch::new();
    let config = ThorConfig::with_tau(0.6);
    let kernel: RefineOutcome = refine_candidates(&candidates, matcher, &config, &mut scratch);
    let reference = refine_candidates_reference(&candidates, &config);
    let (kc, ks) = kernel.best.expect("kernel winner");
    let (rc, rs) = reference.best.expect("reference winner");
    assert_eq!(kc, rc);
    assert_eq!(ks.to_bits(), rs.to_bits());
    assert_eq!(reference.pruned, 0);
    assert_eq!(reference.scored, 2);
}
