//! The per-document pipeline rebuilt from public calls, one span per
//! call: `segment` → (`tokenize` + `chunk_sentence`) → anchored
//! candidate generation → `refine_candidates`, then dedup and
//! `slot_fill` over the engine's table — the work
//! `PreparedEngine::enrich` does at one thread.

use std::cmp::Ordering;
use std::collections::BTreeMap;

use thor_core::segment::segment;
use thor_core::slotfill::slot_fill;
use thor_core::{refine_candidates, Document, ExtractedEntity, PreparedEngine};
use thor_data::Table;
use thor_index::CandidateSource;
use thor_nlp::{chunk_sentence, Lexicon, RuleTagger};
use thor_text::{tokenize, ScoreScratch};

use crate::trace::{Breakdown, Tracer};

/// Layer spans, in pipeline order.
pub const LAYERS: [&str; 5] = ["segment", "chunk", "match", "refine", "slot_fill"];

const NO_DOC: u32 = u32::MAX;

/// Outcome of one traced pass.
pub struct TracedPass {
    pub tracer: Tracer,
    pub root: usize,
    pub entities: Vec<ExtractedEntity>,
    pub table: Table,
    pub docs: u64,
    pub sentences: u64,
    pub phrases: u64,
    pub refine_scored: u64,
    pub refine_pruned: u64,
}

impl TracedPass {
    pub fn breakdown(&self) -> Breakdown {
        Breakdown::of(&self.tracer.spans, self.root, &LAYERS)
    }
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

pub fn dedup(entities: &mut Vec<ExtractedEntity>) {
    entities.sort_by(dedup_order);
    entities.dedup_by(|next, first| next.key() == first.key());
}

/// Enrich `docs` on one thread through the rebuilt pipeline, tracing
/// every layer call.
pub fn traced_enrich(engine: &PreparedEngine, docs: &[Document]) -> TracedPass {
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
    let mut scratch = ScoreScratch::new();
    let mut t = Tracer::new();
    let (mut sentences, mut phrases, mut refine_scored, mut refine_pruned) = (0, 0, 0, 0);
    let mut entities = Vec::new();

    let root = t.begin("pass", None, NO_DOC);
    for (i, doc) in docs.iter().enumerate() {
        let di = i as u32;
        let d = t.begin("doc", Some(root), di);
        let segments = t.span("segment", Some(d), di, || {
            segment(doc, engine.subjects(), matcher, config.segmentation)
        });
        for seg in &segments {
            sentences += 1;
            let chunks: Vec<String> = t.span("chunk", Some(d), di, || {
                let tokens = tokenize(&seg.sentence.text);
                let words: Vec<&str> = tokens.iter().map(|t| t.text.as_str()).collect();
                if words.is_empty() {
                    return Vec::new();
                }
                chunk_sentence(&words, &tagger)
                    .into_iter()
                    .map(|np| np.text)
                    .collect()
            });
            for phrase in chunks {
                phrases += 1;
                let candidates = t.span("match", Some(d), di, || {
                    source.candidates_anchored(&phrase, &anchor)
                });
                let outcome = t.span("refine", Some(d), di, || {
                    refine_candidates(&candidates, matcher, config, &mut scratch)
                });
                refine_scored += outcome.scored;
                refine_pruned += outcome.pruned;
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
        t.end(d);
    }
    dedup(&mut entities);
    let table = t.span("slot_fill", Some(root), NO_DOC, || {
        let mut table = engine.table().clone();
        slot_fill(&mut table, &entities);
        table
    });
    t.end(root);
    TracedPass {
        tracer: t,
        root,
        entities,
        table,
        docs: docs.len() as u64,
        sentences,
        phrases,
        refine_scored,
        refine_pruned,
    }
}

/// Entities grouped by document id, each group in output order.
pub fn by_doc(entities: &[ExtractedEntity]) -> BTreeMap<&str, Vec<ExtractedEntity>> {
    let mut out: BTreeMap<&str, Vec<ExtractedEntity>> = BTreeMap::new();
    for e in entities {
        out.entry(e.doc_id.as_str()).or_default().push(e.clone());
    }
    out
}
