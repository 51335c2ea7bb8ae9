//! Segmentation equivalence: the frozen-subject segmenter (one
//! Aho–Corasick pass per sentence, one embedding per fallback sentence)
//! attributes exactly the sentences the reference scan does, in every
//! [`SegmentationMode`], and an engine evolved by a delta segments like
//! a fresh build of the merged table.
//!
//! `segment_reference` is the O(sentences × subjects) scan: every
//! subject re-normalized per document, a substring test per subject per
//! sentence, and a similarity (two embeddings) per subject per fallback
//! sentence. It differs from the original scan in one rule only: a
//! subject whose key normalizes to empty never anchors a sentence.

use proptest::prelude::*;

use thor_core::segment::{segment, Subjects};
use thor_core::{
    Document, EngineDelta, PreparedEngine, SeedDelta, SegmentationMode, Thor, ThorConfig,
};
use thor_data::{Schema, Table};
use thor_embed::{SemanticSpaceBuilder, VectorStore};
use thor_match::{MatcherConfig, SimilarityMatcher};
use thor_text::{normalize_phrase, split_sentences};

const MODES: [SegmentationMode; 3] = [
    SegmentationMode::MentionCarryForward,
    SegmentationMode::SemanticOnly,
    SegmentationMode::MentionOnly,
];

/// `(subject, sentence text, sentence index)` per attributed sentence.
type Attribution = Vec<(String, String, usize)>;

fn segment_reference(
    doc: &Document,
    subjects: &[String],
    store: &VectorStore,
    mode: SegmentationMode,
) -> Attribution {
    const MIN_SIM: f64 = 0.35;
    let keyed: Vec<(String, String)> = subjects
        .iter()
        .map(|s| (s.clone(), normalize_phrase(s)))
        .collect();
    let mentioned = |sentence: &str| {
        let norm = format!(" {} ", normalize_phrase(sentence));
        keyed
            .iter()
            .filter(|(_, key)| !key.is_empty() && norm.contains(&format!(" {key} ")))
            .max_by_key(|(_, key)| key.len())
            .map(|(display, _)| display.clone())
    };
    let semantic = |sentence: &str| {
        keyed
            .iter()
            .filter_map(|(display, key)| {
                store
                    .phrase_similarity(sentence, key)
                    .map(|sim| (display, sim))
            })
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .filter(|(_, sim)| *sim >= MIN_SIM)
            .map(|(display, _)| display.clone())
    };
    let mut out = Vec::new();
    let mut current: Option<String> = None;
    for (index, sentence) in split_sentences(&doc.text).into_iter().enumerate() {
        let mention = match mode {
            SegmentationMode::SemanticOnly => None,
            _ => mentioned(&sentence.text),
        };
        let subject = match (mention, mode) {
            (Some(s), _) => {
                current = Some(s.clone());
                Some(s)
            }
            (None, SegmentationMode::MentionCarryForward) => {
                current.clone().or_else(|| semantic(&sentence.text))
            }
            (None, SegmentationMode::MentionOnly) => None,
            (None, SegmentationMode::SemanticOnly) => semantic(&sentence.text),
        };
        if let Some(subject) = subject {
            out.push((subject, sentence.text, index));
        }
    }
    out
}

fn store() -> VectorStore {
    SemanticSpaceBuilder::new(16, 7)
        .topic("disease")
        .topic("anatomy")
        .words(
            "disease",
            [
                "tuberculosis",
                "neuroma",
                "acoustic",
                "acne",
                "ménière's",
                "disease",
            ],
        )
        .words(
            "anatomy",
            ["brain", "lungs", "skin", "ear", "nerve", "lung"],
        )
        .generic_words(["grows", "damages", "slowly", "the", "severe", "café"])
        .build()
        .into_store()
}

fn matcher() -> SimilarityMatcher {
    let concepts = vec![(
        "Disease".to_string(),
        vec!["Tuberculosis".to_string(), "Acoustic Neuroma".to_string()],
    )];
    SimilarityMatcher::fine_tune(&concepts, store(), MatcherConfig::with_tau(0.8))
}

/// The product path's attributions for `names` on `text` in `mode`.
fn product(
    names: &[String],
    m: &SimilarityMatcher,
    text: &str,
    mode: SegmentationMode,
) -> Attribution {
    let subjects = Subjects::new(names.iter().cloned(), m.store());
    segment(&Document::new("d", text), &subjects, m, mode)
        .into_iter()
        .map(|s| (s.subject, s.sentence.text, s.index))
        .collect()
}

fn assert_equivalent(names: &[String], m: &SimilarityMatcher, text: &str) {
    for mode in MODES {
        let reference = segment_reference(&Document::new("d", text), names, m.store(), mode);
        assert_eq!(
            product(names, m, text, mode),
            reference,
            "{mode:?} diverged on subjects {names:?}, text {text:?}"
        );
    }
}

/// Subject names: overlapping keys (`Neuroma` ⊂ `Acoustic Neuroma`),
/// case and punctuation variants of one key, equal-length keys (`Acne`
/// / `Lung`), non-ASCII, out-of-vocabulary, and punctuation-only
/// (empty key) names.
const NAMES: [&str; 14] = [
    "Neuroma",
    "Acoustic Neuroma",
    "Tuberculosis",
    "TUBERCULOSIS!",
    "Acne",
    "Lung",
    "acne",
    "Ménière's Disease",
    "Café",
    "Zzyzx Syndrome",
    "Plugh",
    "?",
    "* *",
    "Brain",
];

/// Sentence tokens: the names' words in several surface forms,
/// in-vocabulary filler, out-of-vocabulary words and punctuation-only
/// tokens.
const TOKENS: [&str; 24] = [
    "Acoustic",
    "neuroma",
    "NEUROMA,",
    "Tuberculosis",
    "(tuberculosis)",
    "acne",
    "Acne;",
    "lung",
    "Ménière's",
    "disease",
    "CAFÉ",
    "café",
    "zzyzx",
    "syndrome",
    "brain",
    "lungs",
    "grows",
    "damages",
    "slowly",
    "the",
    "xyzzy",
    "*",
    "?",
    "--",
];

const ENDINGS: [&str; 5] = [". ", "! ", "?", "\n", " "];

/// A document of 0–5 sentences, each of 0–7 tokens.
fn document() -> impl Strategy<Value = String> {
    prop::collection::vec(
        (
            prop::collection::vec(0..TOKENS.len(), 0..8),
            0..ENDINGS.len(),
        ),
        0..6,
    )
    .prop_map(|sentences| {
        sentences
            .into_iter()
            .map(|(tokens, end)| {
                let words: Vec<&str> = tokens.into_iter().map(|t| TOKENS[t]).collect();
                format!("{}{}", words.join(" "), ENDINGS[end])
            })
            .collect()
    })
}

/// 0–6 subjects drawn from [`NAMES`], duplicates allowed.
fn subjects() -> impl Strategy<Value = Vec<String>> {
    prop::collection::vec(0..NAMES.len(), 0..7)
        .prop_map(|picks| picks.into_iter().map(|i| NAMES[i].to_string()).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Random subject tables and documents: product == reference in
    /// every mode.
    #[test]
    fn segment_matches_reference(names in subjects(), text in document()) {
        assert_equivalent(&names, &matcher(), &text);
    }
}

/// The named edge cases, each pinned rather than left to sampling.
#[test]
fn edge_cases_match_reference() {
    let m = matcher();
    let names = |ns: &[&str]| ns.iter().map(|n| n.to_string()).collect::<Vec<_>>();
    let cases: &[(&[&str], &str)] = &[
        // Overlapping subjects: the longer key wins, in either order.
        (&["Neuroma", "Acoustic Neuroma"], "Acoustic Neuroma grows."),
        (
            &["Acoustic Neuroma", "Neuroma"],
            "An acoustic neuroma grows. The neuroma damages.",
        ),
        // Duplicate subjects.
        (
            &["Acne", "Acne", "Tuberculosis"],
            "Acne grows. It damages the skin.",
        ),
        // Equal-length keys mentioned in one sentence: the later wins.
        (&["Acne", "Lung"], "Acne and lung damage."),
        (&["Lung", "Acne"], "Acne and lung damage."),
        // Case and punctuation variants of one key.
        (
            &["Tuberculosis", "TUBERCULOSIS!"],
            "(TUBERCULOSIS) damages the lungs.",
        ),
        // Non-ASCII keys and text.
        (
            &["Ménière's Disease", "Café"],
            "MÉNIÈRE'S disease grows. Café slowly.",
        ),
        // Out-of-vocabulary subjects in the fallback.
        (&["Zzyzx Syndrome", "Plugh"], "Brain damages slowly. Xyzzy."),
        (
            &["Zzyzx Syndrome", "Tuberculosis"],
            "Severe tuberculosis damages the lungs.",
        ),
        // Punctuation-only sentences and an empty-key subject.
        (
            &["Tuberculosis", "?"],
            "Tuberculosis damages the lungs.\n* * *\nIt grows slowly.",
        ),
        (&["* *", "Acne"], "* *\n?\n-- --"),
        // Empty documents and empty tables.
        (&["Acne"], ""),
        (&[], "Acne grows on the skin."),
    ];
    for (ns, text) in cases {
        assert_equivalent(&names(ns), &m, text);
    }
}

fn table(subjects: &[&str]) -> Table {
    let mut t = Table::new(Schema::new(["Disease", "Anatomy"], "Disease"));
    for s in subjects {
        t.fill_slot(s, "Anatomy", "lung");
    }
    t
}

fn engine_segments(engine: &PreparedEngine, text: &str) -> Attribution {
    segment(
        &Document::new("d", text),
        engine.subjects(),
        engine.matcher(),
        engine.config().segmentation,
    )
    .into_iter()
    .map(|s| (s.subject, s.sentence.text, s.index))
    .collect()
}

/// An engine evolved by a delta that adds subjects segments exactly
/// like a fresh build of the merged table.
#[test]
fn delta_added_subjects_segment_like_a_fresh_build() {
    let thor = Thor::new(store(), ThorConfig::with_tau(0.7));
    let base = thor.prepare(&table(&["Neuroma", "Acne"]));
    let delta = EngineDelta::Seeds(SeedDelta::new(table(&["Acoustic Neuroma", "Tuberculosis"])));
    let evolved = base.apply_delta(&delta).unwrap();
    let fresh = thor.prepare(evolved.table());
    assert_eq!(&**evolved.subjects(), &**fresh.subjects());
    let added = "Acoustic Neuroma grows. It damages the nerve. Tuberculosis damages the lungs.";
    assert_ne!(
        engine_segments(&evolved, added),
        engine_segments(&base, added),
        "the added subjects must anchor sentences"
    );
    for text in [
        added,
        "Severe tuberculosis. Acne grows on the skin. The neuroma grows slowly.",
        "Brain damages slowly.",
    ] {
        assert_eq!(
            engine_segments(&evolved, text),
            engine_segments(&fresh, text),
            "{text:?}"
        );
    }
}
