//! Phase ① — document segmentation.
//!
//! "The goal of segmentation is to split the given document into
//! sentences and associate each sentence with an instance of the subject
//! concept (or with none if the sentence is not related)." Mentions of a
//! subject instance anchor a sentence; because documents overwhelmingly
//! talk about one subject at a time, subsequent sentences inherit the
//! last anchor (carry-forward); when nothing anchors a sentence we fall
//! back to semantic matching against the subject instances.
//!
//! Everything segmentation knows about the table is frozen once per
//! engine into [`Subjects`]: the normalized keys compiled into one
//! Aho–Corasick automaton and each key's embedding. Per sentence, the
//! mention scan is one automaton pass and the fallback one embedding,
//! whatever the number of subjects. The automaton is rebuilt whenever
//! an engine is built, derived by a delta or loaded; it is never
//! persisted. A subject whose key normalizes to empty (`"?"`) has no
//! pattern and never anchors a sentence.

use std::ops::Deref;

use thor_embed::{cosine, Vector, VectorStore};
use thor_index::{AhoCorasick, AhoCorasickBuilder};
use thor_match::SimilarityMatcher;
use thor_text::{normalize_phrase, split_sentences, Sentence};

use crate::config::SegmentationMode;
use crate::document::Document;

/// Minimum sentence–subject similarity the semantic fallback accepts.
const MIN_SIM: f64 = 0.35;

/// A sentence attributed to a subject instance.
#[derive(Debug, Clone)]
pub struct SegmentedSentence {
    /// The owning subject instance `c*` (table display form).
    pub subject: String,
    /// The sentence.
    pub sentence: Sentence,
    /// Index of the sentence within its document.
    pub index: usize,
}

/// The table's subject instances `R.C*`, frozen for segmentation.
/// Dereferences to the display names in row order.
#[derive(Debug)]
pub struct Subjects {
    names: Vec<String>,
    /// One `" {key} "` pattern per subject with a non-empty normalized
    /// key, matched against `" {normalize_phrase(sentence)} "`.
    mentions: AhoCorasick,
    /// The subject index of each automaton pattern.
    pattern_subject: Vec<usize>,
    /// Each key's mean word vector; `None` when out of vocabulary.
    vectors: Vec<Option<Vector>>,
}

impl Subjects {
    /// Freeze `names` (display form, row order), embedding each
    /// normalized key with `store` — the store of the matcher that will
    /// segment against it.
    pub fn new<S: Into<String>>(names: impl IntoIterator<Item = S>, store: &VectorStore) -> Self {
        let names: Vec<String> = names.into_iter().map(Into::into).collect();
        let keys: Vec<String> = names.iter().map(|n| normalize_phrase(n)).collect();
        let mut builder = AhoCorasickBuilder::new();
        let mut pattern_subject = Vec::new();
        for (i, key) in keys.iter().enumerate().filter(|(_, k)| !k.is_empty()) {
            builder.add_pattern(format!(" {key} "));
            pattern_subject.push(i);
        }
        Self {
            mentions: builder.build(),
            pattern_subject,
            vectors: keys.iter().map(|k| store.embed_phrase(k)).collect(),
            names,
        }
    }

    /// The subject mentioned in `sentence`, if any. Mentions are whole
    /// normalized-substring occurrences; the *longest* mentioned key
    /// wins (so `acoustic neuroma` beats `neuroma`), and among equally
    /// long keys the later subject.
    fn mentioned(&self, sentence: &str) -> Option<usize> {
        let norm = format!(" {} ", normalize_phrase(sentence));
        self.mentions
            .find_all(&norm)
            .into_iter()
            .map(|m| (m.end - m.start, self.pattern_subject[m.pattern]))
            .max()
            .map(|(_, subject)| subject)
    }

    /// Semantic fallback: the subject most similar to the sentence
    /// (mean word vectors), if the similarity is meaningful at all.
    /// Out-of-vocabulary subjects carry no evidence and are skipped
    /// outright rather than scored as 0.0; among equal scores the later
    /// subject wins.
    fn most_similar(&self, sentence: &str, store: &VectorStore) -> Option<usize> {
        let query = store.embed_phrase(sentence)?;
        self.vectors
            .iter()
            .enumerate()
            .filter_map(|(i, v)| Some((i, cosine(&query, v.as_ref()?))))
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .filter(|(_, sim)| *sim >= MIN_SIM)
            .map(|(i, _)| i)
    }
}

impl Deref for Subjects {
    type Target = [String];

    fn deref(&self) -> &[String] {
        &self.names
    }
}

/// Segment `doc` into `(subject, sentence)` pairs — `SEGMENT(D, R.C*)`
/// of Algorithm 1.
///
/// `subjects` are the table's frozen subject instances; `matcher`
/// (whose store embedded them) powers the semantic fallback. Sentences
/// that cannot be attributed to any subject are dropped.
pub fn segment(
    doc: &Document,
    subjects: &Subjects,
    matcher: &SimilarityMatcher,
    mode: SegmentationMode,
) -> Vec<SegmentedSentence> {
    let store = matcher.store();
    let mut out = Vec::new();
    let mut current = None;

    for (index, sentence) in split_sentences(&doc.text).into_iter().enumerate() {
        let mention = match mode {
            SegmentationMode::SemanticOnly => None,
            _ => subjects.mentioned(&sentence.text),
        };
        let subject = match (mention, mode) {
            (Some(s), _) => {
                current = Some(s);
                Some(s)
            }
            (None, SegmentationMode::MentionCarryForward) => {
                current.or_else(|| subjects.most_similar(&sentence.text, store))
            }
            (None, SegmentationMode::MentionOnly) => None,
            (None, SegmentationMode::SemanticOnly) => subjects.most_similar(&sentence.text, store),
        };

        if let Some(s) = subject {
            out.push(SegmentedSentence {
                subject: subjects[s].clone(),
                sentence,
                index,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use thor_embed::SemanticSpaceBuilder;
    use thor_match::{MatcherConfig, SimilarityMatcher};

    fn matcher() -> SimilarityMatcher {
        let store = SemanticSpaceBuilder::new(16, 2)
            .topic("disease")
            .words("disease", ["tuberculosis", "neuroma", "acoustic"])
            .generic_words(["tumor", "grows", "lungs"])
            .build()
            .into_store();
        let concepts = vec![(
            "Disease".to_string(),
            vec!["Tuberculosis".to_string(), "Acoustic Neuroma".to_string()],
        )];
        SimilarityMatcher::fine_tune(&concepts, store, MatcherConfig::with_tau(0.8))
    }

    /// Segment `text` against `names` with the fixture matcher.
    fn run(names: &[&str], text: &str, mode: SegmentationMode) -> Vec<SegmentedSentence> {
        let m = matcher();
        let subjects = Subjects::new(names.iter().copied(), m.store());
        segment(&Document::new("d", text), &subjects, &m, mode)
    }

    const SUBJECTS: [&str; 2] = ["Acoustic Neuroma", "Tuberculosis"];

    #[test]
    fn fig1_document_segmentation() {
        // Three sentences: first two about Acoustic Neuroma (second via
        // carry-forward), third about Tuberculosis.
        let segs = run(
            &SUBJECTS,
            "Acoustic Neuroma is a slow-growing tumor. It develops on the nerve. \
             Tuberculosis generally damages the lungs.",
            SegmentationMode::MentionCarryForward,
        );
        assert_eq!(segs.len(), 3);
        assert_eq!(segs[0].subject, "Acoustic Neuroma");
        assert_eq!(segs[1].subject, "Acoustic Neuroma");
        assert_eq!(segs[2].subject, "Tuberculosis");
        assert_eq!(segs[2].index, 2);
    }

    #[test]
    fn mention_only_drops_unanchored() {
        let segs = run(
            &SUBJECTS,
            "Acoustic Neuroma is a tumor. It grows slowly.",
            SegmentationMode::MentionOnly,
        );
        assert_eq!(segs.len(), 1);
    }

    #[test]
    fn longest_subject_mention_wins() {
        let segs = run(
            &["Neuroma", "Acoustic Neuroma"],
            "Acoustic Neuroma is a tumor.",
            SegmentationMode::MentionOnly,
        );
        assert_eq!(segs[0].subject, "Acoustic Neuroma");
    }

    #[test]
    fn case_insensitive_mentions() {
        let segs = run(
            &SUBJECTS,
            "TUBERCULOSIS damages the lungs.",
            SegmentationMode::MentionOnly,
        );
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].subject, "Tuberculosis");
    }

    #[test]
    fn empty_document() {
        assert!(run(&SUBJECTS, "", SegmentationMode::default()).is_empty());
    }

    #[test]
    fn empty_key_never_anchors() {
        // `?` normalizes to an empty key; its pattern would match every
        // sentence that normalizes to empty and steal the carry-forward.
        let segs = run(
            &["Tuberculosis", "?"],
            "Tuberculosis damages the lungs.\n* * *\nIt grows slowly.",
            SegmentationMode::MentionCarryForward,
        );
        assert!(segs.len() > 1);
        assert!(segs.iter().all(|s| s.subject == "Tuberculosis"), "{segs:?}");
    }

    #[test]
    fn subjects_deref_to_names_in_row_order() {
        let m = matcher();
        let subjects = Subjects::new(["B", "A", "B"], m.store());
        assert_eq!(&*subjects, ["B", "A", "B"]);
    }

    #[test]
    fn semantic_fallback_skips_out_of_vocabulary_pairs() {
        // An out-of-vocabulary key carries no evidence: it is skipped,
        // not scored 0.0 — and so is a sentence with no known word.
        let m = matcher();
        let subjects = Subjects::new(["Xyzzy", "Tuberculosis"], m.store());
        assert!(subjects.vectors[0].is_none());
        assert!(subjects.vectors[1].is_some());
        assert_eq!(subjects.most_similar("tuberculosis", m.store()), Some(1));
        assert_eq!(subjects.most_similar("xyzzy plugh", m.store()), None);
        let oov_only = Subjects::new(["Xyzzy"], m.store());
        assert_eq!(oov_only.most_similar("tuberculosis", m.store()), None);
    }

    #[test]
    fn semantic_fallback_attributes_related_sentence() {
        // No exact mention needed: "tuberculosis" is in the vocabulary
        // and its vector equals the subject's embedding.
        let segs = run(
            &SUBJECTS,
            "Severe tuberculosis cases need treatment.",
            SegmentationMode::SemanticOnly,
        );
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].subject, "Tuberculosis");
    }
}
