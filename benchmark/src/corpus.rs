//! Workload inputs, generated from the seed alone.

use std::collections::{BTreeMap, HashSet};

use thor_core::{Document, EngineDelta, ExtractedEntity, SeedDelta, Thor, ThorConfig};
use thor_data::Table;
use thor_datagen::{generate, DatasetSpec, GeneratedDataset, Split};
use thor_eval::{evaluate, Annotation};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Disease A–Z at the paper's scale, every split, batch enrich.
    PaperBatch,
    /// The same spec cut to 16 subjects with the corpus size kept.
    SmallTable,
    /// `thor serve` on the paper-scale engine, open loop, hot swaps.
    ServeReload,
}

/// Generator seed of every workload's dataset (the repository's
/// default `THOR_SEED`). The corpus is fixed so that run-to-run spread
/// measures the system rather than how hard one generated dataset
/// happens to be; `--seed` orders the corpus and picks the request
/// sample.
pub const DATASET_SEED: u64 = 42;

/// Subjects per split at scale 1.0: Table III of the paper.
const PAPER_SUBJECTS: (usize, usize, usize) = (240, 61, 13);
/// The small table's subjects per split (16 in all).
const SMALL_SUBJECTS: (usize, usize, usize) = (12, 3, 1);

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "paper-batch" => Some(Workload::PaperBatch),
            "small-table" => Some(Workload::SmallTable),
            "serve-reload" => Some(Workload::ServeReload),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperBatch => "paper-batch",
            Workload::SmallTable => "small-table",
            Workload::ServeReload => "serve-reload",
        }
    }

    /// The dataset spec. The small table keeps the paper corpus' size
    /// by raising documents per subject in proportion, so vocabulary,
    /// sentence mix and document count stay put while the subject
    /// count — the factor segmentation scales with — drops ~20×.
    pub fn spec(self) -> DatasetSpec {
        let mut spec = DatasetSpec::disease_az(DATASET_SEED, 1.0);
        assert_eq!(spec.subjects, PAPER_SUBJECTS, "paper spec changed");
        if self == Workload::SmallTable {
            let total = |s: (usize, usize, usize)| s.0 + s.1 + s.2;
            spec.docs_per_subject =
                (spec.docs_per_subject * total(PAPER_SUBJECTS)).div_ceil(total(SMALL_SUBJECTS));
            spec.subjects = SMALL_SUBJECTS;
        }
        spec
    }
}

/// THOR's similarity threshold in every workload.
pub const TAU: f64 = 0.7;

/// A generated workload corpus.
pub struct Corpus {
    pub dataset: GeneratedDataset,
    /// THOR over the dataset's vectors at [`TAU`].
    pub thor: Thor,
    pub table: Table,
    /// Every split's documents, in seeded order.
    pub docs: Vec<Document>,
    /// Gold annotations of every document.
    pub gold: Vec<Annotation>,
}

impl Corpus {
    /// The workload's corpus, documents in the order `seed` shuffles
    /// them into.
    pub fn generate(workload: Workload, seed: u64) -> Corpus {
        let dataset = generate(&workload.spec());
        let table = dataset.enrichment_table();
        let splits = [Split::Train, Split::Validation, Split::Test];
        let mut docs: Vec<Document> = splits.iter().flat_map(|&s| dataset.documents(s)).collect();
        shuffle(&mut docs, seed);
        let mut gold: Vec<Annotation> = splits
            .iter()
            .flat_map(|&s| dataset.docs(s))
            .flat_map(|d| {
                d.gold
                    .iter()
                    .map(|g| Annotation::new(d.doc.id.clone(), &g.concept, &g.phrase))
            })
            .collect();
        gold.sort_by(|a, b| {
            (&a.doc_id, &a.concept, &a.phrase).cmp(&(&b.doc_id, &b.concept, &b.phrase))
        });
        gold.dedup();
        Corpus {
            thor: Thor::new(dataset.store.clone(), ThorConfig::with_tau(TAU)),
            dataset,
            table,
            docs,
            gold,
        }
    }

    /// `n` documents spread evenly over the corpus in id order — the
    /// same documents for every seed, so a percentile over them does
    /// not move with the sample — in the seed's order.
    pub fn sample(&self, n: usize, seed: u64) -> Vec<Document> {
        let mut by_id: Vec<&Document> = self.docs.iter().collect();
        by_id.sort_by(|a, b| a.id.cmp(&b.id));
        let stride = by_id.len().div_ceil(n.max(1)).max(1);
        let mut picked: Vec<Document> = by_id.into_iter().step_by(stride).cloned().collect();
        shuffle(&mut picked, seed);
        picked
    }

    pub fn bytes(&self) -> usize {
        self.docs.iter().map(|d| d.text.len()).sum()
    }

    /// Partial-match F1 (`thor_eval::evaluate`) of `predictions` against
    /// the gold of the documents in `doc_ids` (every document when
    /// `None`). Alignment never pairs annotations of different
    /// documents, so evaluating document by document and summing the
    /// counts equals one `evaluate` over everything, in time linear
    /// rather than quadratic in the corpus.
    pub fn f1(&self, predictions: &[Annotation], doc_ids: Option<&[&str]>) -> f64 {
        let keep: Option<HashSet<&str>> = doc_ids.map(|ids| ids.iter().copied().collect());
        let mut by_doc: BTreeMap<&str, (Vec<Annotation>, Vec<Annotation>)> = BTreeMap::new();
        for p in predictions {
            by_doc.entry(&p.doc_id).or_default().0.push(p.clone());
        }
        for g in &self.gold {
            if keep.as_ref().is_none_or(|k| k.contains(g.doc_id.as_str())) {
                by_doc.entry(&g.doc_id).or_default().1.push(g.clone());
            }
        }
        let mut counts = [0usize; 5];
        for (predicted, gold) in by_doc.values() {
            let r = evaluate(predicted, gold);
            for (c, n) in counts.iter_mut().zip([
                r.correct,
                r.partial,
                r.incorrect,
                r.missing,
                r.predicted_total,
            ]) {
                *c += n;
            }
        }
        let [correct, partial, incorrect, missing, predicted] = counts.map(|c| c as f64);
        let credit = correct + 0.5 * partial;
        let precision = if predicted == 0.0 {
            0.0
        } else {
            credit / predicted
        };
        let possible = correct + partial + incorrect + missing;
        let recall = if possible == 0.0 {
            0.0
        } else {
            credit / possible
        };
        if precision + recall == 0.0 {
            0.0
        } else {
            2.0 * precision * recall / (precision + recall)
        }
    }

    /// A seed delta of ~5% of the table's instances: gold test-subject
    /// values the table does not hold yet (real values, so the touched
    /// concepts genuinely re-expand).
    pub fn seed_delta(&self) -> EngineDelta {
        let gold = self.dataset.gold_test_table();
        let table = &self.table;
        let target = ((table.instance_count() as f64) * 0.05).ceil() as usize;
        let mut additions = Table::new(table.schema().clone());
        let mut taken = 0usize;
        'collect: for (ri, row) in gold.rows().iter().enumerate() {
            let subject = gold.subject_of(ri);
            for (ci, concept) in gold.schema().concepts().iter().enumerate() {
                let Some(ti) = table.schema().index_of(concept.name()) else {
                    continue;
                };
                if ci == gold.schema().subject_index() {
                    continue;
                }
                for value in row.cell(ci).values() {
                    let held_out = table
                        .get_row(subject)
                        .is_none_or(|r| !r.cell(ti).contains(value));
                    if held_out {
                        additions.fill_slot(subject, concept.name(), value);
                        taken += 1;
                        if taken >= target {
                            break 'collect;
                        }
                    }
                }
            }
        }
        assert!(taken > 0, "dataset held out no instances to use as a delta");
        EngineDelta::Seeds(SeedDelta::new(additions))
    }
}

/// Evaluation annotations of extracted entities.
pub fn annotations(entities: &[ExtractedEntity]) -> Vec<Annotation> {
    entities
        .iter()
        .map(|e| Annotation::new(e.doc_id.clone(), &e.concept, &e.phrase))
        .collect()
}

/// Deterministic shuffle (SplitMix64-driven Fisher–Yates).
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut x = seed ^ 0x9e37_79b9_7f4a_7c15;
    let mut next = || {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    for i in (1..items.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_table_keeps_corpus_size() {
        let paper = Workload::PaperBatch.spec();
        let small = Workload::SmallTable.spec();
        let docs =
            |s: &DatasetSpec| (s.subjects.0 + s.subjects.1 + s.subjects.2) * s.docs_per_subject;
        assert_eq!(docs(&paper), 1884);
        assert_eq!(small.subjects.0 + small.subjects.1 + small.subjects.2, 16);
        assert!(docs(&small).abs_diff(docs(&paper)) <= 16);
    }

    #[test]
    fn sample_is_the_same_documents_in_seeded_order() {
        let corpus = |seed| Corpus::generate(Workload::SmallTable, seed);
        let (a, b) = (corpus(1), corpus(2));
        let (sa, sb) = (a.sample(300, 1), b.sample(300, 2));
        assert!(sa.len() >= 270 && sa.len() <= 300, "{}", sa.len());
        let ids = |s: &[Document]| {
            let mut v: Vec<String> = s.iter().map(|d| d.id.clone()).collect();
            v.sort();
            v
        };
        assert_eq!(ids(&sa), ids(&sb));
        assert_ne!(sa[0].id, sb[0].id);
        assert_eq!(a.sample(300, 1)[0].id, sa[0].id);
    }

    #[test]
    fn f1_by_document_equals_one_evaluate() {
        let mut corpus = Corpus::generate(Workload::SmallTable, 3);
        let a = |d: &str, c: &str, p: &str| Annotation::new(d, c, p);
        corpus.gold = vec![
            a("d1", "Anatomy", "left lung"),
            a("d1", "Symptom", "fever"),
            a("d2", "Anatomy", "heart"),
            a("d3", "Cause", "smoking"),
        ];
        let predictions = vec![
            a("d1", "Anatomy", "lung"),
            a("d1", "Symptom", "fever"),
            a("d2", "Symptom", "heart"),
            a("d2", "Cause", "stress"),
            a("d4", "Cause", "smoking"),
        ];
        let whole = evaluate(&predictions, &corpus.gold).f1;
        assert!(whole > 0.0 && whole < 1.0);
        assert!((corpus.f1(&predictions, None) - whole).abs() < 1e-12);
        let some = evaluate(&predictions, &corpus.gold[..2]).f1;
        assert!((corpus.f1(&predictions, Some(&["d1"])) - some).abs() < 1e-12);
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..50).collect();
        let mut b = a.clone();
        shuffle(&mut a, 7);
        shuffle(&mut b, 7);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        let mut c: Vec<u32> = (0..50).collect();
        shuffle(&mut c, 8);
        assert_ne!(a, c);
    }
}
