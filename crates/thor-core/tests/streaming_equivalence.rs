//! Property: a streaming [`thor_core::EnrichmentSession`] fed the same
//! documents as a batch [`thor_core::PreparedEngine::enrich`] — in *any* order —
//! converges to the same slot-filled table and the same set of entity
//! predictions. Slot filling is a set-semantic idempotent insert and
//! entity keys carry the document id, so stream order must be
//! unobservable in the fixed point.
//!
//! Differential: every entry point — plain `enrich`, a session, the
//! resilient batch run and the resilient stream at two chunk sizes, each
//! at one thread and four — runs the same per-document core, so all of
//! them produce byte-identical CSVs and entities, identical stage
//! counts, and the same `pipeline.inference` definition.

use std::time::Duration;

use proptest::prelude::*;
use thor_core::{
    entities_tsv, Document, ExtractedEntity, PipelineMetrics, PreparedEngine, ResilientOptions,
    Thor, ThorConfig,
};
use thor_data::{to_csv, Schema, Table};
use thor_embed::SemanticSpaceBuilder;

fn thor() -> Thor {
    let store = SemanticSpaceBuilder::new(32, 55)
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
        .into_store();
    Thor::new(store, ThorConfig::with_tau(0.6))
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

const SENTENCES: [&str; 7] = [
    "Acoustic Neuroma is a slow-growing non-cancerous brain tumor.",
    "It may cause unsteadiness and deafness.",
    "Tuberculosis generally damages the lungs and may cause empyema.",
    "Malaria causes severe fever and may damage the liver.",
    "Acne damages the skin.",
    "The tumor grows on the nerve near the ear.",
    "Severe tuberculosis damages the lungs.",
];

/// Build documents from sentence-template picks: each inner vec of
/// indices becomes one document (unique id, 1–4 sentences).
fn docs_from(picks: &[Vec<usize>]) -> Vec<Document> {
    picks
        .iter()
        .enumerate()
        .map(|(i, sentence_ids)| {
            let text: Vec<&str> = sentence_ids
                .iter()
                .map(|s| SENTENCES[s % SENTENCES.len()])
                .collect();
            Document::new(format!("doc{i:02}"), text.join(" "))
        })
        .collect()
}

/// Canonical view of a table's contents: sorted (subject, column,
/// sorted values) triples — equal fingerprints mean equal tables.
fn fingerprint(table: &Table) -> Vec<(String, usize, Vec<String>)> {
    let mut out = Vec::new();
    for subject in table.subjects() {
        let row = table.get_row(subject).unwrap();
        for i in 0..row.arity() {
            let mut values: Vec<String> = row.cell(i).values().map(str::to_string).collect();
            values.sort_unstable();
            out.push((subject.to_string(), i, values));
        }
    }
    out.sort();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn shuffled_stream_converges_to_batch_table(
        picks in prop::collection::vec(prop::collection::vec(0usize..7, 1..5), 1..8),
        rotation in 0usize..8,
        reverse in (0u8..2).prop_map(|b| b == 1),
    ) {
        let thor = thor();
        let table = table();
        let docs = docs_from(&picks);
        let batch = thor.prepare(&table).enrich(&docs);

        // Re-order the stream: rotate, optionally reverse.
        let mut stream: Vec<&Document> = docs.iter().collect();
        let n = stream.len();
        stream.rotate_left(rotation % n);
        if reverse {
            stream.reverse();
        }

        let mut session = thor.prepare(&table).session();
        for doc in stream {
            session.process(doc);
        }

        // Same predictions (order-insensitive: keys carry the doc id)...
        let mut batch_keys: Vec<_> = batch.entities.iter().map(|e| e.key()).collect();
        let mut stream_keys: Vec<_> = session.entities().iter().map(|e| e.key()).collect();
        batch_keys.sort();
        stream_keys.sort();
        prop_assert_eq!(batch_keys, stream_keys);

        // ...and the identical slot-filled table.
        let streamed = session.finish();
        prop_assert_eq!(fingerprint(&batch.table), fingerprint(&streamed));
    }

    #[test]
    fn processing_twice_is_idempotent(
        picks in prop::collection::vec(prop::collection::vec(0usize..7, 1..4), 1..4),
    ) {
        let thor = thor();
        let table = table();
        let docs = docs_from(&picks);
        let mut session = thor.prepare(&table).session();
        for doc in &docs {
            session.process(doc);
        }
        let once = fingerprint(session.table());
        for doc in &docs {
            let inserted = session.process(doc);
            prop_assert_eq!(inserted, 0, "re-processing must not insert");
        }
        prop_assert_eq!(once, fingerprint(session.table()));
    }
}

/// Every entry point of the pipeline, as `(name, run)`: each run takes
/// an engine and the corpus and returns the enriched table, the
/// entities and the reported inference time.
type EntryPoint = fn(&PreparedEngine, &[Document]) -> (Table, Vec<ExtractedEntity>, Duration);

fn entry_points() -> Vec<(&'static str, EntryPoint)> {
    fn stream(
        engine: &PreparedEngine,
        docs: &[Document],
        chunk: usize,
    ) -> (Table, Vec<ExtractedEntity>, Duration) {
        let ids: Vec<String> = docs.iter().map(|d| d.id.clone()).collect();
        let bodies = docs.iter().map(|d| (d.id.clone(), Ok(d.clone())));
        let r = engine
            .enrich_resilient_stream(&ids, bodies, &ResilientOptions::default(), chunk)
            .expect("clean stream")
            .result;
        (r.table, r.entities, r.inference_time)
    }
    vec![
        ("enrich", |engine, docs| {
            let r = engine.enrich(docs);
            (r.table, r.entities, r.inference_time)
        }),
        ("session", |engine, docs| {
            let mut session = engine.session();
            for doc in docs {
                session.process(doc);
            }
            let (entities, time) = (session.entities().to_vec(), session.inference_time());
            (session.finish(), entities, time)
        }),
        ("enrich_resilient", |engine, docs| {
            let r = engine
                .enrich_resilient(docs, &ResilientOptions::default())
                .expect("clean run")
                .result;
            (r.table, r.entities, r.inference_time)
        }),
        ("stream/chunk=1", |engine, docs| stream(engine, docs, 1)),
        ("stream/chunk=64", |engine, docs| stream(engine, docs, 64)),
    ]
}

/// A fixed corpus with ids in sorted order (a session's entities come
/// out in feed order, the batch paths' in id order).
fn corpus() -> Vec<Document> {
    let picks: Vec<Vec<usize>> = (0..12)
        .map(|i| (0..1 + i % 4).map(|k| (i * 3 + k * 5) % 7).collect())
        .collect();
    docs_from(&picks)
}

const COUNTS: [&str; 6] = [
    "docs",
    "sentences",
    "segments",
    "candidates",
    "entities",
    "slots.inserted",
];

#[test]
fn every_entry_point_produces_identical_output_and_counts() {
    let docs = corpus();
    let engine = thor().prepare(&table());
    let mut reference: Option<(String, String, Vec<ExtractedEntity>, Vec<u64>)> = None;
    for (name, run) in entry_points() {
        for threads in [1usize, 4] {
            let metrics = PipelineMetrics::new();
            let metered = engine.with_threads(threads).with_metrics(metrics.clone());
            let (table, entities, _) = run(&metered, &docs);
            let snap = metrics.snapshot();
            let mut counts: Vec<u64> = COUNTS.iter().map(|c| snap.count(c)).collect();
            // One `stage.segment` span per document on every path.
            counts.push(metrics.segment.spans());
            let answer = (to_csv(&table), entities_tsv(&entities), entities, counts);
            let label = format!("{name}, threads={threads}");
            // A session slot-fills as each document arrives; every batch
            // path slot-fills once, after dedup.
            let slot_fills = if name == "session" { docs.len() } else { 1 };
            assert_eq!(
                metrics.slot_fill.spans(),
                slot_fills as u64,
                "{label}: stage.slot_fill span count"
            );
            match &reference {
                None => {
                    assert!(answer.3[4] > 0, "the corpus must produce entities");
                    reference = Some(answer);
                }
                Some((csv, tsv, entities, counts)) => {
                    assert_eq!(&answer.0, csv, "{label}: CSV diverged");
                    assert_eq!(&answer.1, tsv, "{label}: entity TSV diverged");
                    assert_eq!(&answer.2, entities, "{label}: entities diverged");
                    assert_eq!(
                        &answer.3, counts,
                        "{label}: {COUNTS:?} + stage.segment spans diverged"
                    );
                }
            }
        }
    }
}

#[test]
fn inference_time_is_one_span_from_segment_through_slot_fill() {
    let docs = corpus();
    let engine = thor().prepare(&table());
    for (name, run) in entry_points() {
        let metrics = PipelineMetrics::new();
        let metered = engine.with_metrics(metrics.clone());
        let (_, _, inference_time) = run(&metered, &docs);
        assert_eq!(
            metrics.inference.total(),
            inference_time,
            "{name}: pipeline.inference differs from the returned inference_time"
        );
        assert!(
            metrics.slot_fill.spans() > 0,
            "{name}: no slot fill recorded"
        );
        assert!(
            metrics.segment.total() + metrics.slot_fill.total() <= inference_time,
            "{name}: segment + slot fill fall outside pipeline.inference"
        );
    }
}
