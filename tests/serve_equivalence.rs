//! Serve/batch equivalence contract: the HTTP front end must return
//! **byte-identical** output to the batch CLI paths for the same frozen
//! engine — across worker-thread counts, phrase-cache settings, and the
//! early-abandon scorer — and concurrent clients must never see each
//! other's responses interleaved.

use std::collections::BTreeMap;

use thor_repro::core::{entities_tsv, Document, Thor, ThorConfig};
use thor_repro::data::{outer_join, to_csv, Schema, Table};
use thor_repro::embed::{SemanticSpaceBuilder, VectorStore};
use thor_repro::serve::http::request;
use thor_repro::serve::{ServeOptions, Server};

fn fixture_store() -> VectorStore {
    SemanticSpaceBuilder::new(32, 7)
        .spread(0.4)
        .topic("anatomy")
        .correlated_topic("complication", "anatomy", 0.25)
        .words(
            "anatomy",
            [
                "nervous", "system", "brain", "nerve", "skin", "lungs", "ear",
            ],
        )
        .words(
            "complication",
            [
                "cancer",
                "tumor",
                "unsteadiness",
                "deafness",
                "empyema",
                "non-cancerous",
            ],
        )
        .generic_words(["slow-growing", "grows", "damages", "may", "cause"])
        .build()
        .into_store()
}

fn fixture_table() -> Table {
    let mut d1 = Table::new(Schema::new(["Disease", "Anatomy"], "Disease"));
    d1.fill_slot("Acoustic Neuroma", "Anatomy", "nervous system");
    d1.fill_slot("Acne", "Anatomy", "skin");
    let mut d2 = Table::new(Schema::new(["Disease", "Complication"], "Disease"));
    d2.fill_slot("Acne", "Complication", "skin cancer");
    d2.row_for_subject("Tuberculosis");
    outer_join(&d1, &d2)
}

fn fixture_docs() -> Vec<Document> {
    vec![
        Document::new(
            "d0",
            "Acoustic Neuroma is a slow-growing non-cancerous brain tumor. \
             It may cause unsteadiness and deafness.",
        ),
        Document::new(
            "d1",
            "Tuberculosis generally damages the lungs and may cause empyema.",
        ),
        Document::new("d2", "Acne grows on the skin and may cause skin cancer."),
        Document::new("d3", "Tuberculosis may damage the nerve and the ear."),
    ]
}

/// The wire form of a document batch (`POST /enrich` / `POST /extract`).
fn batch_json(docs: &[Document]) -> Vec<u8> {
    use thor_obs::Json;
    let documents = docs
        .iter()
        .map(|d| {
            Json::Object(BTreeMap::from([
                ("id".to_string(), Json::Str(d.id.clone())),
                ("text".to_string(), Json::Str(d.text.clone())),
            ]))
        })
        .collect();
    Json::Object(BTreeMap::from([(
        "documents".to_string(),
        Json::Array(documents),
    )]))
    .render()
    .into_bytes()
}

/// Serve output is byte-identical to batch output across the execution
/// knob matrix: threads {1,4} x cache {0,4096}. None of these knobs may
/// change a single output byte. (Kernel vs reference refinement is
/// covered end to end by `refine_kernels.rs` in thor-core.)
#[test]
fn serve_matches_batch_across_execution_knobs() {
    let docs = fixture_docs();
    let body = batch_json(&docs);
    let mut reference: Option<(String, String)> = None;

    for threads in [1usize, 4] {
        for cache in [0usize, 4096] {
            let mut config = ThorConfig::with_tau(0.6);
            config.threads = threads;
            config.cache_capacity = cache;
            let engine = Thor::new(fixture_store(), config).prepare(&fixture_table());

            // Batch answers, straight from the engine.
            let batch = engine.enrich(&docs);
            let batch_csv = to_csv(&batch.table);
            let (entities, _) = engine.extract(&docs);
            let batch_tsv = entities_tsv(&entities);

            // Serve answers, over a real socket.
            let server =
                Server::bind(engine, "127.0.0.1:0", ServeOptions::default()).expect("bind server");
            let addr = server.local_addr();
            let handle = server.shutdown_handle();
            let join = std::thread::spawn(move || server.run().expect("serve loop"));

            let tag = format!("threads={threads} cache={cache}");
            let enriched = request(&addr, "POST", "/enrich", &body).expect("POST /enrich");
            assert_eq!(enriched.status, 200, "{tag}: {}", enriched.body_str());
            assert_eq!(
                enriched.header("X-Thor-Quarantined").map(str::trim),
                Some("0"),
                "{tag}: clean batch must not quarantine"
            );
            assert_eq!(
                enriched.body_str(),
                batch_csv,
                "{tag}: /enrich differs from batch enrich"
            );

            let extracted = request(&addr, "POST", "/extract", &body).expect("POST /extract");
            assert_eq!(extracted.status, 200, "{tag}: {}", extracted.body_str());
            assert_eq!(
                extracted.body_str(),
                batch_tsv,
                "{tag}: /extract differs from batch extract"
            );

            handle.shutdown();
            join.join().expect("server thread");

            // Every cell in the matrix must also agree with every
            // other cell — the knobs are execution-only.
            match &reference {
                None => reference = Some((batch_csv, batch_tsv)),
                Some((csv, tsv)) => {
                    assert_eq!(&batch_csv, csv, "{tag}: knob changed enrich bytes");
                    assert_eq!(&batch_tsv, tsv, "{tag}: knob changed extract bytes");
                }
            }
        }
    }
}

/// Concurrent clients hammering one server each get exactly their own
/// batch's answer — responses are never interleaved or swapped across
/// connections.
#[test]
fn concurrent_clients_get_their_own_responses() {
    let mut config = ThorConfig::with_tau(0.6);
    config.threads = 4;
    let engine = Thor::new(fixture_store(), config).prepare(&fixture_table());

    // Per-client expected bytes, computed from the engine before it
    // moves into the server.
    let all_docs = fixture_docs();
    let clients: Vec<(Vec<u8>, String)> = (0..8)
        .map(|i| {
            // Distinct batch per client: rotate through doc subsets.
            let subset: Vec<Document> = all_docs
                .iter()
                .cycle()
                .skip(i)
                .take(1 + (i % all_docs.len()))
                .cloned()
                .collect();
            let expected = to_csv(&engine.enrich(&subset).table);
            (batch_json(&subset), expected)
        })
        .collect();

    let server = Server::bind(engine, "127.0.0.1:0", ServeOptions::default()).expect("bind server");
    let addr = server.local_addr();
    let handle = server.shutdown_handle();
    let join = std::thread::spawn(move || server.run().expect("serve loop"));

    std::thread::scope(|scope| {
        for (i, (body, expected)) in clients.iter().enumerate() {
            scope.spawn(move || {
                // Several rounds per client to stretch the overlap
                // window between connections.
                for round in 0..4 {
                    let resp = request(&addr, "POST", "/enrich", body).expect("client request");
                    assert_eq!(resp.status, 200, "client {i} round {round}");
                    assert_eq!(
                        resp.body_str(),
                        *expected,
                        "client {i} round {round}: got someone else's (or corrupt) response"
                    );
                }
            });
        }
    });

    handle.shutdown();
    join.join().expect("server thread");
}
