//! The fault-tolerant run layer: per-document isolation, quarantine,
//! and checkpointed, resumable enrichment.
//!
//! [`PreparedEngine::enrich_resilient`] is the production entry point
//! for messy corpora: every document passes admission control
//! ([`thor_fault::validate_text`]) and runs its segment/extract stages
//! under `catch_unwind`, so a malformed or even panic-inducing document
//! costs *one document*, not the run. Failures land in a
//! [`QuarantineReport`] (doc id, stage, error, byte offset) and bump the
//! `quarantine.docs` counter; [`RunMode::Strict`] instead aborts on the
//! first failure (after a best-effort checkpoint save).
//!
//! With a checkpoint directory configured, the processed-document set,
//! all partial slot-fills (extracted entities, scores as exact bit
//! patterns), the quarantine ledger, and a metrics snapshot are
//! persisted atomically every `checkpoint_interval` documents. A killed
//! run resumed with [`ResilientOptions::resume`] skips completed
//! documents and — because final deduplication imposes a total order —
//! produces **byte-identical** output to an uninterrupted run, for any
//! thread count and cache configuration.
//!
//! The run itself is hosted on a [`PreparedEngine`]: Preparation
//! happens once in [`crate::Thor::prepare`], and the same engine can
//! serve resilient and plain calls alike. A checkpoint is keyed on the
//! engine fingerprint plus the document ids, so a resume under a
//! different configuration, table or vector store is refused.
//!
//! **One document path.** This layer adds no pipeline of its own: each
//! document runs through the same per-document core as
//! [`PreparedEngine::enrich`] (`PreparedEngine::extract_document`, segment
//! → extract) and the same `WorkerPool` fan-out, with admission control
//! in front and every stage wrapped in a cancel check, its failpoint and
//! `catch_unwind`. The batch run is the streaming run over the borrowed
//! slice, so batch and streaming share one body.
//!
//! Fault-injection seams (`validate`, `segment`, `extract`, `slot_fill`,
//! plus `checkpoint_save`/`atomic_write` inside thor-fault) are compiled
//! in via [`thor_fault::fail_point`]; see `thor_fault::failpoint::SITES`.

use std::borrow::Borrow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

use thor_fault::{
    fail_point, fail_point_for, fingerprint, validate_text, CancelToken, Checkpoint,
    DocumentPolicy, EntityRecord, QuarantineEntry, QuarantineReport, ThorError, ThorResult,
};
use thor_obs::PipelineMetrics;
use thor_text::ScoreScratch;

use crate::document::Document;
use crate::engine::{PreparedEngine, StageGuard};
use crate::entity::ExtractedEntity;
use crate::pipeline::{dedup_entities, EnrichmentResult};
use crate::pool::fan_out;
use crate::slotfill::slot_fill_metered;

/// Failure policy of a resilient run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RunMode {
    /// Abort on the first failed document (after a best-effort
    /// checkpoint save). The safe default: nothing is silently dropped.
    #[default]
    Strict,
    /// Quarantine failed documents and keep going — one bad document
    /// costs one document.
    Lenient,
}

/// Options for [`PreparedEngine::enrich_resilient`].
#[derive(Debug, Clone)]
pub struct ResilientOptions {
    /// Strict (fail fast) or lenient (quarantine and continue).
    pub mode: RunMode,
    /// Directory for checkpoint state; `None` disables checkpointing.
    pub checkpoint_dir: Option<PathBuf>,
    /// Completed documents between checkpoint saves.
    pub checkpoint_interval: usize,
    /// Resume from the checkpoint in `checkpoint_dir` if one exists
    /// (refused when its fingerprint does not match this run's inputs).
    pub resume: bool,
    /// Admission-control policy applied to every document.
    pub policy: DocumentPolicy,
    /// Cooperative cancellation, checked between pipeline stages. An
    /// expired token aborts the run with
    /// [`thor_fault::ErrorKind::Deadline`] in *both* modes — a dead
    /// request's remaining documents are not quarantined as malformed.
    /// The default token never fires.
    pub cancel: CancelToken,
}

impl Default for ResilientOptions {
    fn default() -> Self {
        Self {
            mode: RunMode::Strict,
            checkpoint_dir: None,
            checkpoint_interval: 4,
            resume: false,
            policy: DocumentPolicy::default(),
            cancel: CancelToken::none(),
        }
    }
}

/// Outcome of a resilient run.
#[derive(Debug, Clone)]
pub struct ResilientOutcome {
    /// The ordinary enrichment result (enriched table, deduplicated
    /// entities, slot stats, timings).
    pub result: EnrichmentResult,
    /// Everything that was quarantined, in processing order.
    pub quarantine: QuarantineReport,
    /// Documents skipped because a resumed checkpoint had already
    /// completed them.
    pub resumed_docs: usize,
    /// Documents processed (or quarantined) by *this* invocation.
    pub processed_docs: usize,
    /// Checkpoint saves skipped after non-fatal save failures (lenient
    /// mode only).
    pub checkpoints_skipped: usize,
}

/// Why one document produced no entities.
enum DocFailure {
    Quarantined(QuarantineEntry),
    /// The run's cancellation token fired before or between this
    /// document's stages — a run-level abort, not a document failure.
    Cancelled(ThorError),
}

/// What happened to one document.
type DocStatus = Result<Vec<ExtractedEntity>, DocFailure>;

fn to_record(e: &ExtractedEntity) -> EntityRecord {
    EntityRecord {
        doc_id: e.doc_id.clone(),
        subject: e.subject.clone(),
        concept: e.concept.clone(),
        phrase: e.phrase.clone(),
        score_bits: e.score.to_bits(),
        matched_instance: e.matched_instance.clone(),
        sentence_index: e.sentence_index,
    }
}

fn from_record(r: &EntityRecord) -> ExtractedEntity {
    ExtractedEntity {
        subject: r.subject.clone(),
        concept: r.concept.clone(),
        phrase: r.phrase.clone(),
        score: f64::from_bits(r.score_bits),
        matched_instance: r.matched_instance.clone(),
        doc_id: r.doc_id.clone(),
        sentence_index: r.sentence_index,
    }
}

/// Mutable run bookkeeping: the live checkpoint plus save cadence.
struct RunState {
    checkpoint: Checkpoint,
    dir: Option<PathBuf>,
    interval: usize,
    since_save: usize,
    checkpoints_skipped: usize,
    mode: RunMode,
}

impl RunState {
    /// Record one finished document. A quarantined document in strict
    /// mode becomes the run's error — it is deliberately *not* marked
    /// processed (strict drops nothing), so a resumed run retries it
    /// after a best-effort save of the completed prefix.
    fn record(
        &mut self,
        doc_id: String,
        status: DocStatus,
        run: &PipelineMetrics,
    ) -> ThorResult<()> {
        match status {
            Ok(entities) => {
                self.checkpoint.processed.insert(doc_id);
                self.checkpoint
                    .entities
                    .extend(entities.iter().map(to_record));
            }
            Err(DocFailure::Quarantined(entry)) if self.mode == RunMode::Strict => {
                let _ = self.save(run);
                return Err(ThorError::new(
                    entry.kind,
                    format!(
                        "document `{}` failed at {}: {}",
                        entry.doc_id, entry.stage, entry.error
                    ),
                ));
            }
            Err(DocFailure::Quarantined(entry)) => {
                run.quarantine_docs.inc();
                self.checkpoint.processed.insert(doc_id);
                self.checkpoint.quarantine.push(entry);
            }
            Err(DocFailure::Cancelled(err)) => {
                // Deadline aborts regardless of mode, after a
                // best-effort save so a checkpointed run resumes from
                // the completed prefix. The cancelled document is not
                // marked processed — it was never attempted.
                let _ = self.save(run);
                return Err(err);
            }
        }
        self.since_save += 1;
        if self.since_save >= self.interval {
            self.maybe_save(run)?;
        }
        Ok(())
    }

    /// Unconditional save (no-op without a checkpoint dir).
    fn save(&mut self, run: &PipelineMetrics) -> ThorResult<()> {
        let Some(dir) = &self.dir else {
            self.since_save = 0;
            return Ok(());
        };
        self.checkpoint.metrics_json = Some(run.render_json());
        let result = self.checkpoint.save(dir);
        if result.is_ok() {
            self.since_save = 0;
        }
        result
    }

    /// Save, downgrading failures to a skip in lenient mode.
    fn maybe_save(&mut self, run: &PipelineMetrics) -> ThorResult<()> {
        match self.save(run) {
            Ok(()) => Ok(()),
            Err(e) => match self.mode {
                RunMode::Strict => Err(e.context("checkpoint save")),
                RunMode::Lenient => {
                    self.checkpoints_skipped += 1;
                    // Try again a full interval from now.
                    self.since_save = 0;
                    Ok(())
                }
            },
        }
    }
}

/// The resilient wrapper around one document stage: a cancel check,
/// the stage's failpoints (`name`, then `name#doc_id`), then the stage
/// under `catch_unwind`. A failure quarantines the document at that
/// stage; a fired token cancels it.
struct Guarded<'a> {
    doc_id: &'a str,
    cancel: &'a CancelToken,
}

impl Guarded<'_> {
    fn quarantined(&self, stage: &str, err: ThorError) -> DocFailure {
        DocFailure::Quarantined(QuarantineEntry::from_error(self.doc_id, stage, &err))
    }
}

impl StageGuard for Guarded<'_> {
    type Error = DocFailure;

    fn stage<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> Result<T, DocFailure> {
        self.cancel.check(name).map_err(DocFailure::Cancelled)?;
        match catch_unwind(AssertUnwindSafe(|| {
            fail_point_for(name, self.doc_id).map(|()| f())
        })) {
            Ok(Ok(out)) => Ok(out),
            Ok(Err(e)) => Err(self.quarantined(name, e)),
            Err(payload) => Err(self.quarantined(name, ThorError::panic(name, payload.as_ref()))),
        }
    }
}

/// Admission control (stage `validate`), then the engine's per-document
/// core with every stage guarded — panics and errors cost this document
/// only.
fn process_doc(
    engine: &PreparedEngine,
    doc: &Document,
    opts: &ResilientOptions,
    run: &PipelineMetrics,
    scratch: &mut ScoreScratch,
) -> DocStatus {
    let guard = Guarded {
        doc_id: &doc.id,
        cancel: &opts.cancel,
    };
    guard
        .stage("validate", || {
            validate_text(&doc.id, &doc.text, &opts.policy)
        })?
        .map_err(|e| guard.quarantined("validate", e))?;
    engine.extract_document(doc, run, scratch, &guard)
}

/// Fingerprint tying a checkpoint to the run that produced it: the
/// engine fingerprint (every output-affecting config field plus the
/// table and vector-store digests) and the ordered document ids. Any
/// difference that could change extraction output makes resume refuse
/// the stale state.
fn run_fingerprint<'a>(
    engine_fingerprint: &str,
    doc_ids: impl IntoIterator<Item = &'a str>,
) -> String {
    let docs = doc_ids.into_iter().map(|id| format!("doc={id}"));
    fingerprint(std::iter::once(format!("engine={engine_fingerprint}")).chain(docs))
}

impl PreparedEngine {
    /// Resilient enrichment served from this engine: admission control,
    /// per-document panic isolation, quarantine, checkpoint/resume —
    /// without re-running Preparation. Workers come from the shared
    /// [`crate::WorkerPool`]. See the module docs for semantics;
    /// [`PreparedEngine::enrich`] remains the fast path for trusted
    /// input.
    pub fn enrich_resilient(
        &self,
        docs: &[Document],
        opts: &ResilientOptions,
    ) -> ThorResult<ResilientOutcome> {
        // The streaming run over the borrowed slice, in one chunk:
        // every pending document shares one fan-out, no body is cloned.
        let ids: Vec<String> = docs.iter().map(|d| d.id.clone()).collect();
        let stream = docs.iter().map(|d| (d.id.clone(), Ok(d)));
        self.enrich_resilient_stream(&ids, stream, opts, docs.len())
    }

    /// Out-of-core resilient enrichment: documents arrive from a lazy
    /// reader, at most `chunk_size` bodies are resident at a time, and
    /// each chunk runs through the shared [`crate::WorkerPool`]
    /// fan-out. Output is **byte-identical** to
    /// [`enrich_resilient`](Self::enrich_resilient) over the same
    /// corpus, for any chunk size, thread count, and cache setting:
    /// entities accumulate in checkpoint order and final deduplication
    /// imposes a total order, so the chunk boundaries are unobservable.
    ///
    /// `doc_ids` is the complete, ordered id list (known before any
    /// body is read — e.g. file stems from
    /// `thor_data::CorpusDir::discover`); the checkpoint fingerprint is
    /// computed from it, so a streaming run resumes a batch run's
    /// checkpoint and vice versa. `docs` must yield one `(id, body)`
    /// pair per entry of `doc_ids`, in order — a mismatch aborts the
    /// run. A failed read (`Err` body) is a strict-mode error; in
    /// lenient mode it is quarantined at stage `read_doc` and the run
    /// continues. Bodies may be owned or borrowed (`D` is `Document`
    /// or `&Document`).
    pub fn enrich_resilient_stream<I, D>(
        &self,
        doc_ids: &[String],
        docs: I,
        opts: &ResilientOptions,
        chunk_size: usize,
    ) -> ThorResult<ResilientOutcome>
    where
        I: IntoIterator<Item = (String, ThorResult<D>)>,
        D: Borrow<Document> + Sync,
    {
        // Resume correctness keys the processed-set on document ids.
        let mut seen = std::collections::HashSet::new();
        for id in doc_ids {
            if !seen.insert(id) {
                return Err(ThorError::config(format!(
                    "duplicate document id `{id}` (resilient runs require unique ids)"
                )));
            }
        }

        let run = self.run_metrics();
        let run_fp = run_fingerprint(self.fingerprint(), doc_ids.iter().map(String::as_str));
        let mut state = self.open_run_state(opts, run_fp, &run)?;

        let chunk_size = chunk_size.max(1);
        let mut resumed_docs = 0usize;
        let mut processed_docs = 0usize;
        let inference_t0 = std::time::Instant::now();
        let mut expected = doc_ids.iter();
        let mut docs = docs.into_iter();
        let mut stream_len = 0usize;
        loop {
            // Fill one bounded chunk, skipping checkpoint-completed ids
            // without materializing their bodies.
            let mut chunk: Vec<D> = Vec::with_capacity(chunk_size);
            for (id, body) in docs.by_ref() {
                stream_len += 1;
                match expected.next() {
                    Some(want) if *want == id => {}
                    Some(want) => {
                        return Err(ThorError::config(format!(
                            "document stream out of order: got `{id}`, expected `{want}`"
                        )))
                    }
                    None => {
                        return Err(ThorError::config(format!(
                            "document stream yielded `{id}` beyond the {} declared ids",
                            doc_ids.len()
                        )))
                    }
                }
                if state.checkpoint.processed.contains(&id) {
                    resumed_docs += 1;
                    continue;
                }
                match body {
                    Ok(doc) => {
                        if doc.borrow().id != id {
                            return Err(ThorError::config(format!(
                                "document stream yielded body `{}` under id `{id}`",
                                doc.borrow().id
                            )));
                        }
                        chunk.push(doc);
                        if chunk.len() == chunk_size {
                            break;
                        }
                    }
                    Err(e) if state.mode == RunMode::Strict => {
                        // Same contract as a quarantined document in
                        // strict mode: save the completed prefix, fail.
                        let _ = state.save(&run);
                        return Err(e.context(format!("reading document `{id}`")));
                    }
                    Err(e) => {
                        processed_docs += 1;
                        let entry = QuarantineEntry::from_error(&id, "read_doc", &e);
                        state.record(id, Err(DocFailure::Quarantined(entry)), &run)?;
                    }
                }
            }
            if chunk.is_empty() {
                break;
            }
            processed_docs += chunk.len();
            fan_out(
                self.config().threads,
                &chunk,
                &opts.cancel,
                |doc, scratch| process_doc(self, doc.borrow(), opts, &run, scratch),
                |doc, status| state.record(doc.borrow().id.clone(), status, &run),
            )?;
            if opts.cancel.is_cancelled() {
                // The fan-out winds down quietly; `finalize_run` turns
                // the fired token into the run's deadline error.
                break;
            }
        }
        // A cancelled run stops reading early; that is not a short stream.
        if stream_len != doc_ids.len() && !opts.cancel.is_cancelled() {
            return Err(ThorError::config(format!(
                "document stream ended after {stream_len} of {} declared ids",
                doc_ids.len()
            )));
        }
        self.finalize_run(
            state,
            &opts.cancel,
            &run,
            resumed_docs,
            processed_docs,
            inference_t0,
        )
    }

    /// Build this run's [`RunState`], absorbing a resumable checkpoint
    /// (and its metrics snapshot) when `opts.resume` asks for it.
    fn open_run_state(
        &self,
        opts: &ResilientOptions,
        run_fp: String,
        run: &PipelineMetrics,
    ) -> ThorResult<RunState> {
        let mut state = RunState {
            checkpoint: Checkpoint::new(run_fp.clone()),
            dir: opts.checkpoint_dir.clone(),
            interval: opts.checkpoint_interval.max(1),
            since_save: 0,
            checkpoints_skipped: 0,
            mode: opts.mode,
        };
        if opts.resume {
            let dir = opts
                .checkpoint_dir
                .as_deref()
                .ok_or_else(|| ThorError::config("--resume requires a checkpoint directory"))?;
            if let Some(previous) = Checkpoint::load(dir)? {
                if previous.fingerprint != run_fp {
                    return Err(ThorError::checkpoint(format!(
                        "checkpoint in {} was written by a different run \
                         (fingerprint {} != {run_fp}); refusing to resume",
                        dir.display(),
                        previous.fingerprint
                    )));
                }
                if let Some(json) = &previous.metrics_json {
                    match thor_obs::MetricsSnapshot::from_json_str(json) {
                        Ok(snapshot) => run.absorb(&snapshot),
                        Err(e) => {
                            return Err(ThorError::checkpoint(format!(
                                "checkpoint metrics snapshot unreadable: {e}"
                            )))
                        }
                    }
                }
                state.checkpoint = previous;
                state.checkpoint.fingerprint = run_fp;
                state.checkpoint.metrics_json = None;
            }
        }
        Ok(state)
    }

    /// Final checkpoint save, deduplication, and slot fill. The
    /// returned `inference_time` (from `inference_t0`, before the first
    /// document, through slot fill) is recorded once as
    /// `pipeline.inference`.
    fn finalize_run(
        &self,
        mut state: RunState,
        cancel: &CancelToken,
        run: &PipelineMetrics,
        resumed_docs: usize,
        processed_docs: usize,
        inference_t0: std::time::Instant,
    ) -> ThorResult<ResilientOutcome> {
        // Final checkpoint so a crash after this point resumes instantly.
        state.maybe_save(run)?;

        // Workers wind down quietly when the token fires mid-run; this
        // seam turns that into the run-level deadline error (and stops
        // an expired request from paying for slot fill).
        cancel.check("slot_fill")?;
        fail_point("slot_fill")?;
        let mut entities: Vec<ExtractedEntity> =
            state.checkpoint.entities.iter().map(from_record).collect();
        dedup_entities(&mut entities);
        let mut enriched = self.table().clone();
        let slot_stats = slot_fill_metered(&mut enriched, &entities, run);
        let inference_time = inference_t0.elapsed();
        run.inference.record(inference_time);

        Ok(ResilientOutcome {
            result: EnrichmentResult {
                table: enriched,
                entities,
                slot_stats,
                prepare_time: self.prepare_time(),
                inference_time,
            },
            quarantine: state.checkpoint.quarantine.clone(),
            resumed_docs,
            processed_docs,
            checkpoints_skipped: state.checkpoints_skipped,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ThorConfig;
    use crate::pipeline::Thor;
    use thor_data::{Schema, Table};
    use thor_embed::SemanticSpaceBuilder;

    fn setup() -> (Thor, Table, Vec<Document>) {
        let store = SemanticSpaceBuilder::new(16, 7)
            .topic("anatomy")
            .words("anatomy", ["lungs", "brain", "skin", "nerve"])
            .generic_words(["damages", "grows"])
            .build()
            .into_store();
        let mut table = Table::new(Schema::new(["Disease", "Anatomy"], "Disease"));
        table.fill_slot("Tuberculosis", "Anatomy", "lungs");
        table.row_for_subject("Acne");
        let docs = vec![
            Document::new("d0", "Tuberculosis damages the lungs and the brain."),
            Document::new("d1", "Acne grows on the skin."),
            Document::new("d2", "Tuberculosis damages the nerve."),
        ];
        (Thor::new(store, ThorConfig::with_tau(0.6)), table, docs)
    }

    #[test]
    fn clean_resilient_run_matches_enrich() {
        let (thor, table, docs) = setup();
        let plain = thor.prepare(&table).enrich(&docs);
        let resilient = thor
            .prepare(&table)
            .enrich_resilient(&docs, &ResilientOptions::default())
            .unwrap();
        assert!(resilient.quarantine.is_empty());
        assert_eq!(resilient.resumed_docs, 0);
        assert_eq!(resilient.processed_docs, 3);
        assert_eq!(resilient.result.entities, plain.entities);
        assert_eq!(
            thor_data::to_csv(&resilient.result.table),
            thor_data::to_csv(&plain.table)
        );
    }

    #[test]
    fn invalid_documents_are_quarantined_in_lenient_mode() {
        let (thor, table, mut docs) = setup();
        docs.push(Document::new("empty", "   "));
        let opts = ResilientOptions {
            mode: RunMode::Lenient,
            ..Default::default()
        };
        let outcome = thor.prepare(&table).enrich_resilient(&docs, &opts).unwrap();
        assert_eq!(outcome.quarantine.len(), 1);
        assert_eq!(outcome.quarantine.entries()[0].doc_id, "empty");
        assert_eq!(outcome.quarantine.entries()[0].stage, "validate");
        // The clean docs still enriched the table.
        let clean = thor.prepare(&table).enrich(&docs[..3]);
        assert_eq!(outcome.result.entities, clean.entities);
    }

    #[test]
    fn strict_mode_fails_fast_on_invalid_document() {
        let (thor, table, mut docs) = setup();
        docs.insert(0, Document::new("empty", ""));
        let err = thor
            .prepare(&table)
            .enrich_resilient(&docs, &ResilientOptions::default())
            .unwrap_err();
        assert!(err.to_string().contains("empty"), "{err}");
    }

    #[test]
    fn duplicate_doc_ids_rejected() {
        let (thor, table, mut docs) = setup();
        docs.push(docs[0].clone());
        let err = thor
            .prepare(&table)
            .enrich_resilient(&docs, &ResilientOptions::default())
            .unwrap_err();
        assert!(err.to_string().contains("duplicate document id"), "{err}");
    }

    #[test]
    fn quarantine_counter_tracks_report() {
        let (thor, table, mut docs) = setup();
        docs.push(Document::new("junk", "\u{FFFD}\u{1}\u{FFFD}\u{2}"));
        docs.push(Document::new("blank", "\n\n"));
        let metrics = PipelineMetrics::new();
        let thor = thor.with_metrics(metrics.clone());
        let opts = ResilientOptions {
            mode: RunMode::Lenient,
            ..Default::default()
        };
        let outcome = thor.prepare(&table).enrich_resilient(&docs, &opts).unwrap();
        assert_eq!(outcome.quarantine.len(), 2);
        assert_eq!(metrics.snapshot().count("quarantine.docs"), 2);
        assert_eq!(metrics.snapshot().count("docs"), 3);
    }

    fn stream_of(docs: &[Document]) -> Vec<(String, ThorResult<Document>)> {
        docs.iter().map(|d| (d.id.clone(), Ok(d.clone()))).collect()
    }

    #[test]
    fn streaming_matches_batch_byte_identically() {
        let (thor, table, docs) = setup();
        let engine = thor.prepare(&table);
        let ids: Vec<String> = docs.iter().map(|d| d.id.clone()).collect();
        let opts = ResilientOptions::default();
        let batch = engine.enrich_resilient(&docs, &opts).unwrap();
        let batch_csv = thor_data::to_csv(&batch.result.table);
        for chunk in [1usize, 2, 64] {
            for threads in [1usize, 4] {
                let engine = engine.with_threads(threads);
                let streamed = engine
                    .enrich_resilient_stream(&ids, stream_of(&docs), &opts, chunk)
                    .unwrap();
                assert_eq!(
                    streamed.result.entities, batch.result.entities,
                    "chunk={chunk}, threads={threads}"
                );
                assert_eq!(
                    thor_data::to_csv(&streamed.result.table),
                    batch_csv,
                    "chunk={chunk}, threads={threads}"
                );
                assert_eq!(streamed.processed_docs, docs.len());
                assert_eq!(streamed.resumed_docs, 0);
            }
        }
    }

    #[test]
    fn streaming_resumes_a_batch_checkpoint_and_vice_versa() {
        let (thor, table, docs) = setup();
        let engine = thor.prepare(&table);
        let ids: Vec<String> = docs.iter().map(|d| d.id.clone()).collect();
        let dir = std::env::temp_dir().join(format!("thor-stream-resume-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let opts = ResilientOptions {
            checkpoint_dir: Some(dir.clone()),
            checkpoint_interval: 1,
            ..Default::default()
        };
        let reference = engine.enrich_resilient(&docs, &opts).unwrap();

        // Batch checkpoint → streaming resume: the fingerprint is keyed
        // on ids only, so every already-completed document is skipped
        // without its body ever being materialized.
        let resume = ResilientOptions {
            resume: true,
            ..opts.clone()
        };
        let streamed = engine
            .enrich_resilient_stream(&ids, stream_of(&docs), &resume, 2)
            .unwrap();
        assert_eq!(streamed.resumed_docs, docs.len());
        assert_eq!(streamed.processed_docs, 0);
        assert_eq!(streamed.result.entities, reference.result.entities);

        // Streaming checkpoint → batch resume.
        std::fs::remove_dir_all(&dir).ok();
        engine
            .enrich_resilient_stream(&ids, stream_of(&docs), &opts, 1)
            .unwrap();
        let resumed = engine.enrich_resilient(&docs, &resume).unwrap();
        assert_eq!(resumed.resumed_docs, docs.len());
        assert_eq!(resumed.result.entities, reference.result.entities);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn streaming_read_failures_follow_run_mode() {
        let (thor, table, docs) = setup();
        let engine = thor.prepare(&table);
        let mut ids: Vec<String> = docs.iter().map(|d| d.id.clone()).collect();
        ids.push("dead".to_string());
        let items = || {
            let mut v = stream_of(&docs);
            v.push((
                "dead".to_string(),
                Err(ThorError::io("dead.txt", std::io::Error::other("gone"))),
            ));
            v
        };

        let strict = engine.enrich_resilient_stream(&ids, items(), &ResilientOptions::default(), 2);
        let err = strict.unwrap_err();
        assert!(err.to_string().contains("dead"), "{err}");

        let lenient = ResilientOptions {
            mode: RunMode::Lenient,
            ..Default::default()
        };
        let outcome = engine
            .enrich_resilient_stream(&ids, items(), &lenient, 2)
            .unwrap();
        assert_eq!(outcome.quarantine.len(), 1);
        assert_eq!(outcome.quarantine.entries()[0].doc_id, "dead");
        assert_eq!(outcome.quarantine.entries()[0].stage, "read_doc");
        let clean = engine.enrich_resilient(&docs, &lenient).unwrap();
        assert_eq!(outcome.result.entities, clean.result.entities);
    }

    #[test]
    fn streaming_rejects_id_mismatch_and_short_streams() {
        let (thor, table, docs) = setup();
        let engine = thor.prepare(&table);
        let ids: Vec<String> = docs.iter().map(|d| d.id.clone()).collect();
        let opts = ResilientOptions::default();

        let mut reversed = stream_of(&docs);
        reversed.reverse();
        let err = engine
            .enrich_resilient_stream(&ids, reversed, &opts, 2)
            .unwrap_err();
        assert!(err.to_string().contains("out of order"), "{err}");

        let short = stream_of(&docs[..2]);
        let err = engine
            .enrich_resilient_stream(&ids, short, &opts, 2)
            .unwrap_err();
        assert!(err.to_string().contains("ended after 2"), "{err}");
    }

    #[test]
    fn expired_deadline_aborts_the_run_in_both_modes() {
        let (thor, table, docs) = setup();
        for mode in [RunMode::Strict, RunMode::Lenient] {
            let opts = ResilientOptions {
                mode,
                cancel: thor_fault::CancelToken::with_deadline(std::time::Duration::ZERO),
                ..Default::default()
            };
            let err = thor
                .prepare(&table)
                .enrich_resilient(&docs, &opts)
                .unwrap_err();
            assert_eq!(err.kind(), thor_fault::ErrorKind::Deadline, "{mode:?}");
            assert!(err.to_string().contains("deadline exceeded"), "{err}");
        }
    }

    #[test]
    fn expired_deadline_aborts_multithreaded_runs() {
        let (thor, table, docs) = setup();
        let engine = thor.prepare(&table).with_threads(4);
        let opts = ResilientOptions {
            mode: RunMode::Lenient,
            cancel: thor_fault::CancelToken::with_deadline(std::time::Duration::ZERO),
            ..Default::default()
        };
        let err = engine.enrich_resilient(&docs, &opts).unwrap_err();
        assert_eq!(err.kind(), thor_fault::ErrorKind::Deadline);
    }

    #[test]
    fn unexpired_deadline_changes_nothing() {
        let (thor, table, docs) = setup();
        let plain = thor
            .prepare(&table)
            .enrich_resilient(&docs, &ResilientOptions::default())
            .unwrap();
        let opts = ResilientOptions {
            cancel: thor_fault::CancelToken::with_deadline(std::time::Duration::from_secs(3600)),
            ..Default::default()
        };
        let budgeted = thor.prepare(&table).enrich_resilient(&docs, &opts).unwrap();
        assert_eq!(budgeted.result.entities, plain.result.entities);
        assert_eq!(
            thor_data::to_csv(&budgeted.result.table),
            thor_data::to_csv(&plain.result.table)
        );
    }

    #[test]
    fn engine_resilient_run_reuses_preparation() {
        let (thor, table, docs) = setup();
        let engine = thor.prepare(&table);
        let a = engine
            .enrich_resilient(&docs, &ResilientOptions::default())
            .unwrap();
        let b = engine
            .enrich_resilient(&docs, &ResilientOptions::default())
            .unwrap();
        assert_eq!(a.result.entities, b.result.entities);
        assert_eq!(
            thor_data::to_csv(&a.result.table),
            thor_data::to_csv(&b.result.table)
        );
    }
}
