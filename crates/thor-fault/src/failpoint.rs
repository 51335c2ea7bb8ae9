//! Deterministic fault injection: named failpoints compiled into the
//! pipeline's I/O and processing seams.
//!
//! A failpoint is armed with a spec string, either programmatically
//! ([`scoped_failpoints`], for tests) or from the `THOR_FAILPOINTS`
//! environment variable ([`install_from_env`], for the CLI and the
//! kill-and-resume smoke):
//!
//! ```text
//! THOR_FAILPOINTS=read_doc:err@3,extract:panic@7,checkpoint_save:abort
//! ```
//!
//! Each entry is `name:action[@n]` — on the `n`-th evaluation (1-based,
//! default 1) of `fail_point(name)` the action fires **once**. A
//! per-document seam also evaluates `name#doc_id` ([`fail_point_for`]),
//! so `extract#d5:err` fails document `d5` whichever worker reaches it
//! first:
//!
//! - `err`   — the seam returns an [`ErrorKind::Injected`] `ThorError`,
//! - `panic` — the seam panics (exercising `catch_unwind` isolation),
//! - `abort` — the process dies via `std::process::abort()`, the
//!   deterministic stand-in for `kill -9` in crash/resume tests.
//!
//! When nothing is armed, `fail_point` is a single relaxed atomic load.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

use crate::error::{ThorError, ThorResult};

/// What an armed failpoint does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailAction {
    /// Return an injected [`ThorError`] from the seam.
    Err,
    /// Panic at the seam.
    Panic,
    /// Abort the process (deterministic `kill -9`).
    Abort,
}

#[derive(Debug)]
struct Failpoint {
    action: FailAction,
    /// Fires when `hits` reaches this 1-based count.
    at: u64,
    hits: u64,
}

static ARMED: AtomicBool = AtomicBool::new(false);

fn registry() -> &'static Mutex<HashMap<String, Failpoint>> {
    static REGISTRY: OnceLock<Mutex<HashMap<String, Failpoint>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Poison-tolerant lock: a panic fired *by* a failpoint while the map
/// lock is held elsewhere must not wedge the harness.
fn lock_registry() -> MutexGuard<'static, HashMap<String, Failpoint>> {
    registry()
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Parse a spec string (`name:action[@n],...`) into failpoints.
fn parse_spec(spec: &str) -> ThorResult<HashMap<String, Failpoint>> {
    let mut map = HashMap::new();
    for entry in spec.split(',').filter(|e| !e.trim().is_empty()) {
        let entry = entry.trim();
        let (name, rest) = entry.split_once(':').ok_or_else(|| {
            ThorError::config(format!("failpoint `{entry}`: expected name:action"))
        })?;
        let (action, at) = match rest.split_once('@') {
            Some((action, n)) => {
                let at: u64 = n.parse().map_err(|_| {
                    ThorError::config(format!("failpoint `{entry}`: bad hit count `{n}`"))
                })?;
                if at == 0 {
                    return Err(ThorError::config(format!(
                        "failpoint `{entry}`: hit count is 1-based"
                    )));
                }
                (action, at)
            }
            None => (rest, 1),
        };
        let action = match action {
            "err" => FailAction::Err,
            "panic" => FailAction::Panic,
            "abort" => FailAction::Abort,
            other => {
                return Err(ThorError::config(format!(
                    "failpoint `{entry}`: unknown action `{other}` (err|panic|abort)"
                )))
            }
        };
        map.insert(
            name.to_string(),
            Failpoint {
                action,
                at,
                hits: 0,
            },
        );
    }
    Ok(map)
}

/// Arm failpoints from a spec string, replacing whatever was armed.
/// An empty spec disarms everything.
pub fn set_failpoints(spec: &str) -> ThorResult<()> {
    let parsed = parse_spec(spec)?;
    let armed = !parsed.is_empty();
    *lock_registry() = parsed;
    ARMED.store(armed, Ordering::Release);
    Ok(())
}

/// Disarm every failpoint.
pub fn clear_failpoints() {
    lock_registry().clear();
    ARMED.store(false, Ordering::Release);
}

/// Arm failpoints from `THOR_FAILPOINTS`, if set. Call once at process
/// start; a malformed spec is an error (silently ignoring a typoed
/// injection spec would un-test the chaos suite).
pub fn install_from_env() -> ThorResult<()> {
    match std::env::var("THOR_FAILPOINTS") {
        Ok(spec) => set_failpoints(&spec),
        Err(_) => Ok(()),
    }
}

/// Are any failpoints currently armed?
pub fn failpoints_armed() -> bool {
    ARMED.load(Ordering::Acquire)
}

/// Evaluate the failpoint `name`: a no-op unless armed, in which case
/// the armed action fires on its configured hit.
pub fn fail_point(name: &str) -> ThorResult<()> {
    if !ARMED.load(Ordering::Acquire) {
        return Ok(());
    }
    let action = {
        let mut map = lock_registry();
        match map.get_mut(name) {
            Some(fp) => {
                fp.hits += 1;
                (fp.hits == fp.at).then_some(fp.action)
            }
            None => None,
        }
    };
    match action {
        None => Ok(()),
        Some(FailAction::Err) => Err(ThorError::injected(name)),
        Some(FailAction::Panic) => panic!("injected panic at failpoint `{name}`"),
        Some(FailAction::Abort) => std::process::abort(),
    }
}

/// [`fail_point`] for one document: evaluates `name`, then the
/// document-scoped `name#doc_id`.
pub fn fail_point_for(name: &str, doc_id: &str) -> ThorResult<()> {
    fail_point(name)?;
    if !ARMED.load(Ordering::Acquire) {
        return Ok(());
    }
    fail_point(&format!("{name}#{doc_id}"))
}

/// The canonical failpoint names compiled into the workspace's seams,
/// for docs and for the chaos suite's "every site" sweep. Per-document
/// sites quarantine in lenient mode; run-level sites fail the run (or,
/// for `checkpoint_save` in lenient mode, skip the checkpoint).
pub const SITES: &[&str] = &[
    "read_table",      // CLI: integrated-table CSV read+parse (run-level)
    "read_doc",        // CLI: per-document file read
    "read_vectors",    // thor-embed: vector-file load (run-level)
    "validate",        // thor-core: per-document admission control
    "segment",         // thor-core: per-document segmentation
    "extract",         // thor-core: per-document entity extraction
    "slot_fill",       // thor-core: run-level slot filling
    "checkpoint_save", // thor-fault: checkpoint persistence
    "atomic_write",    // thor-fault: any atomic artifact write (run-level)
    "serve_request",   // thor-serve: per-request seam in the HTTP front end
    "reload_open",     // thor-serve: candidate artifact open during hot reload
    "reload_validate", // thor-serve: candidate validation during hot reload
    "swap",            // thor-core: the engine-slot generation swap itself
    "worker_panic",    // thor-serve: accept-worker seam (kills one worker)
];

/// Serializes tests that arm the (global) failpoint registry.
static TEST_LOCK: Mutex<()> = Mutex::new(());

/// RAII guard for tests: holds a global lock so concurrently running
/// tests never see each other's failpoints, and disarms on drop.
#[derive(Debug)]
pub struct FailpointsGuard {
    _lock: MutexGuard<'static, ()>,
}

impl Drop for FailpointsGuard {
    fn drop(&mut self) {
        clear_failpoints();
    }
}

/// Arm `spec` for the lifetime of the returned guard (test helper).
///
/// # Panics
/// On a malformed spec — tests should fail loudly.
pub fn scoped_failpoints(spec: &str) -> FailpointsGuard {
    let lock = TEST_LOCK
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    set_failpoints(spec).expect("valid failpoint spec");
    FailpointsGuard { _lock: lock }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ErrorKind;

    #[test]
    fn unarmed_failpoints_are_noops() {
        let _guard = scoped_failpoints("");
        assert!(!failpoints_armed());
        assert!(fail_point("read_doc").is_ok());
    }

    #[test]
    fn err_action_fires_on_nth_hit_once() {
        let _guard = scoped_failpoints("read_doc:err@3");
        assert!(failpoints_armed());
        assert!(fail_point("read_doc").is_ok());
        assert!(fail_point("read_doc").is_ok());
        let err = fail_point("read_doc").unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Injected);
        assert!(err.to_string().contains("read_doc"));
        // Fires once, not on every hit past n.
        assert!(fail_point("read_doc").is_ok());
        // Other names are unaffected.
        assert!(fail_point("extract").is_ok());
    }

    #[test]
    fn document_scoped_failpoint_fires_for_that_document_only() {
        {
            let _guard = scoped_failpoints("extract#d5:err");
            assert!(fail_point_for("extract", "d4").is_ok());
            let err = fail_point_for("extract", "d5").unwrap_err();
            assert_eq!(err.kind(), ErrorKind::Injected);
            assert!(err.to_string().contains("extract#d5"));
            assert!(fail_point_for("segment", "d5").is_ok());
        }
        // The unscoped name still counts every document.
        let _guard = scoped_failpoints("extract:err@2");
        assert!(fail_point_for("extract", "d0").is_ok());
        assert!(fail_point_for("extract", "d1").is_err());
    }

    #[test]
    fn panic_action_panics() {
        let _guard = scoped_failpoints("extract:panic");
        let caught = std::panic::catch_unwind(|| fail_point("extract"));
        assert!(caught.is_err());
    }

    #[test]
    fn guard_disarms_on_drop() {
        {
            let _guard = scoped_failpoints("segment:err");
        }
        assert!(!failpoints_armed());
        assert!(fail_point("segment").is_ok());
    }

    #[test]
    fn malformed_specs_rejected() {
        for bad in ["nocolon", "x:boom", "x:err@zero", "x:err@0"] {
            assert!(set_failpoints(bad).is_err(), "{bad} should be rejected");
        }
        clear_failpoints();
    }

    #[test]
    fn multi_entry_spec_and_whitespace() {
        let _guard = scoped_failpoints(" read_doc:err@1 , extract:err@2 ");
        assert!(fail_point("read_doc").is_err());
        assert!(fail_point("extract").is_ok());
        assert!(fail_point("extract").is_err());
    }

    #[test]
    fn canonical_sites_are_distinct() {
        let mut names: Vec<&str> = SITES.to_vec();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), SITES.len());
    }
}
