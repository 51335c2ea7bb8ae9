//! The shared worker-pool executor behind every parallel serve path.
//!
//! The [`WorkerPool`] keeps one set of detached worker threads alive
//! for the process (grown on demand, never shrunk) instead of spawning
//! threads per call, and hands out *scoped submission*:
//! [`WorkerPool::scope`] lets callers spawn borrowing closures exactly
//! like `std::thread::scope`, blocking until every spawned task has
//! finished before it returns.
//!
//! Every document-parallel path in the crate — plain `extract`/`enrich`
//! and both resilient runs — goes through the one fan-out built on it,
//! `fan_out`: self-contained work-queue drainers over document
//! indices, one refinement scratch per worker, results streamed to a
//! single consumer on the calling thread. Determinism is unaffected:
//! the pipeline's final `dedup_order` sort makes output independent of
//! which worker ran which document. Panics inside a task are caught,
//! the scope drains, and the first panic is resumed on the caller
//! thread — the same observable behaviour as a panicking
//! `std::thread::scope` handle.

use std::any::Any;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, OnceLock};

use thor_fault::CancelToken;
use thor_text::ScoreScratch;

type Job = Box<dyn FnOnce() + Send + 'static>;

struct PoolState {
    queue: VecDeque<Job>,
    workers: usize,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Signalled when a job is queued.
    available: Condvar,
}

/// A persistent pool of detached worker threads with scoped submission.
///
/// One process-wide instance lives behind [`WorkerPool::global`];
/// independent pools can be created for tests. Workers block on the
/// queue when idle and live until process exit.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.shared.state.lock().unwrap();
        f.debug_struct("WorkerPool")
            .field("workers", &state.workers)
            .field("queued", &state.queue.len())
            .finish()
    }
}

impl Default for WorkerPool {
    fn default() -> Self {
        Self::new()
    }
}

impl WorkerPool {
    /// An empty pool; workers are spawned lazily by
    /// [`WorkerPool::scope`] / [`WorkerPool::ensure_workers`].
    pub fn new() -> Self {
        Self {
            shared: Arc::new(PoolShared {
                state: Mutex::new(PoolState {
                    queue: VecDeque::new(),
                    workers: 0,
                }),
                available: Condvar::new(),
            }),
        }
    }

    /// The process-wide shared pool every pipeline serve path submits
    /// to. Worker threads are spawned on first use and reused by every
    /// subsequent call, τ value, and engine.
    pub fn global() -> &'static WorkerPool {
        static GLOBAL: OnceLock<WorkerPool> = OnceLock::new();
        GLOBAL.get_or_init(WorkerPool::new)
    }

    /// Current number of live worker threads.
    pub fn worker_count(&self) -> usize {
        self.shared.state.lock().unwrap().workers
    }

    /// Grow the pool to at least `n` workers (never shrinks).
    pub fn ensure_workers(&self, n: usize) {
        let mut state = self.shared.state.lock().unwrap();
        while state.workers < n {
            state.workers += 1;
            let shared = Arc::clone(&self.shared);
            std::thread::Builder::new()
                .name(format!("thor-pool-{}", state.workers))
                .spawn(move || worker_loop(shared))
                .expect("failed to spawn pool worker");
        }
    }

    fn submit(&self, job: Job) {
        let mut state = self.shared.state.lock().unwrap();
        state.queue.push_back(job);
        drop(state);
        self.shared.available.notify_one();
    }

    /// Run `f` with a scoped spawner backed by the pool: closures
    /// spawned through the [`PoolScope`] may borrow from the enclosing
    /// environment, and `scope` does not return until every one of them
    /// has finished (the completion barrier that makes the borrows
    /// sound). At least `workers` pool threads are available before `f`
    /// runs.
    ///
    /// If a task panics, the panic is resumed on this thread after the
    /// barrier; if `f` itself panics, the barrier still drains before
    /// the panic propagates.
    pub fn scope<'env, R>(&self, workers: usize, f: impl FnOnce(&PoolScope<'_, 'env>) -> R) -> R {
        self.ensure_workers(workers.max(1));
        let state = Arc::new(ScopeState {
            pending: Mutex::new(0),
            done: Condvar::new(),
            panic: Mutex::new(None),
        });
        let scope = PoolScope {
            pool: self,
            state: Arc::clone(&state),
            _env: PhantomData,
        };
        let result = catch_unwind(AssertUnwindSafe(|| f(&scope)));
        // Completion barrier: every spawned task must finish before any
        // borrow the tasks hold can go out of scope.
        let mut pending = state.pending.lock().unwrap();
        while *pending > 0 {
            pending = state.done.wait(pending).unwrap();
        }
        drop(pending);
        if let Some(payload) = state.panic.lock().unwrap().take() {
            resume_unwind(payload);
        }
        match result {
            Ok(r) => r,
            Err(payload) => resume_unwind(payload),
        }
    }
}

/// Run `work` over every item of `items` and hand each result to
/// `consume`, always on the calling thread, in completion order.
///
/// Up to `threads` workers drain a shared index: the calling thread
/// plus `threads - 1` helpers from the global [`WorkerPool`] (none at
/// one thread or one item, so that case is a plain sequential loop).
/// Each worker owns one [`ScoreScratch`], reused across every item it
/// takes. The calling thread delivers its own results and, between its
/// items, the helpers' — it never sits idle waiting on a channel while
/// items remain. Every result sent before an item was claimed is
/// delivered before that item's, so an item that fails `consume` never
/// overtakes one finished before it was started. No new item is started
/// once `consume` has returned an error — the first error is returned
/// after in-flight items finish, their results dropped — or once
/// `cancel` has fired, which returns `Ok`: the caller decides what a
/// fired token means.
pub(crate) fn fan_out<T, R, E>(
    threads: usize,
    items: &[T],
    cancel: &CancelToken,
    work: impl Fn(&T, &mut ScoreScratch) -> R + Sync,
    mut consume: impl FnMut(&T, R) -> Result<(), E>,
) -> Result<(), E>
where
    T: Sync,
    R: Send,
{
    let helpers = threads.min(items.len()).saturating_sub(1);
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let claim = || {
        if stop.load(Ordering::Relaxed) || cancel.is_cancelled() {
            return None;
        }
        // AcqRel: a worker's sends before a claim are visible to every
        // later claimer, so the calling thread's drain below sees them.
        let i = next.fetch_add(1, Ordering::AcqRel);
        items.get(i).map(|item| (i, item))
    };
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    let mut first_err = None;
    let mut deliver = |i: usize, result: R| {
        if first_err.is_none() {
            if let Err(e) = consume(&items[i], result) {
                stop.store(true, Ordering::Relaxed);
                first_err = Some(e);
            }
        }
    };
    // The calling thread's share; returns once every helper has hung
    // up (each sender is dropped when its worker runs out of items).
    let mut drive = |tx: mpsc::Sender<(usize, R)>| {
        drop(tx);
        let mut scratch = ScoreScratch::new();
        while let Some((i, item)) = claim() {
            let result = work(item, &mut scratch);
            for (j, earlier) in rx.try_iter() {
                deliver(j, earlier);
            }
            deliver(i, result);
        }
        for (j, result) in rx.iter() {
            deliver(j, result);
        }
    };
    if helpers == 0 {
        drive(tx);
    } else {
        WorkerPool::global().scope(helpers, |scope| {
            for _ in 0..helpers {
                let tx = tx.clone();
                let (claim, work) = (&claim, &work);
                scope.spawn(move || {
                    let mut scratch = ScoreScratch::new();
                    while let Some((i, item)) = claim() {
                        if tx.send((i, work(item, &mut scratch))).is_err() {
                            break;
                        }
                    }
                });
            }
            drive(tx);
        });
    }
    first_err.map_or(Ok(()), Err)
}

fn worker_loop(shared: Arc<PoolShared>) {
    loop {
        let job = {
            let mut state = shared.state.lock().unwrap();
            loop {
                if let Some(job) = state.queue.pop_front() {
                    break job;
                }
                state = shared.available.wait(state).unwrap();
            }
        };
        job();
    }
}

struct ScopeState {
    pending: Mutex<usize>,
    /// Signalled when `pending` drops to zero.
    done: Condvar,
    /// First panic payload from any task in this scope.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

/// Scoped task spawner handed to the closure of [`WorkerPool::scope`].
///
/// `'env` is invariant and covers every borrow a spawned closure may
/// capture; the scope's completion barrier guarantees those borrows
/// outlive the tasks.
pub struct PoolScope<'pool, 'env> {
    pool: &'pool WorkerPool,
    state: Arc<ScopeState>,
    _env: PhantomData<&'env mut &'env ()>,
}

impl<'env> PoolScope<'_, 'env> {
    /// Submit a task to the pool. The closure may borrow from the
    /// environment of the enclosing [`WorkerPool::scope`] call; it runs
    /// on some pool worker, and the scope will not return before it
    /// completes. Panics are captured and resumed by the scope.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'env,
    {
        *self.state.pending.lock().unwrap() += 1;
        let state = Arc::clone(&self.state);
        let job: Box<dyn FnOnce() + Send + 'env> = Box::new(f);
        // SAFETY: the completion barrier in `WorkerPool::scope` blocks
        // until `pending == 0` — even when the scope closure panics —
        // so this task, and every borrow with lifetime 'env it holds,
        // is finished before 'env can end. The lifetime is erased only
        // for transport through the 'static job queue.
        let job: Job = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Box<dyn FnOnce() + Send>>(job)
        };
        self.pool.submit(Box::new(move || {
            if let Err(payload) = catch_unwind(AssertUnwindSafe(job)) {
                state.panic.lock().unwrap().get_or_insert(payload);
            }
            let mut pending = state.pending.lock().unwrap();
            *pending -= 1;
            if *pending == 0 {
                state.done.notify_all();
            }
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn scope_waits_for_all_tasks() {
        let pool = WorkerPool::new();
        let counter = AtomicUsize::new(0);
        pool.scope(4, |scope| {
            for _ in 0..64 {
                scope.spawn(|| {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn tasks_can_borrow_the_environment() {
        let pool = WorkerPool::new();
        let data: Vec<usize> = (0..100).collect();
        let next = AtomicUsize::new(0);
        let total = Mutex::new(0usize);
        pool.scope(3, |scope| {
            for _ in 0..3 {
                scope.spawn(|| {
                    let mut local = 0;
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(v) = data.get(i) else { break };
                        local += v;
                    }
                    *total.lock().unwrap() += local;
                });
            }
        });
        assert_eq!(total.into_inner().unwrap(), 4950);
    }

    #[test]
    fn pool_reuses_workers_across_scopes() {
        let pool = WorkerPool::new();
        pool.scope(2, |scope| scope.spawn(|| {}));
        let after_first = pool.worker_count();
        pool.scope(2, |scope| scope.spawn(|| {}));
        assert_eq!(pool.worker_count(), after_first, "no new threads spawned");
        pool.scope(4, |scope| scope.spawn(|| {}));
        assert!(pool.worker_count() >= 4, "pool grows on demand");
    }

    #[test]
    fn task_panic_propagates_after_drain() {
        let pool = WorkerPool::new();
        let completed = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(2, |scope| {
                scope.spawn(|| panic!("task boom"));
                for _ in 0..8 {
                    scope.spawn(|| {
                        completed.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        }));
        assert!(result.is_err(), "panic must propagate to the caller");
        // The barrier drained every other task before unwinding.
        assert_eq!(completed.load(Ordering::Relaxed), 8);
        // The pool survives a panicked scope.
        let ok = AtomicUsize::new(0);
        pool.scope(2, |scope| {
            scope.spawn(|| {
                ok.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(ok.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn concurrent_scopes_share_one_pool() {
        let pool = Arc::new(WorkerPool::new());
        pool.ensure_workers(4);
        let total = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let pool = Arc::clone(&pool);
                let total = Arc::clone(&total);
                std::thread::spawn(move || {
                    pool.scope(2, |scope| {
                        for _ in 0..16 {
                            let total = Arc::clone(&total);
                            scope.spawn(move || {
                                total.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    });
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(total.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn fan_out_hands_every_result_to_the_consumer() {
        let items: Vec<usize> = (0..100).collect();
        for threads in [1, 4] {
            let mut seen = Vec::new();
            let done = fan_out(
                threads,
                &items,
                &CancelToken::none(),
                |&i, _| i * 2,
                |&i, doubled| {
                    assert_eq!(doubled, i * 2);
                    seen.push(i);
                    Ok::<(), ()>(())
                },
            );
            assert_eq!(done, Ok(()));
            seen.sort_unstable();
            assert_eq!(seen, items, "threads={threads}");
        }
    }

    #[test]
    fn fan_out_stops_at_the_first_consumer_error() {
        let items: Vec<usize> = (0..1000).collect();
        for threads in [1, 4] {
            let caller = std::thread::current().id();
            let failed = AtomicBool::new(false);
            let started = AtomicUsize::new(0);
            let mut consumed = 0;
            let done = fan_out(
                threads,
                &items,
                &CancelToken::none(),
                |_, _| {
                    started.fetch_add(1, Ordering::Relaxed);
                    // Helpers hold their item until the consumer has
                    // failed, so the run cannot drain before the error.
                    while std::thread::current().id() != caller && !failed.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                },
                |_, ()| {
                    consumed += 1;
                    failed.store(true, Ordering::SeqCst);
                    Err("stop")
                },
            );
            assert_eq!(done, Err("stop"), "threads={threads}");
            assert_eq!(consumed, 1, "no result is consumed after the error");
            assert!(
                started.load(Ordering::Relaxed) < items.len(),
                "threads={threads}: workers kept starting items"
            );
        }
    }

    #[test]
    fn fan_out_starts_nothing_once_cancelled() {
        let items: Vec<usize> = (0..64).collect();
        let token = CancelToken::none();
        token.cancel();
        for threads in [1, 4] {
            let started = AtomicUsize::new(0);
            let done = fan_out(
                threads,
                &items,
                &token,
                |_, _| {
                    started.fetch_add(1, Ordering::Relaxed);
                },
                |_, ()| Ok::<(), ()>(()),
            );
            assert_eq!(done, Ok(()));
            assert_eq!(started.load(Ordering::Relaxed), 0, "threads={threads}");
        }
    }

    #[test]
    fn global_pool_is_a_singleton() {
        let a = WorkerPool::global() as *const _;
        let b = WorkerPool::global() as *const _;
        assert_eq!(a, b);
    }
}
