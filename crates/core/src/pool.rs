//! A persistent worker pool for parallel particle translation.
//!
//! Algorithm 2's translation loop is embarrassingly parallel, but the
//! historical implementation paid a full `std::thread::scope` spawn/join
//! cycle on *every* SMC step — hundreds of thread creations over a
//! [`crate::run_state_sequence_supervised`] of edits. [`WorkerPool`]
//! amortizes that cost:
//! worker threads are spawned once (lazily, on first parallel
//! translation) and reused across steps for the lifetime of the process.
//!
//! Determinism is unaffected by pooling: work items carry their own
//! deterministic per-particle RNG seeds and write to disjoint,
//! pre-assigned output slots, so neither worker scheduling nor pool size
//! can influence results (see the determinism contract on
//! [`crate::run_state_sequence_supervised`]).
//!
//! Every task runs under `catch_unwind`, so a panicking task is reported
//! in its batch's result ([`POOL_PANIC`]) and its worker lives on: the
//! pool keeps its full size for the life of the process.
//!
//! The pool never abandons a task: [`WorkerPool::run_scoped`] returns
//! only once every task of its batch has. A translation under a
//! [`crate::StagePolicy::deadline`] stops itself at the deadline
//! ([`crate::TranslateCtx::deadline`]), so its task returns in time; a
//! translation that never checks the deadline holds its worker, and the
//! batch, until it returns.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

use crate::metrics;

/// The error message reported when worker infrastructure panics outside
/// user translation code (user panics are caught per-particle upstream).
pub(crate) const POOL_PANIC: &str = "translation worker panicked outside user code";

type Task = Box<dyn FnOnce() + Send + 'static>;

/// A scoped task from [`WorkerPool::run_scoped`], pulled off the shared
/// channel by a worker thread; completion is tracked by the batch latch.
struct Job {
    task: Task,
    latch: Arc<Latch>,
}

/// A countdown latch: `run_scoped` blocks on it until every job of the
/// batch has completed (successfully or by panic).
struct Latch {
    /// `(jobs still running or queued, jobs that panicked)`.
    state: Mutex<(usize, usize)>,
    done: Condvar,
}

impl Latch {
    fn new() -> Latch {
        Latch {
            state: Mutex::new((0, 0)),
            done: Condvar::new(),
        }
    }

    fn add_one(&self) {
        self.lock().0 += 1;
    }

    fn complete(&self, panicked: bool) {
        let mut s = self.lock();
        s.0 -= 1;
        if panicked {
            s.1 += 1;
        }
        if s.0 == 0 {
            self.done.notify_all();
        }
    }

    /// Blocks until the count reaches zero; returns the panic count.
    fn wait(&self) -> usize {
        let mut s = self.lock();
        while s.0 > 0 {
            s = self
                .done
                .wait(s)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        s.1
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, (usize, usize)> {
        // A panicking job never holds this lock (completion runs after
        // catch_unwind), so poisoning is spurious; recover the guard.
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// The process-wide pool shared by the SMC runtime.
static GLOBAL: OnceLock<WorkerPool> = OnceLock::new();

/// A fixed-size pool of worker threads with a scoped execution API.
///
/// [`WorkerPool::run_scoped`] accepts borrowing closures (like
/// `std::thread::scope`) and does not return until every one of them has
/// finished executing, so the borrows cannot outlive their referents.
/// Panics inside a job are contained to that job and reported in the
/// batch result.
///
/// Use [`WorkerPool::global`] for the shared process-wide pool that the
/// SMC runtime reuses across steps; construct a private pool only in
/// tests that need a specific worker count.
pub struct WorkerPool {
    sender: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("size", &self.size())
            .finish()
    }
}

impl WorkerPool {
    /// Spawns a pool with `size` worker threads (at least one).
    pub fn new(size: usize) -> WorkerPool {
        let (tx, rx) = channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..size.max(1))
            .map(|i| {
                let rx = Arc::clone(&rx);
                std::thread::Builder::new()
                    .name(format!("smc-worker-{i}"))
                    .spawn(move || worker_loop(&rx))
                    .expect("failed to spawn SMC worker thread")
            })
            .collect();
        WorkerPool {
            sender: Some(tx),
            workers,
        }
    }

    /// The shared process-wide pool, created on first use with one worker
    /// per available hardware thread. This is the pool the SMC runtime
    /// uses, so successive steps of a sequence reuse the same threads.
    pub fn global() -> &'static WorkerPool {
        GLOBAL.get_or_init(|| {
            WorkerPool::new(
                std::thread::available_parallelism()
                    .map(std::num::NonZeroUsize::get)
                    .unwrap_or(1),
            )
        })
    }

    /// Number of worker threads.
    pub fn size(&self) -> usize {
        self.workers.len()
    }

    /// Runs every task to completion on the pool, blocking until all have
    /// finished. Tasks may borrow from the caller's stack, exactly as
    /// with `std::thread::scope`.
    ///
    /// A batch of zero or one tasks runs inline on the calling thread
    /// (dispatch would only add latency).
    ///
    /// # Errors
    ///
    /// Returns an error if any task panicked; the remaining tasks still
    /// run to completion first.
    pub fn run_scoped<'scope>(
        &self,
        tasks: Vec<Box<dyn FnOnce() + Send + 'scope>>,
    ) -> Result<(), String> {
        if tasks.len() <= 1 {
            for task in tasks {
                // Inline tasks count toward pool telemetry too, so task
                // totals don't depend on batch size.
                metrics::note_pool_enqueue(1);
                let start = metrics::clock();
                let outcome = catch_unwind(AssertUnwindSafe(task));
                metrics::note_pool_task(start);
                if outcome.is_err() {
                    return Err(POOL_PANIC.to_string());
                }
            }
            return Ok(());
        }
        metrics::note_pool_enqueue(tasks.len() as u64);
        let latch = Arc::new(Latch::new());
        // Block until the batch drains before returning — on the normal
        // path and if anything below unwinds — so scoped borrows held by
        // in-flight tasks can never dangle.
        struct WaitGuard<'a>(&'a Latch);
        impl Drop for WaitGuard<'_> {
            fn drop(&mut self) {
                self.0.wait();
            }
        }
        let guard = WaitGuard(&latch);
        let sender = self
            .sender
            .as_ref()
            .expect("pool sender present until drop");
        for task in tasks {
            // SAFETY: `WaitGuard` blocks this function from returning (or
            // unwinding past this frame) until the worker has finished
            // running `task`, so every `'scope` borrow it captures strictly
            // outlives its execution. `Box<dyn FnOnce() + Send>` has the
            // same layout for both lifetimes; only the bound is erased.
            let task: Task =
                unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Task>(task) };
            latch.add_one();
            if sender
                .send(Job {
                    task,
                    latch: Arc::clone(&latch),
                })
                .is_err()
            {
                // All workers exited — only possible while the pool is
                // being torn down. Undo this job's count and report.
                latch.complete(false);
                drop(guard);
                return Err("worker pool is shut down".to_string());
            }
        }
        drop(guard); // waits for the batch
        if latch.wait() > 0 {
            Err(POOL_PANIC.to_string())
        } else {
            Ok(())
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the channel ends every worker's receive loop.
        drop(self.sender.take());
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(rx: &Mutex<Receiver<Job>>) {
    loop {
        let work = match rx.lock() {
            Ok(guard) => guard.recv(),
            // Receiver poisoned: a sibling worker panicked while holding
            // the lock (impossible — recv doesn't panic — but be safe).
            Err(_) => return,
        };
        let Ok(Job { task, latch }) = work else {
            return; // channel closed: pool dropped
        };
        let start = metrics::clock();
        let panicked = catch_unwind(AssertUnwindSafe(task)).is_err();
        metrics::note_pool_task(start);
        latch.complete(panicked);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn runs_all_tasks_and_allows_borrows() {
        let pool = WorkerPool::new(3);
        let mut outputs = vec![0usize; 17];
        let inputs: Vec<usize> = (0..17).collect();
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = inputs
            .chunks(4)
            .zip(outputs.chunks_mut(4))
            .map(|(ins, outs)| {
                Box::new(move || {
                    for (i, o) in ins.iter().zip(outs.iter_mut()) {
                        *o = i * i;
                    }
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        pool.run_scoped(tasks).unwrap();
        let expected: Vec<usize> = (0..17).map(|i| i * i).collect();
        assert_eq!(outputs, expected);
    }

    #[test]
    fn panic_in_one_task_is_reported_and_others_complete() {
        let pool = WorkerPool::new(2);
        let completed = AtomicUsize::new(0);
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..6)
            .map(|i| {
                let completed = &completed;
                Box::new(move || {
                    if i == 2 {
                        panic!("boom");
                    }
                    completed.fetch_add(1, Ordering::SeqCst);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        let err = pool.run_scoped(tasks).unwrap_err();
        assert_eq!(err, POOL_PANIC);
        assert_eq!(completed.load(Ordering::SeqCst), 5);
        // The pool survives a panicked batch.
        let ok: Vec<Box<dyn FnOnce() + Send + '_>> = (0..4)
            .map(|_| Box::new(|| {}) as Box<dyn FnOnce() + Send + '_>)
            .collect();
        pool.run_scoped(ok).unwrap();
    }

    #[test]
    fn pool_is_reusable_across_many_batches() {
        let pool = WorkerPool::new(4);
        for round in 0..50 {
            let counter = AtomicUsize::new(0);
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..8)
                .map(|_| {
                    let counter = &counter;
                    Box::new(move || {
                        counter.fetch_add(1, Ordering::SeqCst);
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            pool.run_scoped(tasks).unwrap();
            assert_eq!(counter.load(Ordering::SeqCst), 8, "round {round}");
        }
    }

    #[test]
    fn single_task_batches_run_inline() {
        let pool = WorkerPool::new(2);
        let caller = std::thread::current().id();
        let mut observed = None;
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = vec![Box::new(|| {
            observed = Some(std::thread::current().id());
        })];
        pool.run_scoped(tasks).unwrap();
        assert_eq!(observed, Some(caller));
        pool.run_scoped(Vec::new()).unwrap();
    }

    #[test]
    fn global_pool_is_a_singleton() {
        let a = WorkerPool::global();
        let b = WorkerPool::global();
        assert!(std::ptr::eq(a, b));
        assert!(a.size() >= 1);
        let counter = AtomicUsize::new(0);
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..4)
            .map(|_| {
                let counter = &counter;
                Box::new(move || {
                    counter.fetch_add(1, Ordering::SeqCst);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        a.run_scoped(tasks).unwrap();
        assert_eq!(counter.load(Ordering::SeqCst), 4);
    }

    /// Each task waits until every task of its batch has started, so a
    /// batch of `size` tasks completes in time only when `size` workers
    /// run it at once. The first batch thus puts one panicking task on
    /// every worker, and the second shows every worker still runs.
    #[test]
    fn every_worker_survives_a_batch_of_panics() {
        let pool = WorkerPool::new(3);
        let size = pool.size();
        // Returns the batch's result and how many of its tasks saw all
        // `size` start within the time limit.
        let rendezvous = |panics: bool| -> (Result<(), String>, usize) {
            let started = (Mutex::new(0usize), Condvar::new());
            let met = AtomicUsize::new(0);
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..size)
                .map(|_| {
                    let (started, met) = (&started, &met);
                    Box::new(move || {
                        let (count, all_started) = started;
                        let mut n = count.lock().unwrap();
                        *n += 1;
                        all_started.notify_all();
                        let (n, wait) = all_started
                            .wait_timeout_while(n, std::time::Duration::from_secs(10), |n| {
                                *n < size
                            })
                            .unwrap();
                        drop(n);
                        if !wait.timed_out() {
                            met.fetch_add(1, Ordering::SeqCst);
                        }
                        assert!(!panics, "every task of this batch panics");
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            let result = pool.run_scoped(tasks);
            (result, met.load(Ordering::SeqCst))
        };
        assert_eq!(rendezvous(true), (Err(POOL_PANIC.to_string()), size));
        assert_eq!(rendezvous(false), (Ok(()), size), "a worker was lost");
    }
}
