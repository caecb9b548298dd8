//! Offline API-compatible subset of the `threadpool` crate.
//!
//! This workspace builds without network access, so the worker-pool
//! surface the garbler service uses is reimplemented here over the
//! standard library: [`ThreadPool::new`], [`ThreadPool::execute`],
//! [`ThreadPool::join`], [`ThreadPool::active_count`] and
//! [`ThreadPool::queued_count`]. Swap this crate's `path` dependency
//! for the registry `threadpool` to get the real thing (the API
//! surface is drop-in compatible).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;

type Job = Box<dyn FnOnce() + Send + 'static>;

struct Inner {
    queue: Mutex<VecDeque<Job>>,
    /// Woken when a job is queued or shutdown is flagged.
    job_cv: Condvar,
    /// Woken when a worker finishes a job (for [`ThreadPool::join`]).
    done_cv: Condvar,
    queued: AtomicUsize,
    active: AtomicUsize,
    shutdown: AtomicBool,
}

/// A fixed-size pool of worker threads executing queued closures.
///
/// Jobs submitted with [`execute`](Self::execute) run in FIFO order on
/// the first free worker. Dropping the pool *detaches* the workers
/// (matching the registry crate): queued jobs still drain, but nothing
/// waits for them — call [`join`](Self::join) first when completion
/// matters. Detach-on-drop also means a wedged job can never hang the
/// owner's drop.
pub struct ThreadPool {
    inner: Arc<Inner>,
}

impl ThreadPool {
    /// Creates a pool with `workers` threads.
    ///
    /// # Panics
    /// Panics when `workers` is zero.
    pub fn new(workers: usize) -> Self {
        assert!(workers > 0, "a thread pool needs at least one worker");
        let inner = Arc::new(Inner {
            queue: Mutex::new(VecDeque::new()),
            job_cv: Condvar::new(),
            done_cv: Condvar::new(),
            queued: AtomicUsize::new(0),
            active: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
        });
        for _ in 0..workers {
            let inner = Arc::clone(&inner);
            thread::spawn(move || worker_loop(&inner));
        }
        Self { inner }
    }

    /// Queues `job` for execution on the next free worker.
    pub fn execute<F>(&self, job: F)
    where
        F: FnOnce() + Send + 'static,
    {
        // queued is bumped before the job is visible so observers never
        // see a job that counts nowhere.
        self.inner.queued.fetch_add(1, Ordering::SeqCst);
        self.inner.queue.lock().unwrap().push_back(Box::new(job));
        self.inner.job_cv.notify_one();
    }

    /// Blocks until every queued and running job has finished.
    pub fn join(&self) {
        let mut queue = self.inner.queue.lock().unwrap();
        while !queue.is_empty() || self.inner.active.load(Ordering::SeqCst) > 0 {
            queue = self.inner.done_cv.wait(queue).unwrap();
        }
    }

    /// Number of jobs currently executing on a worker.
    pub fn active_count(&self) -> usize {
        self.inner.active.load(Ordering::SeqCst)
    }

    /// Number of jobs queued and not yet picked up by a worker.
    pub fn queued_count(&self) -> usize {
        self.inner.queued.load(Ordering::SeqCst)
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        // Detach: flag shutdown and wake idle workers so they exit once
        // the queue drains. Never join — a wedged job must not hang us.
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.inner.job_cv.notify_all();
    }
}

fn worker_loop(inner: &Inner) {
    loop {
        let job = {
            let mut queue = inner.queue.lock().unwrap();
            loop {
                if let Some(job) = queue.pop_front() {
                    // Count the job as active before it stops counting
                    // as queued, both under the lock join() checks
                    // with: otherwise join() can see an empty queue and
                    // no active job while this one is about to run.
                    inner.active.fetch_add(1, Ordering::SeqCst);
                    inner.queued.fetch_sub(1, Ordering::SeqCst);
                    break job;
                }
                if inner.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                queue = inner.job_cv.wait(queue).unwrap();
            }
        };
        // A panicking job takes down its worker thread only; the
        // counters stay consistent via this scope guard pattern.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
        inner.active.fetch_sub(1, Ordering::SeqCst);
        // join() holds the queue lock while checking; take it here so
        // the notify cannot race between its check and its wait.
        let _guard = inner.queue.lock().unwrap();
        inner.done_cv.notify_all();
        drop(_guard);
        if result.is_err() {
            // Swallow the panic (registry crate restarts the worker; we
            // keep the thread, which amounts to the same pool size).
            continue;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn executes_all_jobs_and_join_waits() {
        let pool = ThreadPool::new(4);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..64 {
            let counter = Arc::clone(&counter);
            pool.execute(move || {
                counter.fetch_add(1, Ordering::SeqCst);
            });
        }
        pool.join();
        assert_eq!(counter.load(Ordering::SeqCst), 64);
        assert_eq!(pool.active_count(), 0);
        assert_eq!(pool.queued_count(), 0);
    }

    /// join() must not return while a popped job has yet to run: the
    /// worker has to count the job active before it releases the queue
    /// lock, or join() can find an empty queue and nothing active.
    #[test]
    fn join_waits_for_a_job_a_worker_just_popped() {
        for _ in 0..3_000 {
            let pool = ThreadPool::new(2);
            let counter = Arc::new(AtomicUsize::new(0));
            for _ in 0..4 {
                let counter = Arc::clone(&counter);
                pool.execute(move || {
                    counter.fetch_add(1, Ordering::SeqCst);
                });
            }
            pool.join();
            assert_eq!(counter.load(Ordering::SeqCst), 4);
        }
    }

    #[test]
    fn queued_count_reflects_backlog_past_pool_size() {
        let pool = ThreadPool::new(1);
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (started_tx, started_rx) = mpsc::channel::<()>();
        pool.execute(move || {
            started_tx.send(()).unwrap();
            release_rx.recv().unwrap();
        });
        started_rx.recv().unwrap();
        // The single worker is occupied; these two must queue.
        pool.execute(|| {});
        pool.execute(|| {});
        assert_eq!(pool.active_count(), 1);
        assert_eq!(pool.queued_count(), 2);
        release_tx.send(()).unwrap();
        pool.join();
        assert_eq!(pool.queued_count(), 0);
    }

    #[test]
    fn panicking_job_does_not_poison_the_pool() {
        let pool = ThreadPool::new(2);
        pool.execute(|| panic!("job blew up"));
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..8 {
            let counter = Arc::clone(&counter);
            pool.execute(move || {
                counter.fetch_add(1, Ordering::SeqCst);
            });
        }
        pool.join();
        assert_eq!(counter.load(Ordering::SeqCst), 8);
        assert_eq!(pool.active_count(), 0);
    }

    #[test]
    fn drop_detaches_without_waiting_for_a_wedged_job() {
        let pool = ThreadPool::new(1);
        let (never_tx, never_rx) = mpsc::channel::<()>();
        pool.execute(move || {
            // Wedge forever (the sender lives in this closure's sibling
            // variable below, kept alive past the drop).
            let _ = never_rx.recv_timeout(Duration::from_secs(3600));
        });
        std::thread::sleep(Duration::from_millis(20));
        drop(pool); // must return immediately, not join the wedged worker
        drop(never_tx);
    }
}
