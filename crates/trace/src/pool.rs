//! Persistent worker pool for replay fan-out.
//!
//! [`ReplayPool`] owns a set of lazily spawned worker threads that live for
//! the pool's lifetime — across replay calls — instead of being re-spawned
//! per grouped replay the way the scoped-thread driver used to be.  Each
//! worker owns one [`TraceReplayer`], so the pooled execution engines (MMU
//! models, per-socket page-table-line caches) stay warm across jobs: a
//! replay dispatched to a warm pool pays neither thread spawn nor engine
//! construction.
//!
//! Jobs are boxed closures over `Arc`-shared state (the crate forbids
//! `unsafe`, so there are no borrowed scoped jobs); a job receives the
//! worker's replayer by `&mut` and communicates results back through
//! whatever channel it captured.  A panicking job is caught at the worker
//! boundary: the worker survives and keeps serving jobs, and the caller
//! observes the loss through its result channel closing without a send.

use crate::replay::TraceReplayer;
use mitosis_sim::Observer;
use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A unit of work dispatched to a pool worker, run with the worker's
/// persistent [`TraceReplayer`].
pub(crate) type PoolJob = Box<dyn FnOnce(&mut TraceReplayer) + Send + 'static>;

/// The queue the workers drain, behind one mutex with a condvar.
#[derive(Default)]
struct PoolQueue {
    jobs: VecDeque<PoolJob>,
    shutdown: bool,
}

#[derive(Default)]
struct PoolShared {
    queue: Mutex<PoolQueue>,
    available: Condvar,
}

/// A persistent, lazily grown pool of replay worker threads.
///
/// Owned by [`ReplaySession`](crate::ReplaySession); threads are spawned on
/// demand (never per call) and joined when the pool is dropped.
pub(crate) struct ReplayPool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
}

impl ReplayPool {
    /// A pool with no threads yet; workers are spawned on first use.
    pub(crate) fn new() -> Self {
        ReplayPool {
            shared: Arc::new(PoolShared::default()),
            workers: Vec::new(),
        }
    }

    /// Ensures at least `target` worker threads exist.  The pool never
    /// shrinks: a later smaller request leaves the extra workers idle on
    /// the condvar, where they cost nothing.
    pub(crate) fn ensure_workers(&mut self, target: usize) {
        while self.workers.len() < target {
            let shared = Arc::clone(&self.shared);
            self.workers
                .push(std::thread::spawn(move || worker_loop(&shared)));
        }
    }

    /// Total worker threads spawned over the pool's lifetime.  Repeated
    /// replays on a warm pool leave this constant — the no-per-call-spawn
    /// property the API tests pin.
    pub(crate) fn threads_spawned(&self) -> usize {
        self.workers.len()
    }

    /// Enqueues `job` for the next free worker.
    pub(crate) fn submit(&self, job: PoolJob) {
        let mut queue = self
            .shared
            .queue
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        queue.jobs.push_back(job);
        drop(queue);
        self.shared.available.notify_one();
    }
}

impl Default for ReplayPool {
    fn default() -> Self {
        ReplayPool::new()
    }
}

// Manual `Debug`: the queued jobs are opaque closures.
impl fmt::Debug for ReplayPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ReplayPool")
            .field("threads_spawned", &self.workers.len())
            .finish_non_exhaustive()
    }
}

impl Drop for ReplayPool {
    fn drop(&mut self) {
        {
            let mut queue = self
                .shared
                .queue
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            queue.shutdown = true;
        }
        self.shared.available.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// The worker body: drain jobs until shutdown, keeping one warm
/// [`TraceReplayer`] (and hence one pooled engine) for the thread's whole
/// life.  Its engine never shards live runs: the pool is the parallel
/// layer.
fn worker_loop(shared: &PoolShared) {
    let mut replayer = TraceReplayer::pool_worker();
    loop {
        let job = {
            let mut queue = shared
                .queue
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            loop {
                if let Some(job) = queue.jobs.pop_front() {
                    break job;
                }
                if queue.shutdown {
                    return;
                }
                queue = shared
                    .available
                    .wait(queue)
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
            }
        };
        // A panicking job must not take the worker (and its warm engine)
        // down with it; the caller observes the loss through its result
        // channel.  Retrying with the surviving replayer is safe: every
        // replay starts with an engine reset.
        let _ = catch_unwind(AssertUnwindSafe(|| job(&mut replayer)));
        // Drop whatever observer the job installed so recorders are not
        // kept alive (and unflushed) by an idle worker.
        replayer.set_observer(Observer::none());
        replayer.set_observer_track(0);
    }
}
