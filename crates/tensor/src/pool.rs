//! Persistent work-stealing worker pool: the workspace's one parallel
//! runtime.
//!
//! Every op body is serial; the compiled execution plan is the only
//! caller that fans out, dealing the independent steps of one
//! dependency level to this pool. Worker threads are spawned **once**
//! (lazily, for [`WorkerPool::global`]) and reused across forwards, so
//! no forward pays a thread spawn — the per-call scoped threads the
//! ops used to spawn made the planned path 0.30x as fast at 2 threads
//! and 0.09x at 8 before this pool existed.
//!
//! Scheduling is work-stealing over per-worker deques: a submitted
//! batch is dealt round-robin across the deques, each worker drains its
//! own deque from the front and steals from the back of a sibling's
//! deque when its own runs dry, and the submitting caller participates
//! too ([`WorkerPool::help`]) so no thread idles while work remains.
//!
//! The crate forbids `unsafe`, so tasks are `'static` boxed closures
//! ([`PoolTask`]); callers share state with tasks through `Arc`. A
//! panicking task is caught on the worker, the first payload is kept,
//! and [`BatchHandle::wait`] resumes the unwind on the caller — the
//! worker threads themselves never die.

use crate::exec::default_threads;
use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread;

/// Monotonic scheduling counters for one [`WorkerPool`], snapshot via
/// [`WorkerPool::stats`]. Where each executed task is counted tells you
/// how work actually flowed: `own_tasks` ran on the worker whose deque
/// they were dealt to, `stolen_tasks` were claimed cross-deque by an
/// idle worker, `helped_tasks` ran on a submitting caller inside
/// [`WorkerPool::help`], and `inline_tasks` ran inline because the pool
/// has zero workers. For any quiesced pool,
/// `own + stolen + helped + inline` equals the total tasks submitted —
/// the conservation law the pool tests and the verify fixtures lean on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Batches accepted by [`WorkerPool::submit`].
    pub batches: u64,
    /// Tasks run inline on the submitter (zero-worker pool).
    pub inline_tasks: u64,
    /// Tasks a worker popped from its own deque.
    pub own_tasks: u64,
    /// Tasks a worker stole from a sibling's deque.
    pub stolen_tasks: u64,
    /// Tasks a helping caller drained via [`WorkerPool::help`].
    pub helped_tasks: u64,
}

/// Shared counter cells behind [`PoolStats`]. All increments and reads
/// are `Relaxed`: these are statistics, not publication — no reader
/// infers data visibility from them.
#[derive(Default)]
struct Stats {
    batches: AtomicU64,
    inline: AtomicU64,
    own: AtomicU64,
    stolen: AtomicU64,
    helped: AtomicU64,
}

impl Stats {
    fn bump(cell: &AtomicU64) {
        cell.fetch_add(1, Ordering::Relaxed);
    }
}

/// A unit of work a [`WorkerPool`] executes: a boxed, sendable,
/// `'static` closure. Borrowed state must be shared via `Arc`.
pub type PoolTask = Box<dyn FnOnce() + Send + 'static>;

/// Per-batch completion state shared between the queued tasks and the
/// caller's [`BatchHandle`].
struct BatchState {
    /// Tasks not yet finished (decremented *after* a task runs or
    /// panics, so a zero count means every task's effects are visible).
    remaining: Mutex<usize>,
    done: Condvar,
    /// First panic payload raised by a task of this batch.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl BatchState {
    fn new(tasks: usize) -> Arc<Self> {
        Arc::new(BatchState {
            remaining: Mutex::new(tasks),
            done: Condvar::new(),
            panic: Mutex::new(None),
        })
    }

    /// Runs one task of this batch, catching panics and counting it
    /// finished afterwards (the order matters: the task's captures are
    /// dropped before the count reaches zero, so a waiter observing
    /// zero knows every task-held `Arc` is released).
    fn run_task(self: &Arc<Self>, task: PoolTask) {
        if let Err(payload) = catch_unwind(AssertUnwindSafe(task)) {
            let mut slot = lock(&self.panic);
            if slot.is_none() {
                *slot = Some(payload);
            }
        }
        let mut remaining = lock(&self.remaining);
        *remaining = remaining.saturating_sub(1);
        if *remaining == 0 {
            self.done.notify_all();
        }
    }
}

/// Waits for one submitted batch; returned by [`WorkerPool::submit`].
#[must_use = "dropping a BatchHandle without waiting loses completion and panic signals"]
pub struct BatchHandle {
    state: Arc<BatchState>,
}

impl BatchHandle {
    /// Blocks until every task of the batch has finished. If any task
    /// panicked, the first panic is re-raised here on the caller.
    pub fn wait(self) {
        let mut remaining = lock(&self.state.remaining);
        while *remaining > 0 {
            remaining = self
                .state
                .done
                .wait(remaining)
                .unwrap_or_else(PoisonError::into_inner);
        }
        drop(remaining);
        if let Some(payload) = lock(&self.state.panic).take() {
            std::panic::resume_unwind(payload);
        }
    }
}

/// Wake/shutdown state guarded by one mutex; `generation` is bumped on
/// every submit so sleeping workers can tell a real wake from a
/// spurious one.
struct Gate {
    generation: u64,
    shutdown: bool,
}

/// A queued task plus the batch it reports completion to, so a stolen
/// task still wakes the right waiter.
type QueuedTask = (PoolTask, Arc<BatchState>);

struct Shared {
    /// One deque per *configured* worker slot. May exceed the number of
    /// live worker threads when a spawn failed: tasks dealt into an
    /// unowned deque are still drained, because both [`Shared::claim`]
    /// and [`Shared::steal_any`] scan every deque.
    deques: Vec<Mutex<VecDeque<QueuedTask>>>,
    gate: Mutex<Gate>,
    work: Condvar,
    stats: Stats,
}

impl Shared {
    /// Claims one task for worker `me`: own deque from the front,
    /// then steal from the back of the others.
    fn claim(&self, me: usize) -> Option<QueuedTask> {
        if let Some(own) = self.deques.get(me) {
            if let Some(t) = lock(own).pop_front() {
                Stats::bump(&self.stats.own);
                return Some(t);
            }
        }
        let n = self.deques.len();
        for k in 1..=n {
            let victim = (me + k) % n;
            if victim == me {
                continue;
            }
            if let Some(t) = lock(&self.deques[victim]).pop_back() {
                Stats::bump(&self.stats.stolen);
                return Some(t);
            }
        }
        None
    }

    /// Claims one task for an external helper (the submitting caller):
    /// steals from the back of any deque.
    fn steal_any(&self) -> Option<QueuedTask> {
        for deque in &self.deques {
            if let Some(t) = lock(deque).pop_back() {
                return Some(t);
            }
        }
        None
    }
}

fn worker_loop(shared: Arc<Shared>, me: usize) {
    let mut seen_generation = 0u64;
    loop {
        if let Some((task, batch)) = shared.claim(me) {
            batch.run_task(task);
            continue;
        }
        let mut gate = lock(&shared.gate);
        loop {
            if gate.shutdown {
                return;
            }
            if gate.generation != seen_generation {
                seen_generation = gate.generation;
                break;
            }
            gate = shared
                .work
                .wait(gate)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// A persistent pool of worker threads executing batches of independent
/// tasks with work stealing. See the module docs for the design.
///
/// # Example
///
/// ```
/// use rtoss_tensor::pool::WorkerPool;
/// use std::sync::atomic::{AtomicUsize, Ordering};
/// use std::sync::Arc;
///
/// let pool = WorkerPool::new(2);
/// let hits = Arc::new(AtomicUsize::new(0));
/// let tasks = (0..8)
///     .map(|_| {
///         let hits = Arc::clone(&hits);
///         Box::new(move || {
///             hits.fetch_add(1, Ordering::Relaxed);
///         }) as Box<dyn FnOnce() + Send>
///     })
///     .collect();
/// let batch = pool.submit(tasks);
/// pool.help(); // the caller works too
/// batch.wait();
/// assert_eq!(hits.load(Ordering::Relaxed), 8);
/// ```
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<thread::JoinHandle<()>>,
    /// Rotates the deque a batch starts dealing into, so small batches
    /// don't always land on worker 0.
    next_deque: AtomicUsize,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.handles.len())
            .finish()
    }
}

impl WorkerPool {
    /// Spawns a pool with `workers` persistent threads. Zero workers is
    /// allowed: [`run_batch`](Self::run_batch) then executes inline on
    /// the caller.
    ///
    /// If the OS refuses to spawn some worker threads (resource
    /// exhaustion), the pool degrades to the threads that did start
    /// rather than panicking: the unowned deques still get dealt tasks,
    /// and work-stealing (plus the caller's [`help`](Self::help))
    /// drains them. With zero live workers, batches run inline.
    pub fn new(workers: usize) -> Self {
        let shared = Arc::new(Shared {
            deques: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            gate: Mutex::new(Gate {
                generation: 0,
                shutdown: false,
            }),
            work: Condvar::new(),
            stats: Stats::default(),
        });
        let handles = (0..workers)
            .filter_map(|i| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("rtoss-pool-{i}"))
                    .spawn(move || worker_loop(shared, i))
                    .ok()
            })
            .collect();
        WorkerPool {
            shared,
            handles,
            next_deque: AtomicUsize::new(0),
        }
    }

    /// Snapshot of the scheduling counters. Counters are monotonic and
    /// only exact once in-flight batches have been waited on.
    pub fn stats(&self) -> PoolStats {
        let s = &self.shared.stats;
        PoolStats {
            batches: s.batches.load(Ordering::Relaxed),
            inline_tasks: s.inline.load(Ordering::Relaxed),
            own_tasks: s.own.load(Ordering::Relaxed),
            stolen_tasks: s.stolen.load(Ordering::Relaxed),
            helped_tasks: s.helped.load(Ordering::Relaxed),
        }
    }

    /// The process-wide pool, spawned on first use with
    /// [`default_threads`]` - 1` workers (the calling thread is the
    /// remaining worker: it always participates via
    /// [`help`](Self::help)). On a single-core host — or with
    /// `RTOSS_THREADS=1` — the pool has zero workers and batch
    /// execution stays inline, paying no synchronisation at all.
    pub fn global() -> &'static WorkerPool {
        static GLOBAL: OnceLock<WorkerPool> = OnceLock::new();
        GLOBAL.get_or_init(|| WorkerPool::new(default_threads().saturating_sub(1)))
    }

    /// Number of persistent worker threads (not counting callers).
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Queues a batch of tasks, dealing them round-robin across the
    /// worker deques, and returns a handle to wait on. The caller
    /// should [`help`](Self::help) before waiting so it contributes
    /// instead of idling. With zero workers the tasks run inline here.
    pub fn submit(&self, tasks: Vec<PoolTask>) -> BatchHandle {
        let state = BatchState::new(tasks.len());
        Stats::bump(&self.shared.stats.batches);
        if self.handles.is_empty() {
            for task in tasks {
                Stats::bump(&self.shared.stats.inline);
                state.run_task(task);
            }
            return BatchHandle { state };
        }
        let n = self.shared.deques.len();
        let start = self.next_deque.fetch_add(1, Ordering::Relaxed);
        for (i, task) in tasks.into_iter().enumerate() {
            let deque = &self.shared.deques[(start + i) % n];
            lock(deque).push_back((task, Arc::clone(&state)));
        }
        let mut gate = lock(&self.shared.gate);
        gate.generation = gate.generation.wrapping_add(1);
        drop(gate);
        self.shared.work.notify_all();
        BatchHandle { state }
    }

    /// Runs queued tasks on the calling thread until every deque is
    /// empty. Tasks may belong to any in-flight batch (the pool is
    /// work-conserving); their completions are reported to their own
    /// batches.
    pub fn help(&self) {
        while let Some((task, batch)) = self.shared.steal_any() {
            Stats::bump(&self.shared.stats.helped);
            batch.run_task(task);
        }
    }

    /// Convenience: submit `tasks`, help drain, and wait. Panics from
    /// tasks are re-raised on the caller.
    pub fn run_batch(&self, tasks: Vec<PoolTask>) {
        let batch = self.submit(tasks);
        self.help();
        batch.wait();
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut gate = lock(&self.shared.gate);
            gate.shutdown = true;
        }
        self.shared.work.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn counting_tasks(n: usize, hits: &Arc<AtomicUsize>) -> Vec<PoolTask> {
        (0..n)
            .map(|_| {
                let hits = Arc::clone(hits);
                Box::new(move || {
                    hits.fetch_add(1, Ordering::Relaxed);
                }) as PoolTask
            })
            .collect()
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let pool = WorkerPool::new(3);
        for batch_size in [0usize, 1, 2, 7, 64] {
            let hits = Arc::new(AtomicUsize::new(0));
            pool.run_batch(counting_tasks(batch_size, &hits));
            assert_eq!(hits.load(Ordering::Relaxed), batch_size);
        }
    }

    #[test]
    fn zero_worker_pool_runs_inline() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.workers(), 0);
        let hits = Arc::new(AtomicUsize::new(0));
        pool.run_batch(counting_tasks(5, &hits));
        assert_eq!(hits.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn pool_is_reusable_across_many_batches() {
        let pool = WorkerPool::new(2);
        let hits = Arc::new(AtomicUsize::new(0));
        for _ in 0..50 {
            pool.run_batch(counting_tasks(4, &hits));
        }
        assert_eq!(hits.load(Ordering::Relaxed), 200);
    }

    #[test]
    fn concurrent_submitters_share_the_pool() {
        let pool = Arc::new(WorkerPool::new(2));
        let hits = Arc::new(AtomicUsize::new(0));
        thread::scope(|s| {
            for _ in 0..4 {
                let pool = Arc::clone(&pool);
                let hits = Arc::clone(&hits);
                s.spawn(move || {
                    for _ in 0..10 {
                        pool.run_batch(counting_tasks(8, &hits));
                    }
                });
            }
        });
        assert_eq!(hits.load(Ordering::Relaxed), 4 * 10 * 8);
    }

    #[test]
    fn task_panic_propagates_to_the_waiter_and_pool_survives() {
        let pool = WorkerPool::new(2);
        let boom: Vec<PoolTask> = vec![Box::new(|| panic!("task exploded"))];
        let caught = catch_unwind(AssertUnwindSafe(|| pool.run_batch(boom)));
        assert!(caught.is_err(), "panic must reach the caller");
        // The pool still works after a task panicked.
        let hits = Arc::new(AtomicUsize::new(0));
        pool.run_batch(counting_tasks(6, &hits));
        assert_eq!(hits.load(Ordering::Relaxed), 6);
    }

    #[test]
    fn global_pool_size_tracks_default_threads() {
        let pool = WorkerPool::global();
        assert_eq!(pool.workers(), default_threads().saturating_sub(1));
        let hits = Arc::new(AtomicUsize::new(0));
        pool.run_batch(counting_tasks(3, &hits));
        assert_eq!(hits.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn stats_conserve_every_task_once() {
        let pool = WorkerPool::new(2);
        let total: usize = [1, 4, 16, 33].iter().sum();
        for batch_size in [1usize, 4, 16, 33] {
            let hits = Arc::new(AtomicUsize::new(0));
            pool.run_batch(counting_tasks(batch_size, &hits));
        }
        let s = pool.stats();
        assert_eq!(s.batches, 4);
        assert_eq!(s.inline_tasks, 0);
        assert_eq!(
            s.own_tasks + s.stolen_tasks + s.helped_tasks,
            total as u64,
            "stats {s:?}"
        );
    }

    #[test]
    fn zero_worker_stats_count_inline() {
        let pool = WorkerPool::new(0);
        let hits = Arc::new(AtomicUsize::new(0));
        pool.run_batch(counting_tasks(7, &hits));
        let s = pool.stats();
        assert_eq!(s.batches, 1);
        assert_eq!(s.inline_tasks, 7);
        assert_eq!(s.own_tasks + s.stolen_tasks + s.helped_tasks, 0);
    }
}
