//! The shared batch-execution core: a long-lived thread pool over one FIFO task queue.
//!
//! The campaign engine (`tsc3d-campaign`, which also runs the paper's Figure-5/Table-2
//! comparisons), the evaluation service (`tsc3d-serve`, for its jobs and its HTTP
//! connections), the load generator (`tsc3d-loadgen`) and the trace attack's kernel
//! extraction (`tsc3d-sca`) all execute through one scheduler. The serve daemon needs a
//! *persistent* executor, so the pool is an explicit [`Pool`] value with long-lived
//! workers. The crate sits below every analysis crate of the workspace, whose long loops
//! poll its cancel tokens; `tsc3d::exec` re-exports it unchanged. In the pool:
//!
//! * one shared queue holds every accepted task, and workers take the oldest first, so
//!   tasks start in submission order,
//! * idle workers park on a condvar and wake on submission,
//! * [`Pool::submit`] enqueues fire-and-forget tasks (the serve daemon's job dispatch),
//! * [`Pool::run_batch`] runs a vector of jobs and returns their results in job order —
//!   the calling thread *helps execute* while it waits, so batches nested inside pool
//!   tasks (a campaign job running on the serve pool) can never deadlock, and
//! * [`Pool::shutdown`] drains gracefully: submissions are refused, every task already
//!   accepted still runs, then the workers are joined.
//!
//! Batch results are written into per-job slots, so the returned vector is in job order
//! regardless of worker count or interleaving — callers observe bit-identical results
//! for 1 and N workers.
//!
//! PR 9 adds the fault-tolerance layer: cooperative cancellation ([`CancelToken`],
//! [`checkpoint`]), worker **supervision** (a panic that unwinds a worker loop is counted
//! in `tsc3d_exec_panics_total` and the worker is respawned in place, so the pool never
//! degrades), and the deterministic fault-injection harness ([`fault`], [`fault_point!`]).
//!
//! The one thread user beside the pool is the flow budget ([`lanes`]): a running flow
//! speculates ahead on one scoped helper thread of its own while the process-wide count
//! of threads doing flow work (each flow's own thread included) is below the core count.
//! The budget owns no threads and queues nothing; a flow that finds it full runs its
//! serial schedule.
//!
//! Work shared across jobs is kept in [`LruCache`], the one bounded LRU map of the
//! workspace: serve's result cache and the sca attack's kernel memo.

#![warn(missing_docs)]

pub mod cache;
pub mod cancel;
pub mod fault;
pub mod lanes;

pub use cache::LruCache;
pub use cancel::{checkpoint, CancelReason, CancelToken, Interrupt};
pub use fault::{FaultAction, FaultPlan, FaultRecord, FaultSpec, InjectedFault};
pub use lanes::{flow_threads, FlowThread, Helpers, Speculation};

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;

/// The raw fault-injection hook: `fault_point!("site")` expands to
/// [`fault::check`]`("site")` and returns its `Result<(), InjectedFault>`.
///
/// Prefer [`checkpoint`] where a [`CancelToken`] is in scope — it runs the
/// fault hook *and* the cancellation check in the documented order. The bare
/// macro is for sites that have no token (e.g. inside the pool itself).
#[macro_export]
macro_rules! fault_point {
    ($site:literal) => {
        $crate::fault::check($site)
    };
}

/// The workspace-wide panic counter (`tsc3d_exec_panics_total`): contained
/// task panics plus supervised worker-loop panics.
fn panics_total() -> &'static tsc3d_obs::Counter {
    static COUNTER: OnceLock<tsc3d_obs::Counter> = OnceLock::new();
    COUNTER.get_or_init(|| {
        tsc3d_obs::global().counter(
            "tsc3d_exec_panics_total",
            "Pool task panics contained (and worker-loop panics survived by respawn)",
        )
    })
}

/// A unit of pool work.
type Task = Box<dyn FnOnce() + Send + 'static>;

/// Error of [`Pool::submit`]: the pool is draining (or drained) and accepts no new tasks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolClosed;

impl std::fmt::Display for PoolClosed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "the pool is shutting down and accepts no new tasks")
    }
}

impl std::error::Error for PoolClosed {}

/// The task queue plus the drain flag, guarded by one mutex so a submission can never
/// race past the drain decision (a task either lands in the queue before draining is
/// observable — and therefore runs — or is refused).
struct Queue {
    tasks: VecDeque<Task>,
    draining: bool,
}

/// State shared between the pool handle and its workers.
struct Shared {
    queue: Mutex<Queue>,
    /// Parked idle workers wait here; submissions and shutdown notify it.
    work_available: Condvar,
    /// Number of worker threads (a supervised respawn keeps it).
    threads: usize,
    /// Tasks currently executing (on worker threads or batch helpers).
    active: AtomicUsize,
    /// Tasks whose closure panicked (the panic is contained; for fire-and-forget tasks it
    /// is recorded here, for batch tasks it is additionally re-raised at the batch call
    /// site). Worker-loop panics survived by a supervised respawn count here too.
    panicked: AtomicU64,
    /// Worker thread handles. Lives in the shared state (not the [`Pool`] handle) so a
    /// supervised respawn can register its replacement thread for the shutdown join.
    handles: Mutex<Vec<JoinHandle<()>>>,
    /// Scheduler-internal counters, snapshotted by [`Pool::stats`].
    stats: Stats,
}

/// Scheduler-internal counters (all relaxed; exact totals, approximate ordering).
struct Stats {
    /// Times a worker parked on the condvar because the queue was empty.
    parks: AtomicU64,
    /// Times a parked worker woke up.
    unparks: AtomicU64,
    /// Tasks executed to completion (including contained panics).
    executed: AtomicU64,
    /// Busy nanoseconds per worker; the extra last slot aggregates non-worker
    /// threads (batch helpers, drain).
    busy_ns: Vec<AtomicU64>,
}

impl Shared {
    /// Takes the oldest queued task, parking while the queue is empty. Returns `None`
    /// only when the pool is draining and the queue is empty.
    fn next_task(&self) -> Option<Task> {
        let mut queue = self.queue.lock().expect("task queue");
        loop {
            if let Some(task) = queue.tasks.pop_front() {
                return Some(task);
            }
            if queue.draining {
                return None;
            }
            self.stats.parks.fetch_add(1, Ordering::Relaxed);
            queue = self
                .work_available
                .wait(queue)
                .expect("task queue poisoned");
            self.stats.unparks.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Takes the oldest queued task without parking — the batch caller's help path and
    /// the shutdown drain.
    fn try_pop(&self) -> Option<Task> {
        self.queue.lock().expect("task queue").tasks.pop_front()
    }

    /// The `busy_ns` slot of non-worker threads (batch helpers, drain).
    fn helper_slot(&self) -> usize {
        self.threads
    }

    /// Runs one task, containing a panic so a misbehaving job cannot take down a
    /// long-lived worker (batch tasks additionally capture the payload and re-raise it at
    /// the batch call site). `slot` attributes the busy time: the worker's index, or
    /// [`Shared::helper_slot`] for non-worker threads.
    fn run_task(&self, slot: usize, task: Task) {
        let start = Instant::now();
        self.active.fetch_add(1, Ordering::Relaxed);
        if catch_unwind(AssertUnwindSafe(task)).is_err() {
            self.panicked.fetch_add(1, Ordering::Relaxed);
            panics_total().inc();
        }
        self.active.fetch_sub(1, Ordering::Relaxed);
        self.stats.executed.fetch_add(1, Ordering::Relaxed);
        self.stats.busy_ns[slot].fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
}

/// Completion state of one [`Pool::run_batch`] call.
struct BatchState<R> {
    slots: Vec<Mutex<Option<R>>>,
    remaining: Mutex<usize>,
    done: Condvar,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

/// A long-lived thread pool over one shared FIFO task queue, with graceful
/// drain-then-join shutdown.
///
/// Workers and a helping [`Pool::run_batch`] caller all take the oldest queued task, so
/// tasks start in the order they were submitted.
///
/// `Pool::new(0)` is valid and spawns no threads: [`Pool::run_batch`] then executes every
/// job inline on the calling thread (the deterministic single-threaded mode), while
/// [`Pool::submit`] still queues tasks that only batch helpers or [`Pool::shutdown`]'s
/// drain would execute — fire-and-forget submission therefore only makes sense on a pool
/// with at least one thread.
pub struct Pool {
    shared: Arc<Shared>,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("threads", &self.shared.threads)
            .field("queued", &self.queued())
            .finish()
    }
}

impl Pool {
    /// Spawns a pool with `threads` worker threads.
    pub fn new(threads: usize) -> Self {
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue {
                tasks: VecDeque::new(),
                draining: false,
            }),
            work_available: Condvar::new(),
            threads,
            active: AtomicUsize::new(0),
            panicked: AtomicU64::new(0),
            handles: Mutex::new(Vec::with_capacity(threads)),
            stats: Stats {
                parks: AtomicU64::new(0),
                unparks: AtomicU64::new(0),
                executed: AtomicU64::new(0),
                busy_ns: (0..=threads).map(|_| AtomicU64::new(0)).collect(),
            },
        });
        for me in 0..threads {
            spawn_worker(&shared, me);
        }
        Self { shared }
    }

    /// A pool sized so that `workers` threads execute a batch: `workers - 1` pool threads
    /// plus the calling thread helping inside [`Pool::run_batch`].
    pub fn with_batch_workers(workers: usize) -> Self {
        Self::new(workers.max(1) - 1)
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.shared.threads
    }

    /// Tasks queued but not yet started.
    pub fn queued(&self) -> usize {
        self.shared.queue.lock().expect("task queue").tasks.len()
    }

    /// Tasks currently executing on worker threads.
    pub fn active(&self) -> usize {
        self.shared.active.load(Ordering::Relaxed)
    }

    /// Fire-and-forget tasks whose closure panicked, plus worker-loop panics survived
    /// by a supervised respawn (batch-job panics are not counted here — they re-raise
    /// at the batch call site; the `tsc3d_exec_panics_total` metric counts all three).
    pub fn panicked(&self) -> u64 {
        self.shared.panicked.load(Ordering::Relaxed)
    }

    /// Submits a fire-and-forget task.
    ///
    /// A task accepted here is guaranteed to run, even when [`Pool::shutdown`] is called
    /// concurrently (shutdown drains the queue before joining). A panic inside the task
    /// is contained and counted ([`Pool::panicked`]); it does not take down the worker.
    ///
    /// # Errors
    ///
    /// Returns [`PoolClosed`] when the pool is draining; the task is returned unexecuted
    /// inside the dropped closure.
    pub fn submit<T>(&self, task: T) -> Result<(), PoolClosed>
    where
        T: FnOnce() + Send + 'static,
    {
        self.submit_task(Box::new(task))
            .map_err(|_rejected| PoolClosed)
    }

    /// [`Pool::submit`] returning the rejected task, so batch submission can fall back to
    /// inline execution during a drain.
    fn submit_task(&self, task: Task) -> Result<(), Task> {
        {
            let mut queue = self.shared.queue.lock().expect("task queue");
            if queue.draining {
                return Err(task);
            }
            queue.tasks.push_back(task);
        }
        self.shared.work_available.notify_one();
        Ok(())
    }

    /// Runs `jobs` and returns one result per job, in job order.
    ///
    /// `f` receives the job's index (its position in `jobs`) and the job itself. Every
    /// job is executed exactly once and its result stored in the slot of its index, so
    /// the output is deterministic — identical for any thread count and any
    /// interleaving (given a deterministic `f`).
    ///
    /// The calling thread *helps*: it executes queued tasks while waiting, so `run_batch`
    /// issued from inside a pool task (nested batches) cannot deadlock, and a pool with 0
    /// threads simply runs the whole batch inline. During a drain the submissions a batch
    /// could not enqueue run inline as well — a batch that started always completes.
    ///
    /// # Panics
    ///
    /// Propagates the first panic raised by `f` (after every job of the batch finished or
    /// was accounted for).
    pub fn run_batch<J, R, F>(&self, jobs: Vec<J>, f: F) -> Vec<R>
    where
        J: Send + 'static,
        R: Send + 'static,
        F: Fn(usize, J) -> R + Send + Sync + 'static,
    {
        let n = jobs.len();
        if n <= 1 || self.threads() == 0 {
            return jobs
                .into_iter()
                .enumerate()
                .map(|(index, job)| f(index, job))
                .collect();
        }

        let f = Arc::new(f);
        let batch = Arc::new(BatchState {
            slots: (0..n).map(|_| Mutex::new(None)).collect(),
            remaining: Mutex::new(n),
            done: Condvar::new(),
            panic: Mutex::new(None),
        });

        for (index, job) in jobs.into_iter().enumerate() {
            let task = batch_task(Arc::clone(&batch), Arc::clone(&f), index, job);
            if let Err(rejected) = self.submit_task(task) {
                // Draining: the pool refuses new queue entries, but the batch must still
                // complete — run the job on the calling thread instead.
                rejected();
            }
        }

        // Help execute while the batch is outstanding, then park on the batch condvar.
        loop {
            if *batch.remaining.lock().expect("batch remaining") == 0 {
                break;
            }
            if let Some(task) = self.shared.try_pop() {
                // Any task helps: either it is one of ours, or it unblocks a worker that
                // holds one of ours.
                self.shared.run_task(self.shared.helper_slot(), task);
                continue;
            }
            let mut remaining = batch.remaining.lock().expect("batch remaining");
            while *remaining > 0 {
                remaining = batch.done.wait(remaining).expect("batch condvar");
            }
            break;
        }

        if let Some(payload) = batch.panic.lock().expect("batch panic slot").take() {
            resume_unwind(payload);
        }
        batch
            .slots
            .iter()
            .map(|slot| {
                slot.lock()
                    .expect("batch slot")
                    .take()
                    .expect("every job produces exactly one result")
            })
            .collect()
    }

    /// Gracefully shuts the pool down: refuses further submissions, lets the workers
    /// drain every task already accepted, then joins them. Idempotent; also invoked by
    /// `Drop`.
    pub fn shutdown(&self) {
        self.shared.queue.lock().expect("task queue").draining = true;
        self.shared.work_available.notify_all();
        // Join in rounds: a worker that panics while draining registers its supervised
        // replacement *before* it exits, so the replacement's handle is visible here by
        // the time the old handle's join returns — the loop terminates once a whole
        // round of workers exited cleanly.
        loop {
            let handles = std::mem::take(&mut *self.shared.handles.lock().expect("pool handles"));
            if handles.is_empty() {
                break;
            }
            for handle in handles {
                let _ = handle.join();
            }
        }
        // With worker threads, the join above implies an empty queue. Without any (a
        // 0-thread pool), `submit`'s accepted-means-executed contract still holds: the
        // shutdown caller drains whatever was queued.
        while let Some(task) = self.shared.try_pop() {
            self.shared.run_task(self.shared.helper_slot(), task);
        }
    }

    /// A consistent-enough snapshot of the scheduler's internal counters (each value
    /// is exact; values are read independently, so cross-counter invariants may be
    /// momentarily off by in-flight tasks).
    pub fn stats(&self) -> PoolStats {
        let stats = &self.shared.stats;
        PoolStats {
            threads: self.threads(),
            queued: self.queued(),
            active: self.active(),
            steals: 0,
            parks: stats.parks.load(Ordering::Relaxed),
            unparks: stats.unparks.load(Ordering::Relaxed),
            executed: stats.executed.load(Ordering::Relaxed),
            busy_ns: stats
                .busy_ns
                .iter()
                .map(|ns| ns.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A snapshot of a [`Pool`]'s scheduler counters, taken by [`Pool::stats`]. The
/// observable form of the pool's internals: the serve daemon samples this into
/// its `/metrics` gauges (`tsc3d_pool_*`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolStats {
    /// Number of worker threads.
    pub threads: usize,
    /// Tasks queued but not yet started.
    pub queued: usize,
    /// Tasks currently executing.
    pub active: usize,
    /// Always 0: the pool has one shared queue, so no worker steals from another. Kept
    /// for callers that still read it.
    pub steals: u64,
    /// Times a worker parked because the queue was empty.
    pub parks: u64,
    /// Times a parked worker woke up (at most one behind `parks` per thread).
    pub unparks: u64,
    /// Tasks executed to completion (including contained panics).
    pub executed: u64,
    /// Busy nanoseconds per worker, plus one final slot aggregating non-worker
    /// threads (batch helpers, the shutdown drain).
    pub busy_ns: Vec<u64>,
}

impl PoolStats {
    /// Total busy nanoseconds across workers and helpers.
    pub fn busy_ns_total(&self) -> u64 {
        self.busy_ns.iter().sum()
    }
}

/// Spawns (or respawns) the worker for `busy_ns` slot `me` and registers its handle for
/// the shutdown join.
fn spawn_worker(shared: &Arc<Shared>, me: usize) {
    let worker = Arc::clone(shared);
    let handle = std::thread::spawn(move || worker_main(worker, me));
    // `into_inner` on poison: a respawn runs while its thread is unwinding, so a mutex
    // poisoned by an unrelated panic must not abort the process via a double panic.
    match shared.handles.lock() {
        Ok(mut handles) => handles.push(handle),
        Err(poisoned) => poisoned.into_inner().push(handle),
    }
}

/// The supervised worker loop. Task panics are contained inside
/// [`Shared::run_task`]; anything that unwinds the loop itself (an injected
/// `exec-worker` fault, a poisoned internal lock) trips the [`Supervisor`]
/// guard, which counts the panic and respawns the worker in the same slot — so
/// the pool keeps its full width no matter what.
fn worker_main(shared: Arc<Shared>, me: usize) {
    let _supervisor = Supervisor {
        shared: Arc::clone(&shared),
        slot: me,
    };
    loop {
        // The injection point sits *between* tasks — before the next task is claimed —
        // so an injected worker panic never holds (and therefore never loses) a task:
        // queued tasks stay in the shared queue. Only the panic action is meaningful
        // here; an injected `error` at this site is ignored.
        let _ = fault_point!("exec-worker");
        let Some(task) = shared.next_task() else {
            break;
        };
        shared.run_task(me, task);
    }
}

/// Respawn guard living on the worker's stack: acts only when [`worker_main`]
/// unwinds (a clean exit drops it silently).
struct Supervisor {
    shared: Arc<Shared>,
    slot: usize,
}

impl Drop for Supervisor {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            return;
        }
        self.shared.panicked.fetch_add(1, Ordering::Relaxed);
        panics_total().inc();
        spawn_worker(&self.shared, self.slot);
    }
}

/// Wraps one batch job into a pool task: run, store the result (or capture the panic),
/// then decrement the batch counter and wake the batch owner on completion.
fn batch_task<J, R, F>(batch: Arc<BatchState<R>>, f: Arc<F>, index: usize, job: J) -> Task
where
    J: Send + 'static,
    R: Send + 'static,
    F: Fn(usize, J) -> R + Send + Sync + 'static,
{
    Box::new(move || {
        match catch_unwind(AssertUnwindSafe(|| f(index, job))) {
            Ok(result) => {
                *batch.slots[index].lock().expect("batch slot") = Some(result);
            }
            Err(payload) => {
                panics_total().inc();
                batch
                    .panic
                    .lock()
                    .expect("batch panic slot")
                    .get_or_insert(payload);
            }
        }
        let mut remaining = batch.remaining.lock().expect("batch remaining");
        *remaining -= 1;
        if *remaining == 0 {
            batch.done.notify_all();
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    /// One batch on a fresh pool of `workers` batch workers (the caller included).
    fn run_on<J, R, F>(workers: usize, jobs: Vec<J>, f: F) -> Vec<R>
    where
        J: Send + 'static,
        R: Send + 'static,
        F: Fn(usize, J) -> R + Send + Sync + 'static,
    {
        let pool = Pool::with_batch_workers(workers);
        let results = pool.run_batch(jobs, f);
        pool.shutdown();
        results
    }

    #[test]
    fn results_are_in_job_order() {
        let jobs: Vec<u64> = (0..100).collect();
        let results = run_on(4, jobs, |index, job| {
            assert_eq!(index as u64, job);
            job * job
        });
        assert_eq!(results.len(), 100);
        for (i, r) in results.iter().enumerate() {
            assert_eq!(*r, (i * i) as u64);
        }
    }

    #[test]
    fn single_worker_runs_inline() {
        let caller = std::thread::current().id();
        let results = run_on(1, vec![1, 2, 3], move |_, job| {
            assert_eq!(std::thread::current().id(), caller);
            job + 1
        });
        assert_eq!(results, vec![2, 3, 4]);
    }

    #[test]
    fn zero_workers_is_treated_as_one() {
        assert_eq!(Pool::with_batch_workers(0).threads(), 0);
        let results = run_on(0, vec![5], |_, job| job * 2);
        assert_eq!(results, vec![10]);
    }

    #[test]
    fn empty_job_list_is_fine() {
        let results: Vec<i32> = run_on(8, Vec::<i32>::new(), |_, job| job);
        assert!(results.is_empty());
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let counters: Arc<Vec<AtomicUsize>> =
            Arc::new((0..200).map(|_| AtomicUsize::new(0)).collect());
        let jobs: Vec<usize> = (0..200).collect();
        let observed = Arc::clone(&counters);
        run_on(8, jobs, move |_, job| {
            observed[job].fetch_add(1, Ordering::SeqCst);
        });
        for counter in counters.iter() {
            assert_eq!(counter.load(Ordering::SeqCst), 1);
        }
    }

    #[test]
    fn worker_counts_agree() {
        let jobs: Vec<u64> = (0..50).collect();
        let one = run_on(1, jobs.clone(), |_, job| job.wrapping_mul(0x9E37_79B9));
        let many = run_on(7, jobs, |_, job| job.wrapping_mul(0x9E37_79B9));
        assert_eq!(one, many);
    }

    #[test]
    fn batches_reuse_a_persistent_pool() {
        let pool = Pool::new(3);
        for round in 0..5u64 {
            let jobs: Vec<u64> = (0..40).collect();
            let results = pool.run_batch(jobs, move |_, job| job + round);
            assert_eq!(results, (0..40).map(|j| j + round).collect::<Vec<_>>());
        }
        assert_eq!(pool.threads(), 3);
        pool.shutdown();
    }

    #[test]
    fn nested_batches_do_not_deadlock() {
        // A batch task issuing its own run_batch on the same pool must complete even when
        // the pool is smaller than the total outstanding work, because waiters help.
        let pool = Arc::new(Pool::new(2));
        let inner_pool = Arc::clone(&pool);
        let outer: Vec<u64> = (0..8).collect();
        let results = pool.run_batch(outer, move |_, job| {
            let inner: Vec<u64> = (0..10).collect();
            inner_pool
                .run_batch(inner, move |_, x| x * job)
                .into_iter()
                .sum::<u64>()
        });
        assert_eq!(results, (0..8).map(|j| 45 * j).collect::<Vec<_>>());
        pool.shutdown();
    }

    #[test]
    fn queued_tasks_start_in_submission_order() {
        // The only worker is held inside a task while eight more are queued behind it.
        let pool = Pool::new(1);
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let held = Arc::clone(&barrier);
        pool.submit(move || {
            held.wait(); // the worker is busy
            held.wait(); // everything is queued
        })
        .expect("pool is open");
        barrier.wait();
        let started = Arc::new(Mutex::new(Vec::new()));
        for task in 0..8 {
            let started = Arc::clone(&started);
            pool.submit(move || started.lock().unwrap().push(task))
                .expect("pool is open");
        }
        barrier.wait();
        pool.shutdown();
        assert_eq!(*started.lock().unwrap(), (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn shutdown_drains_queued_tasks() {
        let pool = Pool::new(2);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..64 {
            let counter = Arc::clone(&counter);
            pool.submit(move || {
                std::thread::sleep(Duration::from_millis(1));
                counter.fetch_add(1, Ordering::SeqCst);
            })
            .expect("pool is open");
        }
        pool.shutdown();
        assert_eq!(counter.load(Ordering::SeqCst), 64, "drain ran every task");
        assert_eq!(pool.queued(), 0);
        assert_eq!(pool.active(), 0);
    }

    #[test]
    fn no_task_loss_under_concurrent_submit_and_shutdown() {
        // Every submission the pool *accepts* must execute, even when shutdown races the
        // submitting thread; once shutdown is observable, submissions fail typed.
        for _ in 0..8 {
            let pool = Arc::new(Pool::new(2));
            let executed = Arc::new(AtomicUsize::new(0));
            let submitter = {
                let pool = Arc::clone(&pool);
                let executed = Arc::clone(&executed);
                std::thread::spawn(move || {
                    let mut accepted = 0usize;
                    loop {
                        let executed = Arc::clone(&executed);
                        match pool.submit(move || {
                            executed.fetch_add(1, Ordering::SeqCst);
                        }) {
                            Ok(()) => accepted += 1,
                            Err(PoolClosed) => return accepted,
                        }
                        std::thread::yield_now();
                    }
                })
            };
            std::thread::sleep(Duration::from_millis(2));
            pool.shutdown();
            let accepted = submitter.join().expect("submitter thread");
            assert_eq!(
                executed.load(Ordering::SeqCst),
                accepted,
                "accepted tasks all executed, refused tasks did not"
            );
        }
    }

    #[test]
    fn a_panicking_task_is_counted_and_its_worker_keeps_serving() {
        // One worker: the task queued behind the panicking one runs on the same thread.
        let pool = Pool::new(1);
        pool.submit(|| panic!("task exploded"))
            .expect("pool is open");
        let ran = Arc::new(AtomicUsize::new(0));
        let observed = Arc::clone(&ran);
        pool.submit(move || {
            observed.fetch_add(1, Ordering::SeqCst);
        })
        .expect("pool is open");
        pool.shutdown();
        assert_eq!(ran.load(Ordering::SeqCst), 1);
        assert_eq!(pool.panicked(), 1);
    }

    #[test]
    fn zero_thread_pool_drains_submissions_on_shutdown() {
        // submit's accepted-means-executed contract must hold even with no workers: the
        // shutdown caller runs what was queued.
        let pool = Pool::new(0);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..5 {
            let counter = Arc::clone(&counter);
            pool.submit(move || {
                counter.fetch_add(1, Ordering::SeqCst);
            })
            .expect("pool is open");
        }
        assert_eq!(pool.queued(), 5);
        pool.shutdown();
        assert_eq!(counter.load(Ordering::SeqCst), 5);
        assert_eq!(pool.queued(), 0);
    }

    #[test]
    fn submit_after_shutdown_is_refused() {
        let pool = Pool::new(1);
        pool.shutdown();
        assert_eq!(pool.submit(|| {}), Err(PoolClosed));
        // A batch on a drained pool still completes (inline fallback).
        let results = pool.run_batch(vec![1, 2, 3], |_, x: i32| x * 2);
        assert_eq!(results, vec![2, 4, 6]);
    }

    #[test]
    fn batch_panics_propagate_after_the_batch_completes() {
        let pool = Pool::new(2);
        let completed = Arc::new(AtomicUsize::new(0));
        let observed = Arc::clone(&completed);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            pool.run_batch((0..16).collect::<Vec<usize>>(), move |_, job| {
                if job == 3 {
                    panic!("job 3 exploded");
                }
                observed.fetch_add(1, Ordering::SeqCst);
            })
        }));
        assert!(outcome.is_err(), "the panic reaches the batch caller");
        assert_eq!(
            completed.load(Ordering::SeqCst),
            15,
            "the other jobs still ran"
        );
        // The pool survives the panic and stays usable.
        assert_eq!(pool.run_batch(vec![7u64, 9], |_, x| x + 1), vec![8, 10]);
        pool.shutdown();
    }

    #[test]
    fn stats_count_executed_tasks_and_busy_time() {
        let pool = Pool::new(2);
        let results = pool.run_batch((0..16u64).collect(), |_, x| {
            std::thread::sleep(std::time::Duration::from_micros(200));
            x * 2
        });
        assert_eq!(results.len(), 16);
        let stats = pool.stats();
        assert_eq!(stats.threads, 2);
        // `executed` is bumped after a task's body returns, so the batch owner may
        // observe the last task's completion slot before its counter increment.
        assert!(stats.executed >= 15, "executed {}", stats.executed);
        // 2 worker slots plus the helper slot; the batch ran real work somewhere.
        assert_eq!(stats.busy_ns.len(), 3);
        assert!(stats.busy_ns_total() > 0);
        assert!(stats.unparks <= stats.parks + stats.threads as u64);
        pool.shutdown();
        // After the join the counters are settled and nothing is left queued.
        let after = pool.stats();
        assert_eq!(after.queued, 0);
        assert_eq!(after.executed, 16);
    }
}
