//! Pool supervision under injected faults (PR 9 satellite).
//!
//! Lives in its own integration-test binary because the fault harness is
//! process-global: pools spawned by unrelated tests would otherwise absorb the
//! injected `exec-worker` hits. Tests that arm plans serialize on
//! [`tsc3d_exec::fault::test_lock`].

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tsc3d_exec::{fault, FaultPlan, Pool};

/// The process-wide panic counter handle (get-or-create returns the shared cell).
fn panics_total() -> tsc3d_obs::Counter {
    tsc3d_obs::global().counter(
        "tsc3d_exec_panics_total",
        "Pool task panics contained (and worker-loop panics survived by respawn)",
    )
}

#[test]
fn worker_loop_panic_respawns_and_the_pool_keeps_serving() {
    let _serial = fault::test_lock();
    let pool = Pool::new(2);
    let before = panics_total().get();

    // Both workers iterate the loop (spawn + after every task), so some worker
    // absorbs the 3rd hit and unwinds; the supervisor respawns it in place.
    fault::arm(FaultPlan::parse("exec-worker:3:panic").expect("plan"));
    let deadline = Instant::now() + Duration::from_secs(10);
    while fault::fired().is_empty() {
        assert!(Instant::now() < deadline, "the worker fault never fired");
        let results = pool.run_batch(vec![1u64, 2, 3, 4], |_, x| x * 2);
        assert_eq!(results, vec![2, 4, 6, 8]);
        std::thread::sleep(Duration::from_millis(1));
    }
    let log = fault::disarm();
    assert_eq!(log.len(), 1);
    assert_eq!(log[0].site, "exec-worker");

    // The panic was counted (pool-local and in the global metric) …
    let settle = Instant::now() + Duration::from_secs(10);
    while pool.panicked() == 0 && Instant::now() < settle {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(pool.panicked() >= 1, "worker-loop panic is counted");
    assert!(panics_total().get() > before, "metric incremented");

    // … and the pool still has its full width serving batches: with one worker
    // dead and not respawned, a 2-thread pool would still pass batches (the
    // caller helps), so assert the respawn directly via fire-and-forget
    // submissions, which only pool workers execute.
    let counter = Arc::new(AtomicUsize::new(0));
    for _ in 0..32 {
        let counter = Arc::clone(&counter);
        pool.submit(move || {
            counter.fetch_add(1, Ordering::SeqCst);
        })
        .expect("pool is open");
    }
    let drain = Instant::now() + Duration::from_secs(10);
    while counter.load(Ordering::SeqCst) < 32 && Instant::now() < drain {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(counter.load(Ordering::SeqCst), 32, "workers still execute");
    pool.shutdown();
}

#[test]
fn task_panic_mid_batch_keeps_pool_nested_help_and_counter_intact() {
    let _serial = fault::test_lock();
    let pool = Arc::new(Pool::new(2));
    let before = panics_total().get();

    // A panicking batch job re-raises at the call site after the batch settles.
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        pool.run_batch((0..8).collect::<Vec<u64>>(), |_, job| {
            if job == 5 {
                panic!("job 5 exploded");
            }
            job + 1
        })
    }));
    assert!(outcome.is_err(), "the panic reaches the batch caller");
    assert!(panics_total().get() > before, "batch panic hits the metric");

    // Subsequent batches are served, including nested ones (workers helping
    // through `run_batch` recursion), and the workers still run submissions.
    let nested = Arc::clone(&pool);
    let results = pool.run_batch((0..4).collect::<Vec<u64>>(), move |_, outer| {
        nested
            .run_batch((0..4).collect::<Vec<u64>>(), move |_, inner| inner * outer)
            .into_iter()
            .sum::<u64>()
    });
    assert_eq!(results, vec![0, 6, 12, 18]);

    let ran = Arc::new(AtomicUsize::new(0));
    let observed = Arc::clone(&ran);
    pool.submit(move || {
        observed.fetch_add(1, Ordering::SeqCst);
    })
    .expect("pool is open");
    let deadline = Instant::now() + Duration::from_secs(10);
    while ran.load(Ordering::SeqCst) == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(ran.load(Ordering::SeqCst), 1);
    pool.shutdown();
}
