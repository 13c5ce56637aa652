//! The flow budget: a helper lane is leased only while the process-wide count of
//! threads doing flow work is below the core count, and every slot is returned.
//!
//! Lives in its own integration-test binary because the budget is process-wide.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::thread::ThreadId;

use tsc3d_exec::{flow_threads, CancelToken, FlowThread, Helpers};

/// The threads that ran a first and a needed second item. With a helper, the first
/// waits until the second has started, so each lane runs one of them.
fn lanes_used(helpers: Helpers, expect_helper: bool) -> HashSet<ThreadId> {
    let started = AtomicBool::new(false);
    let ran = Mutex::new(HashSet::new());
    let record = || {
        ran.lock().unwrap().insert(std::thread::current().id());
    };
    helpers.join(
        None,
        &CancelToken::new(),
        || {
            while expect_helper && !started.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            record();
        },
        |_| true,
        Some(|_: &CancelToken| {
            started.store(true, Ordering::SeqCst);
            record();
        }),
    );
    ran.into_inner().unwrap()
}

#[test]
fn the_budget_grants_a_helper_only_below_the_core_count() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let caller = std::thread::current().id();
    assert_eq!(flow_threads(), 0);

    let full: Vec<FlowThread> = (0..cores).map(|_| FlowThread::enter()).collect();
    assert_eq!(flow_threads(), cores);
    let serial = lanes_used(Helpers::Budget, false);
    assert_eq!(
        serial,
        HashSet::from([caller]),
        "a full budget runs serially"
    );
    assert_eq!(flow_threads(), cores);
    drop(full);

    let forced = lanes_used(Helpers::One, true);
    assert_eq!(forced.len(), 2, "a forced helper runs beside the caller");
    assert_eq!(flow_threads(), 0, "the forced lease is returned");

    if cores >= 2 {
        let _flow = FlowThread::enter();
        let granted = lanes_used(Helpers::Budget, true);
        assert_eq!(
            granted.len(),
            2,
            "one flow on a multi-core host gets a helper"
        );
        assert_eq!(flow_threads(), 1, "the helper's slot is returned");
    }
    assert_eq!(flow_threads(), 0);
}
