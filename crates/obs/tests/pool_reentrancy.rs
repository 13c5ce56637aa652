//! Span-stack discipline across pool re-entrancy: a task executed inline on a
//! non-worker thread (a `run_batch` helper, the shutdown drain) must nest its
//! spans under whatever span that thread currently has open, and every guard
//! must close exactly once.
//!
//! The tests share the process-global span collector, so they serialize on a
//! mutex and filter drained spans by their own names.

use std::collections::HashSet;
use std::sync::Mutex;

use tsc3d_exec::Pool;
use tsc3d_obs as obs;

static COLLECTOR_LOCK: Mutex<()> = Mutex::new(());

#[test]
fn helped_tasks_nest_under_the_helpers_open_span() {
    let _guard = COLLECTOR_LOCK.lock().unwrap();
    obs::set_tracing(true);
    let _ = obs::drain_spans();

    // A 0-thread pool queues tasks until its shutdown drains them, so every task
    // below is guaranteed to run inline on this thread, inside the "reentry_outer"
    // span.
    let pool = Pool::new(0);
    for _ in 0..4 {
        pool.submit(|| {
            let _span = obs::span!("reentry_inline");
            obs::trace::add_to_span("units", 1);
        })
        .unwrap();
    }
    {
        let _outer = obs::span!("reentry_outer");
        pool.shutdown();
    }
    obs::set_tracing(false);

    let spans = obs::drain_spans();
    let outer = spans
        .iter()
        .find(|s| s.name == "reentry_outer")
        .expect("outer span recorded");
    let helped: Vec<_> = spans
        .iter()
        .filter(|s| s.name == "reentry_inline")
        .collect();
    assert_eq!(helped.len(), 4, "every helped task closed its span");
    for span in &helped {
        assert_eq!(
            span.parent, outer.id,
            "helped span nests under the helper's span"
        );
        assert_eq!(span.thread, outer.thread, "helped task ran inline");
        assert!(span.start_ns >= outer.start_ns);
        assert!(span.start_ns + span.dur_ns <= outer.start_ns + outer.dur_ns);
        assert_eq!(span.counters, vec![("units".to_string(), 1)]);
    }
    // The outer guard closed after its children, and the stack fully unwound:
    // a fresh span on this thread is a root again.
    obs::set_tracing(true);
    drop(obs::span!("reentry_after"));
    obs::set_tracing(false);
    let after = obs::drain_spans();
    let after = after.iter().find(|s| s.name == "reentry_after").unwrap();
    assert_eq!(after.parent, 0, "span stack unwound to empty");
}

#[test]
fn nested_spans_inside_helped_tasks_keep_their_chain() {
    let _guard = COLLECTOR_LOCK.lock().unwrap();
    obs::set_tracing(true);
    let _ = obs::drain_spans();

    let pool = Pool::new(0);
    pool.submit(|| {
        let _a = obs::span!("reentry_a");
        let _b = obs::span!("reentry_b");
    })
    .unwrap();
    {
        let _outer = obs::span!("reentry_root");
        pool.shutdown();
    }
    obs::set_tracing(false);

    let spans = obs::drain_spans();
    let by_name = |name: &str| spans.iter().find(|s| s.name == name).unwrap();
    let root = by_name("reentry_root");
    let a = by_name("reentry_a");
    let b = by_name("reentry_b");
    assert_eq!(a.parent, root.id);
    assert_eq!(b.parent, a.id);
    let ids: HashSet<u64> = spans.iter().map(|s| s.id).collect();
    assert_eq!(ids.len(), spans.len(), "span ids are unique");
    for span in &spans {
        assert!(
            span.parent == 0 || ids.contains(&span.parent),
            "parent links resolve within the drained set"
        );
    }
}
