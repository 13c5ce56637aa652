//! The span collector is one store for every thread: a single thread may close as
//! many spans as the collector's cap, not a per-thread share of it.
//!
//! A test binary of its own, since the collector and the tracing flag are
//! process-global and another test's spans would land in the count.

#[test]
fn one_thread_keeps_more_than_65_536_spans() {
    const SPANS: usize = 65_537;
    let _ = tsc3d_obs::drain_spans();
    let dropped_before = tsc3d_obs::dropped_spans();
    tsc3d_obs::set_tracing(true);
    for _ in 0..SPANS {
        let _span = tsc3d_obs::span!("op");
    }
    tsc3d_obs::set_tracing(false);

    let spans = tsc3d_obs::drain_spans();
    assert_eq!(spans.len(), SPANS, "every closed span is kept");
    assert_eq!(
        tsc3d_obs::dropped_spans(),
        dropped_before,
        "none is dropped"
    );
    assert!(spans.iter().all(|s| s.thread == spans[0].thread));
    assert!(
        spans
            .windows(2)
            .all(|pair| (pair[0].start_ns, pair[0].id) < (pair[1].start_ns, pair[1].id)),
        "drained in (start_ns, id) order"
    );
    assert!(tsc3d_obs::drain_spans().is_empty(), "draining empties it");
}
