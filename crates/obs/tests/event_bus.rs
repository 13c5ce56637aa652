//! Integration tests of the flight-recorder event bus: concurrent gap-free
//! delivery up to capacity (read after the emitters join and while they run),
//! drop accounting past it, scoping, and the off-by-default cost contract.
//!
//! The bus is process-global (one ring, one sequence counter), so every test
//! takes `TEST_LOCK` and works *relative* to the sequence position it started
//! at — absolute numbers depend on which tests ran before.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};
use tsc3d_obs::event::{self, EventKind, JobState};

fn lock() -> MutexGuard<'static, ()> {
    static TEST_LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    TEST_LOCK
        .get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Drains the subscriber until `expected` events were delivered (or a deadline
/// passes), returning `(events, missed)`.
fn drain(subscriber: &mut event::Subscriber, expected: usize) -> (Vec<tsc3d_obs::Event>, u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut events = Vec::new();
    let mut missed = 0;
    while events.len() + (missed as usize) < expected && Instant::now() < deadline {
        let poll = subscriber.poll(512);
        missed += poll.missed;
        events.extend(poll.events);
        if events.is_empty() {
            std::thread::yield_now();
        }
    }
    (events, missed)
}

#[test]
fn concurrent_emitters_deliver_gap_free_up_to_capacity() {
    let _guard = lock();
    event::set_events(true);
    let start = event::next_seq();
    let mut subscriber = event::subscribe_from(start);

    const THREADS: u64 = 4;
    const PER_THREAD: u64 = 400; // 1600 total, well under the 8192 ring
    let emitted = Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let emitted = Arc::clone(&emitted);
            std::thread::spawn(move || {
                for i in 0..PER_THREAD {
                    event::emit(|| EventKind::Progress {
                        phase: "test",
                        done: t * PER_THREAD + i,
                        total: THREADS * PER_THREAD,
                    });
                    emitted.fetch_add(1, Ordering::Relaxed);
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().unwrap();
    }

    let total = (THREADS * PER_THREAD) as usize;
    let (events, missed) = drain(&mut subscriber, total);
    event::set_events(false);

    assert_eq!(missed, 0, "nothing may age out below capacity");
    assert_eq!(events.len(), total);
    for (offset, event) in events.iter().enumerate() {
        assert_eq!(
            event.seq,
            start + offset as u64,
            "delivered run must be dense in sequence order"
        );
    }
}

#[test]
fn a_subscriber_polling_while_emitters_race_reads_each_event_once_in_order() {
    let _guard = lock();
    event::set_events(true);
    let start = event::next_seq();
    let mut subscriber = event::subscribe_from(start);

    const THREADS: u64 = 4;
    const PER_THREAD: u64 = 1000; // 4000 total, under the 8192 ring: nothing ages out
    let total = THREADS * PER_THREAD;
    let go = Arc::new(Barrier::new(THREADS as usize + 1));
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let go = Arc::clone(&go);
            std::thread::spawn(move || {
                go.wait();
                for i in 0..PER_THREAD {
                    event::emit(|| EventKind::Progress {
                        phase: "race",
                        done: t * PER_THREAD + i,
                        total,
                    });
                }
            })
        })
        .collect();

    go.wait();
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut next = start;
    let mut missed = 0;
    let mut delivered = Vec::new();
    while next < start + total && Instant::now() < deadline {
        let poll = subscriber.poll(64);
        missed += poll.missed;
        for event in &poll.events {
            assert_eq!(
                event.seq, next,
                "a poll is consecutive in seq and starts where the last one ended"
            );
            next += 1;
            match event.kind {
                EventKind::Progress { done, .. } => delivered.push(done),
                _ => panic!("unexpected kind"),
            }
        }
    }
    for handle in handles {
        handle.join().unwrap();
    }
    event::set_events(false);

    assert_eq!(missed, 0, "nothing may age out below capacity");
    // Each emitter's events arrive in the order it emitted them.
    for t in 0..THREADS {
        let own: Vec<u64> = delivered
            .iter()
            .copied()
            .filter(|done| done / PER_THREAD == t)
            .collect();
        assert!(own.windows(2).all(|pair| pair[0] < pair[1]), "emitter {t}");
    }
    // The union of all polls is everything emitted, each event once.
    delivered.sort_unstable();
    assert_eq!(delivered, (0..total).collect::<Vec<_>>());
}

#[test]
fn overflow_past_capacity_is_counted_not_silently_lost() {
    let _guard = lock();
    event::set_events(true);
    let start = event::next_seq();
    let dropped_before = event::dropped_events();
    let mut subscriber = event::subscribe_from(start);

    let extra = 3000u64;
    let total = event::capacity() as u64 + extra;
    for i in 0..total {
        event::emit(|| EventKind::Checkpoint {
            name: "overflow",
            value: i,
        });
    }

    let (events, missed) = drain(&mut subscriber, total as usize);
    event::set_events(false);

    assert_eq!(
        events.len() as u64 + missed,
        total,
        "every emitted event is either delivered or accounted as missed"
    );
    assert!(
        missed >= extra,
        "at least the overflow beyond capacity must be missed (missed={missed})"
    );
    assert!(events.len() <= event::capacity());
    assert!(
        event::dropped_events() - dropped_before >= extra,
        "ring overwrites feed the dropped-events counter"
    );
    // The survivors are still strictly ordered with no duplicates.
    for pair in events.windows(2) {
        assert!(pair[0].seq < pair[1].seq);
    }
}

#[test]
fn job_scopes_attribute_and_restore() {
    let _guard = lock();
    event::set_events(true);
    let start = event::next_seq();
    let mut subscriber = event::subscribe_from(start);

    event::emit(|| EventKind::Checkpoint {
        name: "outside",
        value: 0,
    });
    {
        let _outer = event::JobScope::enter(7);
        event::emit(|| EventKind::Checkpoint {
            name: "outer",
            value: 0,
        });
        {
            let _inner = event::JobScope::enter(8);
            event::emit(|| EventKind::Checkpoint {
                name: "inner",
                value: 0,
            });
        }
        event::emit(|| EventKind::Checkpoint {
            name: "outer-again",
            value: 0,
        });
    }
    event::emit(|| EventKind::Checkpoint {
        name: "outside-again",
        value: 0,
    });

    let (events, missed) = drain(&mut subscriber, 5);
    event::set_events(false);
    assert_eq!(missed, 0);
    let jobs: Vec<u64> = events.iter().map(|e| e.job).collect();
    assert_eq!(jobs, vec![0, 7, 8, 7, 0], "scopes nest and restore");
}

#[test]
fn stage_scope_emits_paired_enter_exit_even_on_early_return() {
    let _guard = lock();
    event::set_events(true);
    let start = event::next_seq();
    let mut subscriber = event::subscribe_from(start);

    fn failing_stage() -> Result<(), ()> {
        let _stage = event::stage_scope("doomed");
        Err(())
    }
    let _ = failing_stage();

    let (events, missed) = drain(&mut subscriber, 2);
    event::set_events(false);
    assert_eq!(missed, 0);
    assert_eq!(
        events
            .iter()
            .map(|e| match e.kind {
                EventKind::Stage { name, enter } => (name, enter),
                _ => panic!("unexpected kind"),
            })
            .collect::<Vec<_>>(),
        vec![("doomed", true), ("doomed", false)]
    );
}

#[test]
fn disabled_emission_never_builds_the_payload() {
    let _guard = lock();
    event::set_events(false);
    let start = event::next_seq();
    event::emit(|| -> EventKind { panic!("the payload closure must not run while disabled") });
    assert_eq!(event::next_seq(), start, "no sequence number was consumed");
}

#[test]
fn events_serialize_to_flat_json_with_escaping() {
    let event = tsc3d_obs::Event {
        seq: 12,
        ts_ns: 34,
        job: 2,
        kind: EventKind::Job {
            state: JobState::Failed,
            label: "a \"quoted\" label".into(),
        },
    };
    assert_eq!(
        event.to_json(),
        "{\"seq\":12,\"ts_ns\":34,\"job\":2,\"kind\":\"job\",\
         \"state\":\"failed\",\"label\":\"a \\\"quoted\\\" label\"}"
    );
    let progress = tsc3d_obs::Event {
        seq: 0,
        ts_ns: 0,
        job: 0,
        kind: EventKind::Progress {
            phase: "sa",
            done: 3,
            total: 12,
        },
    };
    assert_eq!(progress.fraction(), Some(0.25));
    assert_eq!(progress.kind_name(), "progress");
}

#[test]
fn resume_from_a_mid_ring_cursor_replays_the_tail() {
    let _guard = lock();
    event::set_events(true);
    let start = event::next_seq();
    for i in 0..5 {
        event::emit(|| EventKind::Checkpoint {
            name: "resume",
            value: i,
        });
    }
    // `Last-Event-ID: start+1` maps to subscribe_from(start+2).
    let mut subscriber = event::subscribe_from(start + 2);
    let (events, missed) = drain(&mut subscriber, 3);
    event::set_events(false);
    assert_eq!(missed, 0);
    assert_eq!(events.len(), 3);
    assert_eq!(events[0].seq, start + 2);
}
