//! A flow's second lane: one scoped helper thread beside the thread running the
//! flow, drawn from a process-wide budget of threads doing flow work.
//!
//! The budget owns no threads, unlike the [`crate::Pool`]: it only counts them. Each
//! running flow counts its own thread ([`FlowThread`]) and each helper it leases. A
//! flow takes a helper only while that count is below
//! [`std::thread::available_parallelism`], so a campaign or serve pool that already
//! keeps every core busy runs the serial schedule — the same [`Helpers::join`] code
//! with zero helpers.
//!
//! [`Helpers::join`] runs two items where the serial loop runs the second only if the
//! first's result calls for it (a repair round after an illegal anneal, the next
//! dummy-TSV candidate after an accepted one). A helper starts the second item beside
//! the first, before that is known; each item's result depends only on its inputs, so
//! a kept result is exactly the serial loop's. Such a guess costs the first item
//! speed when it is wrong (two busy lanes share the host's cores), so each kind of
//! guess is a [`Speculation`] that a budgeted flow stops making once its recent
//! second items went unneeded.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::{CancelReason, CancelToken};

/// Threads doing flow work right now: running flows plus their helpers. The count
/// gates helper leases and publishes no other data, so every access is relaxed.
static FLOW_THREADS: AtomicUsize = AtomicUsize::new(0);

fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Threads doing flow work right now, as counted by the budget: each running
/// [`FlowThread`] plus each helper lane.
pub fn flow_threads() -> usize {
    FLOW_THREADS.load(Ordering::Relaxed)
}

/// Counts the calling thread in the flow budget until dropped. A flow holds one for
/// its whole run.
#[must_use = "the thread is counted only while the guard lives"]
#[derive(Debug)]
pub struct FlowThread(());

impl FlowThread {
    /// Counts the calling thread as doing flow work.
    pub fn enter() -> FlowThread {
        FLOW_THREADS.fetch_add(1, Ordering::Relaxed);
        FlowThread(())
    }
}

impl Drop for FlowThread {
    fn drop(&mut self) {
        FLOW_THREADS.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Whether a [`Helpers::join`] call runs its second item on a helper lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Helpers {
    /// A helper while the flow budget is below the core count and the join's
    /// [`Speculation`], if any, still runs ahead; none otherwise — what every flow
    /// runs.
    Budget,
    /// No helper: the serial schedule.
    Zero,
    /// A helper whatever the budget and the record, so tests can run both schedules.
    One,
}

/// One kind of second item a flow may run ahead of need (an outline-repair anneal, a
/// dummy-TSV candidate's solve), with its record in this process: its `work` label in
/// `tsc3d_flow_speculative_total`, and how many [`Helpers::join`] calls of this kind
/// in a row did not need their second item.
///
/// A [`Helpers::Budget`] join runs its second item ahead only while one of the last
/// [`Speculation::PATIENCE`] joins of its kind needed theirs, so a workload whose
/// guesses keep going unneeded (say, every initial anneal already legal) runs the
/// serial schedule, and the next needed second item re-arms the guess. Every join
/// records, with or without a helper, so the record stays current either way.
#[derive(Debug)]
pub struct Speculation {
    work: &'static str,
    unneeded_in_a_row: AtomicUsize,
}

impl Speculation {
    /// Joins of one kind in a row whose second item went unneeded before budgeted
    /// joins of that kind stop running it ahead. On the paper's annealing schedule a
    /// right round-1 guess saved about nine times what a wrong one cost (0.57 s
    /// against 0.06 s per N100 floorplan stage on a 2-vCPU host), so guessing pays
    /// while more than about one in ten second items are needed; eight unneeded in a
    /// row has a 6% chance at a need rate of 30%.
    pub const PATIENCE: usize = 8;

    /// A kind of speculative work counted under `work`, with no record yet.
    pub const fn new(work: &'static str) -> Self {
        Self {
            work,
            unneeded_in_a_row: AtomicUsize::new(0),
        }
    }

    /// Whether a budgeted join runs this kind's second item ahead: one of the last
    /// [`Speculation::PATIENCE`] joins of this kind needed theirs, or fewer have run.
    pub fn runs_ahead(&self) -> bool {
        self.unneeded_in_a_row.load(Ordering::Relaxed) < Self::PATIENCE
    }

    /// Records one join's verdict on its second item and, when a helper ran that item
    /// ahead, counts it as used or discarded. Called once per join, after an anneal or
    /// a solve, so the registry lookup is cheap.
    fn record(&self, needed: bool, ran_ahead: bool) {
        if needed {
            self.unneeded_in_a_row.store(0, Ordering::Relaxed);
        } else {
            self.unneeded_in_a_row.fetch_add(1, Ordering::Relaxed);
        }
        if ran_ahead {
            tsc3d_obs::global()
                .counter_with(
                    "tsc3d_flow_speculative_total",
                    "Flow work a helper lane started before it was known to be needed, by \
                     whether its result was used or discarded",
                    &[
                        ("work", self.work),
                        ("outcome", if needed { "used" } else { "discarded" }),
                    ],
                )
                .inc();
        }
    }
}

/// A lease of one budget slot for a helper lane, returned on drop.
struct Lease;

impl Drop for Lease {
    fn drop(&mut self) {
        FLOW_THREADS.fetch_sub(1, Ordering::Relaxed);
    }
}

impl Helpers {
    fn lease(self, speculative: Option<&Speculation>) -> Option<Lease> {
        match self {
            Helpers::Zero => None,
            Helpers::One => {
                FLOW_THREADS.fetch_add(1, Ordering::Relaxed);
                Some(Lease)
            }
            Helpers::Budget if !speculative.map_or(true, Speculation::runs_ahead) => None,
            Helpers::Budget => FLOW_THREADS
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |count| {
                    (count < cores()).then_some(count + 1)
                })
                .ok()
                .map(|_| Lease),
        }
    }

    /// Runs `first` on the calling thread and the optional `second` item, which the
    /// serial loop runs after `first` only when `needs_second(&first_result)` holds;
    /// returns `first`'s result and, when needed, `second`'s.
    ///
    /// With a helper leased, `second` starts beside `first` on a scoped helper thread.
    /// It gets a [`CancelToken::child`] of `cancel`, cancelled as soon as `first`'s
    /// result turns out not to need it, so it stops at its next checkpoint; its result
    /// is then discarded. Without a helper, `second` runs after `first` on the calling
    /// thread, and only when needed. A panic on either lane resumes on the calling
    /// thread after both lanes have stopped. The helper runs inside the caller's
    /// [`tsc3d_obs::JobScope`], and its spans nest under the caller's innermost span.
    ///
    /// `speculative` is the kind of a `second` item that may go unneeded: it records
    /// the verdict, counts an item run ahead as used or discarded, and under
    /// [`Helpers::Budget`] decides whether to run ahead at all. It is `None` for a
    /// `second` item that is always needed.
    pub fn join<A, B, F, N, S>(
        self,
        speculative: Option<&Speculation>,
        cancel: &CancelToken,
        first: F,
        needs_second: N,
        second: Option<S>,
    ) -> (A, Option<B>)
    where
        B: Send,
        F: FnOnce() -> A,
        N: FnOnce(&A) -> bool,
        S: FnOnce(&CancelToken) -> B + Send,
    {
        let token = cancel.child();
        // Only a join with a second item has a verdict to record.
        let speculative = speculative.filter(|_| second.is_some());
        let lease = second.as_ref().and_then(|_| self.lease(speculative));
        // Taken exactly once, by whichever lane runs the second item.
        let second = Mutex::new(second);
        let run_second = || {
            let second = second.lock().expect("second item poisoned").take();
            second.map(|second| second(&token))
        };
        std::thread::scope(|scope| {
            let (job, parent) = (tsc3d_obs::event::current_job(), tsc3d_obs::current_span());
            // A helper that cannot be spawned leaves the second item to the caller.
            let helper = lease.as_ref().and_then(|_| {
                std::thread::Builder::new()
                    .name("flow-helper".into())
                    .spawn_scoped(scope, move || {
                        let _job = tsc3d_obs::JobScope::enter(job);
                        let _parent = tsc3d_obs::adopt_parent(parent);
                        run_second()
                    })
                    .ok()
            });
            let first = match catch_unwind(AssertUnwindSafe(first)) {
                Ok(first) => first,
                Err(payload) => {
                    token.cancel(CancelReason::User);
                    if let Some(helper) = helper {
                        let _ = helper.join();
                    }
                    resume_unwind(payload);
                }
            };
            let needed = needs_second(&first);
            let Some(helper) = helper else {
                if let Some(kind) = speculative {
                    kind.record(needed, false);
                }
                return (first, needed.then(run_second).flatten());
            };
            if !needed {
                token.cancel(CancelReason::User);
            }
            let second = helper
                .join()
                .unwrap_or_else(|payload| resume_unwind(payload));
            if let Some(kind) = speculative {
                kind.record(needed, true);
            }
            (first, second.filter(|_| needed))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    /// `first` yields `a`, the second item `a + 1`.
    fn pair(helpers: Helpers, kind: &Speculation, a: u32, needed: bool) -> (u32, Option<u32>) {
        helpers.join(
            Some(kind),
            &CancelToken::new(),
            || a,
            |_| needed,
            Some(|_: &CancelToken| a + 1),
        )
    }

    /// The `tsc3d_flow_speculative_total` series of `work` and `outcome`.
    fn speculative(work: &str, outcome: &str) -> u64 {
        tsc3d_obs::global()
            .counter_with(
                "tsc3d_flow_speculative_total",
                "",
                &[("work", work), ("outcome", outcome)],
            )
            .get()
    }

    #[test]
    fn zero_and_one_helper_keep_the_same_results() {
        static SERIAL: Speculation = Speculation::new("test-serial");
        static PAIRED: Speculation = Speculation::new("test-paired");
        static ALONE: Speculation = Speculation::new("test-alone");
        for needed in [false, true] {
            assert_eq!(
                pair(Helpers::Zero, &SERIAL, 7, needed),
                (7, needed.then_some(8))
            );
            assert_eq!(
                pair(Helpers::One, &PAIRED, 7, needed),
                (7, needed.then_some(8))
            );
        }
        let alone = Helpers::One.join(
            Some(&ALONE),
            &CancelToken::new(),
            || 1,
            |_| true,
            None::<fn(&CancelToken) -> u32>,
        );
        assert_eq!(alone, (1, None));

        // Only a second item run ahead on a helper counts, by whether it was used.
        for outcome in ["used", "discarded"] {
            assert_eq!(
                speculative("test-serial", outcome),
                0,
                "serial never runs ahead"
            );
            assert_eq!(speculative("test-paired", outcome), 1, "{outcome}");
            assert_eq!(speculative("test-alone", outcome), 0, "no second item");
        }
    }

    #[test]
    fn a_kind_whose_second_items_go_unneeded_stops_running_ahead() {
        static KIND: Speculation = Speculation::new("test-patience");
        let on_helper = |_: &CancelToken| std::thread::current().name() == Some("flow-helper");
        for _ in 0..Speculation::PATIENCE {
            assert!(KIND.runs_ahead());
            let (_, second) = Helpers::One.join(
                Some(&KIND),
                &CancelToken::new(),
                || (),
                |_| false,
                Some(on_helper),
            );
            assert_eq!(second, None);
        }
        assert!(!KIND.runs_ahead());
        assert_eq!(
            speculative("test-patience", "discarded"),
            Speculation::PATIENCE as u64
        );

        // A budgeted join of it now leases no helper: its needed second item runs on
        // the calling thread after the first, and re-arms the guess.
        let (_, second) = Helpers::Budget.join(
            Some(&KIND),
            &CancelToken::new(),
            || (),
            |_| true,
            Some(on_helper),
        );
        assert_eq!(second, Some(false), "the second item ran on the caller");
        assert!(KIND.runs_ahead());
        assert_eq!(speculative("test-patience", "used"), 0);
    }

    #[test]
    fn a_second_item_not_needed_is_cancelled_beside_the_first() {
        static KIND: Speculation = Speculation::new("test-cancelled");
        // The first item waits until the second has started, which then spins on its
        // token: only the first's verdict can cancel it.
        let both = Barrier::new(2);
        let joined = Helpers::One.join(
            Some(&KIND),
            &CancelToken::new(),
            || {
                both.wait();
                "settled"
            },
            |_| false,
            Some(|token: &CancelToken| {
                both.wait();
                while token.check().is_ok() {
                    std::hint::spin_loop();
                }
                "cancelled"
            }),
        );
        assert_eq!(joined, ("settled", None));
        assert_eq!(speculative("test-cancelled", "discarded"), 1);
    }

    #[test]
    fn a_panic_on_either_lane_surfaces_on_the_caller() {
        for helper_panics in [false, true] {
            let both = Barrier::new(2);
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                Helpers::One.join(
                    None,
                    &CancelToken::new(),
                    || {
                        both.wait();
                        if !helper_panics {
                            panic!("lane panic");
                        }
                    },
                    |_| false,
                    Some(|_: &CancelToken| {
                        both.wait();
                        if helper_panics {
                            panic!("lane panic");
                        }
                    }),
                )
            }));
            let payload = outcome.expect_err("the panic reaches the caller");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"lane panic"));
        }
    }

    #[test]
    fn the_second_items_token_fires_with_the_callers_token() {
        let job = CancelToken::new();
        job.cancel(CancelReason::Deadline);
        for helpers in [Helpers::Zero, Helpers::One] {
            let (_, second) = helpers.join(
                None,
                &job,
                || (),
                |_| true,
                Some(|token: &CancelToken| token.check()),
            );
            assert_eq!(second, Some(Err(CancelReason::Deadline)));
        }
    }
}
