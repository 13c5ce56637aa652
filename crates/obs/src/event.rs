//! The live-progress event bus: a bounded flight recorder with cursor-based
//! subscribers.
//!
//! Where [`crate::trace`] answers *"where did the time go?"* after a run, this
//! module answers *"where is the run right now?"* while it is still going.
//! Instrumented sites emit typed [`Event`] records — job lifecycle transitions,
//! stage enter/exit, fraction-complete progress, checkpoints — into one global
//! mutex-held ring buffer. Consumers ([`Subscriber`]) read with a sequence
//! cursor: the serve daemon streams them over SSE, the campaign binary renders
//! a live stderr progress line and an `--events-out` JSONL file.
//!
//! Emission is **off by default** and follows the same cost discipline as
//! tracing: every [`emit`] site starts with one relaxed atomic load of the
//! recorders' flags word ([`events_enabled`]), and the event payload is built
//! inside a closure that never runs while disabled.
//!
//! The bus is a *flight recorder*, not a queue: a ring of the last
//! [`capacity`] events. Writers never wait for a reader to catch up; when the
//! ring is full, each new event overwrites the oldest, counted in
//! [`dropped_events`] (also exported as the `tsc3d_obs_dropped_events_total`
//! counter in the global metrics registry). A subscriber that falls behind the
//! ring observes the gap as [`EventPoll::missed`] instead of stalling the
//! writers — the bounded-buffering half of the slow-client contract.
//!
//! Sequence numbers are process-global, dense (`0, 1, 2, …`), and assigned under
//! the ring's lock as the event lands, so the ring always holds a run of
//! consecutive `seq` values, a poll delivers a gap-free run, and
//! `Last-Event-ID`-style resume is just [`subscribe_from`]`(last + 1)`.
//!
//! The ring holds events only. Spans keep their own collector in
//! [`crate::trace`]: a trace export needs a whole run's spans, while live readers
//! need only a short replay window.
//!
//! ```
//! use tsc3d_obs::event::{self, EventKind};
//!
//! event::set_events(true);
//! let mut sub = event::subscribe();
//! event::emit(|| EventKind::Progress { phase: "sa", done: 3, total: 10 });
//! let poll = sub.poll(16);
//! assert_eq!(poll.missed, 0);
//! assert_eq!(poll.events.len(), 1);
//! assert_eq!(poll.events[0].fraction(), Some(0.3));
//! event::set_events(false);
//! ```
//!
//! Like spans, events must never perturb results: emission only reads clocks
//! and bumps atomics, so seeded flow/campaign/sca outputs stay byte-identical
//! whether events are on or off.

use std::cell::Cell;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::marker::PhantomData;
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::json::write_string;
use crate::metrics::Metric;
use crate::trace::SpanGuard;

/// Events the ring retains; past it each new event overwrites the oldest.
const CAPACITY: usize = 1 << 13;

/// One recorded event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Process-global dense sequence number, assigned as the event lands in
    /// the ring (0-based).
    pub seq: u64,
    /// Nanoseconds since the process-wide obs epoch (shared with span
    /// timestamps, so events and spans interleave on one timeline).
    pub ts_ns: u64,
    /// The job this event belongs to (see [`JobScope`]), or 0 when the
    /// emitting thread is not inside any job.
    pub job: u64,
    /// What happened.
    pub kind: EventKind,
}

/// The typed payload of an [`Event`].
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A job changed lifecycle state.
    Job {
        /// New lifecycle state.
        state: JobState,
        /// Short human label for the job (e.g. `"flow"`, `"n100/seed3"`).
        label: String,
    },
    /// A named stage was entered (`enter == true`) or exited.
    Stage {
        /// Stage name (e.g. `"floorplan"`, `"verify"`).
        name: &'static str,
        /// `true` on entry, `false` on exit.
        enter: bool,
    },
    /// Fraction-complete progress within a named phase: `done` of `total`
    /// units are finished.
    Progress {
        /// Phase name (e.g. `"sa"`, `"thermal_sweeps"`, `"campaign_jobs"`).
        phase: &'static str,
        /// Units completed so far.
        done: u64,
        /// Total units expected (0 when unknown).
        total: u64,
    },
    /// A named checkpoint landed at some value (e.g. a CPA evaluation at a
    /// trace count).
    Checkpoint {
        /// Checkpoint name (e.g. `"cpa_traces"`).
        name: &'static str,
        /// The checkpoint value.
        value: u64,
    },
    /// A campaign-level throughput snapshot: jobs done/total plus the EWMA
    /// job duration and the ETA derived from it.
    Eta {
        /// Jobs finished so far.
        done: u64,
        /// Total jobs in the campaign.
        total: u64,
        /// Exponentially weighted moving average of job wall time, in ns.
        ewma_ns: u64,
        /// Estimated time to completion, in ns.
        eta_ns: u64,
    },
}

/// Job lifecycle states carried by [`EventKind::Job`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted and waiting for a worker.
    Queued,
    /// Picked up by a worker.
    Started,
    /// Finished successfully.
    Finished,
    /// Finished with an error.
    Failed,
}

impl JobState {
    /// Lower-case wire name (`"queued"`, `"started"`, …).
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Started => "started",
            JobState::Finished => "finished",
            JobState::Failed => "failed",
        }
    }
}

impl Event {
    /// Fraction complete in `[0, 1]` for progress-bearing events, or `None`.
    pub fn fraction(&self) -> Option<f64> {
        match &self.kind {
            EventKind::Progress { done, total, .. } | EventKind::Eta { done, total, .. }
                if *total > 0 =>
            {
                Some((*done as f64 / *total as f64).min(1.0))
            }
            _ => None,
        }
    }

    /// The kind discriminator as a wire name (`"job"`, `"stage"`,
    /// `"progress"`, `"checkpoint"`, `"eta"`) — also the SSE `event:` field.
    pub fn kind_name(&self) -> &'static str {
        match &self.kind {
            EventKind::Job { .. } => "job",
            EventKind::Stage { .. } => "stage",
            EventKind::Progress { .. } => "progress",
            EventKind::Checkpoint { .. } => "checkpoint",
            EventKind::Eta { .. } => "eta",
        }
    }

    /// Encode the event as one flat JSON object (no trailing newline). This is
    /// the `--events-out` JSONL line format and the SSE `data:` payload.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(96);
        let _ = write!(
            out,
            "{{\"seq\":{},\"ts_ns\":{},\"job\":{},\"kind\":\"{}\"",
            self.seq,
            self.ts_ns,
            self.job,
            self.kind_name()
        );
        match &self.kind {
            EventKind::Job { state, label } => {
                let _ = write!(out, ",\"state\":\"{}\",\"label\":", state.as_str());
                write_string(label, &mut out);
            }
            EventKind::Stage { name, enter } => {
                out.push_str(",\"name\":");
                write_string(name, &mut out);
                let _ = write!(out, ",\"enter\":{enter}");
            }
            EventKind::Progress { phase, done, total } => {
                out.push_str(",\"phase\":");
                write_string(phase, &mut out);
                let _ = write!(out, ",\"done\":{done},\"total\":{total}");
            }
            EventKind::Checkpoint { name, value } => {
                out.push_str(",\"name\":");
                write_string(name, &mut out);
                let _ = write!(out, ",\"value\":{value}");
            }
            EventKind::Eta {
                done,
                total,
                ewma_ns,
                eta_ns,
            } => {
                let _ = write!(
                    out,
                    ",\"done\":{done},\"total\":{total},\"ewma_ns\":{ewma_ns},\"eta_ns\":{eta_ns}"
                );
            }
        }
        out.push('}');
        out
    }
}

// --- Global ring -------------------------------------------------------------------

/// The retained events, oldest first, with consecutive sequence numbers ending
/// just below `next_seq`.
struct Ring {
    events: VecDeque<Event>,
    next_seq: u64,
}

/// The ring, locked. A poisoned lock is recovered: no critical section can
/// panic between its updates, and [`StageScope`] emits from `Drop`, which must
/// not panic.
fn ring() -> MutexGuard<'static, Ring> {
    static RING: Mutex<Ring> = Mutex::new(Ring {
        events: VecDeque::new(),
        next_seq: 0,
    });
    RING.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The counter behind [`dropped_events`], so ring overwrites are visible on `/metrics`.
static DROPPED: Metric = Metric::new(
    "tsc3d_obs_dropped_events_total",
    "Events overwritten in the flight-recorder ring before a subscriber read them",
);

/// Total retained capacity of the flight recorder, in events.
pub fn capacity() -> usize {
    CAPACITY
}

/// Turn runtime event emission on or off.
pub fn set_events(on: bool) {
    crate::set_recorder(crate::EVENTS, on);
}

/// Whether event emission is currently recording: a single relaxed atomic load.
#[inline(always)]
pub fn events_enabled() -> bool {
    crate::recorders() & crate::EVENTS != 0
}

/// Number of events overwritten in the ring before any subscriber could have
/// read them (the flight recorder wrapped). Also exported as the
/// `tsc3d_obs_dropped_events_total` counter in [`crate::metrics::global`].
pub fn dropped_events() -> u64 {
    DROPPED.get()
}

/// The sequence number the *next* emitted event will receive. Equivalently,
/// the number of events emitted so far.
pub fn next_seq() -> u64 {
    ring().next_seq
}

/// Emit one event. When emission is disabled this costs one relaxed atomic
/// load and `make` never runs. The event is stamped with the calling thread's
/// current [`JobScope`] job id (0 outside any scope).
#[inline]
pub fn emit(make: impl FnOnce() -> EventKind) {
    if events_enabled() {
        record(make());
    }
}

/// Lands `kind` in the ring, stamped with the calling thread's job, for a caller that
/// has found events on already.
pub(crate) fn record(kind: EventKind) {
    let job = current_job();
    let mut ring = ring();
    let overwrote = ring.events.len() == CAPACITY;
    if overwrote {
        ring.events.pop_front();
    }
    let seq = ring.next_seq;
    ring.next_seq += 1;
    ring.events.push_back(Event {
        seq,
        ts_ns: crate::trace::now_ns(),
        job,
        kind,
    });
    drop(ring);
    if overwrote {
        DROPPED.inc();
    }
}

/// Open a flow stage: a [`crate::span!`] named `name` plus a paired
/// [`EventKind::Stage`] enter/exit — enter now, exit when the returned scope
/// drops, so early returns and `?` propagation still close the stage on the
/// stream. The exit event is emitted before the span closes.
#[must_use = "the stage exit event fires when the scope drops"]
pub fn stage_scope(name: &'static str) -> Scope {
    let mut scope = scope(name);
    scope.stage = Some(name);
    if scope.events {
        record(EventKind::Stage { name, enter: true });
    }
    scope
}

/// Open a span named `name` that [`Scope::close`] ends with its counters and its
/// closing event (an SA epoch with its progress).
#[must_use = "a scope's span closes when it drops; binding it to `_` closes it immediately"]
pub fn scope(name: &'static str) -> Scope {
    let on = crate::recorders();
    Scope {
        stage: None,
        events: on & crate::EVENTS != 0,
        span: SpanGuard::open(on & crate::TRACING != 0, name),
    }
}

/// A span paired with the events that mark it, opened by [`stage_scope`] or
/// [`scope`]. The scope reads the recorders' flags once, when it opens: with tracing
/// and events off, opening and closing it costs one relaxed load, and what it
/// records follows the flags it read then.
pub struct Scope {
    /// The stage whose exit event the drop emits; `None` for a plain [`scope`].
    stage: Option<&'static str>,
    /// Whether events were on when the scope opened.
    events: bool,
    span: SpanGuard,
}

impl Scope {
    /// Ends the scope: adds `counters` to its span, emits `event` (which never runs
    /// while events are off), then closes the span.
    pub fn close(self, counters: &[(&'static str, u64)], event: impl FnOnce() -> EventKind) {
        if self.span.armed {
            for &(name, n) in counters {
                crate::trace::add_to_innermost(name, n);
            }
        }
        if self.events {
            record(event());
        }
    }
}

impl Drop for Scope {
    fn drop(&mut self) {
        if let (Some(name), true) = (self.stage, self.events) {
            record(EventKind::Stage { name, enter: false });
        }
    }
}

// --- Job scope ---------------------------------------------------------------------

thread_local! {
    static CURRENT_JOB: Cell<u64> = const { Cell::new(0) };
}

/// The job id events emitted by the calling thread are stamped with (0 when
/// the thread is not inside a [`JobScope`]).
pub fn current_job() -> u64 {
    CURRENT_JOB.with(Cell::get)
}

/// An RAII guard attributing events emitted by the calling thread to a job id.
///
/// Deep instrumentation sites (SA epochs, thermal sweeps, CPA checkpoints)
/// don't know which serve or campaign job they run under; the job runner
/// enters a scope around the work and every event emitted on that thread picks
/// the id up automatically. Scopes nest (the innermost wins, the guard
/// restores the previous id on drop) and the guard is `!Send` so the scope
/// cannot leak across threads. Work fanned out to pool workers runs *outside*
/// the scope and is stamped with job 0 — it still appears on the global
/// stream, just not under the job filter.
#[must_use = "a job scope is active until the guard drops; binding it to `_` ends it immediately"]
pub struct JobScope {
    prev: u64,
    _not_send: PhantomData<*const ()>,
}

impl JobScope {
    /// Attribute events on the calling thread to `job` until the guard drops.
    pub fn enter(job: u64) -> JobScope {
        let prev = CURRENT_JOB.with(|cell| cell.replace(job));
        JobScope {
            prev,
            _not_send: PhantomData,
        }
    }
}

impl Drop for JobScope {
    fn drop(&mut self) {
        CURRENT_JOB.with(|cell| cell.set(self.prev));
    }
}

// --- Subscribers -------------------------------------------------------------------

/// The result of one [`Subscriber::poll`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EventPoll {
    /// Delivered events, consecutive in sequence order.
    pub events: Vec<Event>,
    /// Events between the cursor and the first delivered event that aged out
    /// of the ring before this subscriber read them.
    pub missed: u64,
}

/// A polling cursor over the global event ring.
///
/// Each subscriber is independent: it remembers the next sequence number it
/// wants and advances as it polls. Subscribers never block emitters; a slow
/// subscriber simply reports [`EventPoll::missed`] once the ring laps it.
#[derive(Debug)]
pub struct Subscriber {
    cursor: u64,
}

/// Subscribe starting at the *next* event emitted (nothing historical).
pub fn subscribe() -> Subscriber {
    subscribe_from(next_seq())
}

/// Subscribe starting at sequence number `seq` (events still in the ring are
/// replayed; older ones count as missed). `Last-Event-ID: n` resume maps to
/// `subscribe_from(n + 1)`.
pub fn subscribe_from(seq: u64) -> Subscriber {
    Subscriber { cursor: seq }
}

impl Subscriber {
    /// Deliver up to `max` events at or past the cursor, in sequence order,
    /// and advance the cursor past them. Events the ring already overwrote are
    /// reported in [`EventPoll::missed`] rather than delivered. Returns an
    /// empty poll when nothing new has been emitted.
    pub fn poll(&mut self, max: usize) -> EventPoll {
        let ring = ring();
        let oldest = ring.next_seq - ring.events.len() as u64;
        let missed = oldest.saturating_sub(self.cursor);
        let from = self.cursor.max(oldest);
        let skip = (from - oldest).min(ring.events.len() as u64) as usize;
        let events: Vec<Event> = ring.events.range(skip..).take(max).cloned().collect();
        drop(ring);
        self.cursor = from + events.len() as u64;
        EventPoll { events, missed }
    }
}
