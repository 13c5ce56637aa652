//! The live-progress event bus: a bounded flight recorder with cursor-based
//! subscribers.
//!
//! Where [`crate::trace`] answers *"where did the time go?"* after a run, this
//! module answers *"where is the run right now?"* while it is still going.
//! Instrumented sites emit typed [`Event`] records — job lifecycle transitions,
//! stage enter/exit, fraction-complete progress, checkpoints — into a global
//! lock-sharded ring buffer. Consumers ([`Subscriber`]) read with a sequence
//! cursor: the serve daemon streams them over SSE, the campaign binary renders
//! a live stderr progress line and an `--events-out` JSONL file.
//!
//! Emission is **off by default** and follows the same cost discipline as
//! tracing: every [`emit`] site starts with one relaxed atomic load of the
//! enable flag ([`events_enabled`]), and the event payload is built inside a
//! closure that never runs while disabled. The `tracing` cargo feature compiles
//! the sites out entirely.
//!
//! The bus is a *flight recorder*, not a queue: a fixed-capacity ring keyed by
//! sequence number. Writers never block on readers; when the ring wraps, the
//! oldest events are overwritten and counted in [`dropped_events`] (also
//! exported as the `tsc3d_obs_dropped_events_total` counter in the global
//! metrics registry). A subscriber that falls behind the ring observes the gap
//! as [`EventPoll::missed`] instead of stalling the writers — the bounded-
//! buffering half of the slow-client contract.
//!
//! Sequence numbers are process-global, dense (`0, 1, 2, …`), and assigned at
//! emission, so a delivered run of events with consecutive `seq` values is
//! provably gap-free and `Last-Event-ID`-style resume is just
//! [`subscribe_from`]`(last + 1)`.
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
use std::fmt::Write as _;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

use crate::json::write_string;
use crate::metrics::Counter;

/// Number of ring shards. Writers map onto shards by sequence number, so two
/// concurrent emitters contend on the same lock only once every [`SHARDS`]
/// events.
pub const SHARDS: usize = 16;

/// Ring slots per shard; total retained capacity is `SHARDS * SHARD_SLOTS`.
const SHARD_SLOTS: usize = 1 << 9;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_SEQ: AtomicU64 = AtomicU64::new(0);

/// One recorded event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Process-global dense sequence number, assigned at emission (0-based).
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

struct Bus {
    /// `shards[seq % SHARDS][(seq / SHARDS) % SHARD_SLOTS]` holds the event
    /// with that sequence number (or an older/newer resident of the slot).
    shards: Vec<Mutex<Vec<Option<Event>>>>,
}

fn bus() -> &'static Bus {
    static BUS: OnceLock<Bus> = OnceLock::new();
    BUS.get_or_init(|| Bus {
        shards: (0..SHARDS)
            .map(|_| Mutex::new(vec![None; SHARD_SLOTS]))
            .collect(),
    })
}

/// The counter behind [`dropped_events`], registered in the global metrics
/// registry so ring overwrites are visible on `/metrics`.
fn dropped_counter() -> &'static Counter {
    static DROPPED: OnceLock<Counter> = OnceLock::new();
    DROPPED.get_or_init(|| {
        crate::metrics::global().counter(
            "tsc3d_obs_dropped_events_total",
            "Events overwritten in the flight-recorder ring before a subscriber read them",
        )
    })
}

/// Total retained capacity of the flight recorder, in events.
pub fn capacity() -> usize {
    SHARDS * SHARD_SLOTS
}

/// Turn runtime event emission on or off.
pub fn set_events(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether event emission is currently recording. Compiled to `false` without
/// the `tracing` cargo feature; otherwise a single relaxed atomic load.
#[inline(always)]
pub fn events_enabled() -> bool {
    cfg!(feature = "tracing") && ENABLED.load(Ordering::Relaxed)
}

/// Number of events overwritten in the ring before any subscriber could have
/// read them (the flight recorder wrapped). Also exported as the
/// `tsc3d_obs_dropped_events_total` counter in [`crate::metrics::global`].
pub fn dropped_events() -> u64 {
    dropped_counter().get()
}

/// The sequence number the *next* emitted event will receive. Equivalently,
/// the number of events emitted so far.
pub fn next_seq() -> u64 {
    NEXT_SEQ.load(Ordering::Relaxed)
}

/// Emit one event. When emission is disabled this costs one relaxed atomic
/// load and `make` never runs. The event is stamped with the calling thread's
/// current [`JobScope`] job id (0 outside any scope).
#[inline]
pub fn emit(make: impl FnOnce() -> EventKind) {
    if !events_enabled() {
        return;
    }
    record(current_job(), make());
}

/// Emit one event attributed to an explicit job id, regardless of the calling
/// thread's [`JobScope`]. Same cost discipline as [`emit`].
#[inline]
pub fn emit_for_job(job: u64, make: impl FnOnce() -> EventKind) {
    if !events_enabled() {
        return;
    }
    record(job, make());
}

fn record(job: u64, kind: EventKind) {
    let seq = NEXT_SEQ.fetch_add(1, Ordering::Relaxed);
    let event = Event {
        seq,
        ts_ns: crate::trace::now_ns(),
        job,
        kind,
    };
    let shard = (seq as usize) % SHARDS;
    let slot = (seq as usize / SHARDS) % SHARD_SLOTS;
    let mut ring = bus().shards[shard].lock().unwrap();
    if ring[slot].is_some() {
        dropped_counter().inc();
    }
    ring[slot] = Some(event);
}

/// Emit a paired [`EventKind::Stage`] enter/exit: enter now, exit when the
/// returned guard drops — so early returns and `?` propagation still close the
/// stage on the stream. Same cost discipline as [`emit`].
#[must_use = "the stage exit event fires when the guard drops"]
pub fn stage_scope(name: &'static str) -> StageScope {
    emit(|| EventKind::Stage { name, enter: true });
    StageScope { name }
}

/// The RAII guard of [`stage_scope`]; dropping it emits the stage-exit event.
pub struct StageScope {
    name: &'static str,
}

impl Drop for StageScope {
    fn drop(&mut self) {
        let name = self.name;
        emit(|| EventKind::Stage { name, enter: false });
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
    /// Delivered events, in strictly increasing (though not necessarily
    /// consecutive — see `missed`) sequence order.
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
    /// The next sequence number this subscriber will deliver.
    pub fn cursor(&self) -> u64 {
        self.cursor
    }

    /// Deliver up to `max` events at or past the cursor, in sequence order,
    /// and advance the cursor past them. Events the ring already overwrote are
    /// reported in [`EventPoll::missed`] rather than delivered. Returns an
    /// empty poll when nothing new has been emitted.
    pub fn poll(&mut self, max: usize) -> EventPoll {
        let bus = bus();
        // Lock all shards up front: emitters allocate their sequence number
        // *before* taking a shard lock, so with the locks held the set of
        // landed events is frozen and a missing slot can only mean a writer
        // mid-flight (stop and retry next poll) — never a reordering.
        let rings: Vec<MutexGuard<'_, Vec<Option<Event>>>> =
            bus.shards.iter().map(|s| s.lock().unwrap()).collect();
        let head = NEXT_SEQ.load(Ordering::Relaxed);
        let mut missed = 0u64;
        let mut events = Vec::new();
        let mut seq = self.cursor;
        while seq < head && events.len() < max {
            let shard = (seq as usize) % SHARDS;
            let slot = (seq as usize / SHARDS) % SHARD_SLOTS;
            match &rings[shard][slot] {
                Some(event) if event.seq == seq => {
                    events.push(event.clone());
                    seq += 1;
                }
                Some(event) if event.seq > seq => {
                    // The ring lapped this sequence number; the event is gone.
                    missed += 1;
                    seq += 1;
                }
                // Empty slot or an older resident: the emitter that owns this
                // sequence number hasn't landed it yet. Stop here to keep the
                // delivered run gap-free; the next poll picks it up.
                _ => break,
            }
        }
        drop(rings);
        self.cursor = seq;
        EventPoll { events, missed }
    }
}
