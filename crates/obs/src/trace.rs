//! The structured-tracing core: thread-local span stacks, RAII guards, and one
//! global collector.
//!
//! Tracing is **off by default**. Every instrumentation site ([`SpanGuard::enter`],
//! [`add_to_span`]) starts with a single relaxed atomic load of the global enable
//! flag, so disabled tracing costs one predictable branch in hot loops.
//!
//! When enabled, each thread keeps a stack of active span frames; a guard pushes a
//! frame on construction and, on drop, pops it and appends a finished
//! [`SpanRecord`] to the one mutex-held collector. Timestamps are nanoseconds since
//! a process-wide epoch taken from a monotonic clock. The collector holds at most
//! 1 048 576 spans, whichever threads closed them; spans closed past the cap are
//! dropped and counted in [`dropped_spans`] instead of growing without bound in a
//! long-lived server.

use std::cell::{Cell, RefCell};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

/// Finished-span cap of the collector; beyond it the newest spans are dropped (and
/// counted).
const SPAN_CAP: usize = 1 << 20;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(1);

/// The counter behind [`dropped_spans`], registered in the global metrics
/// registry so collector overflow is visible on `/metrics`.
fn dropped_counter() -> &'static crate::metrics::Counter {
    static DROPPED: OnceLock<crate::metrics::Counter> = OnceLock::new();
    DROPPED.get_or_init(|| {
        crate::metrics::global().counter(
            "tsc3d_obs_dropped_spans_total",
            "Finished spans dropped because the span collector hit its cap",
        )
    })
}

/// One finished span, as recorded by the collector (or parsed back from JSONL).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Process-unique span id (never 0).
    pub id: u64,
    /// Id of the enclosing span on the same thread, or 0 for a root span.
    pub parent: u64,
    /// Obs-local id of the thread the span ran on (assigned on first use).
    pub thread: u64,
    /// Span name, as passed to [`SpanGuard::enter`].
    pub name: String,
    /// Start time in nanoseconds since the process-wide tracing epoch.
    pub start_ns: u64,
    /// Wall-clock duration in nanoseconds.
    pub dur_ns: u64,
    /// Counters attached via [`add_to_span`], in first-touch order.
    pub counters: Vec<(String, u64)>,
}

/// An in-flight span frame on a thread's stack.
struct Frame {
    id: u64,
    parent: u64,
    name: &'static str,
    start_ns: u64,
    counters: Vec<(&'static str, u64)>,
}

thread_local! {
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
    static THREAD_ID: Cell<u64> = const { Cell::new(0) };
    /// The parent of spans opened while [`STACK`] is empty (see [`adopt_parent`]).
    static ADOPTED_PARENT: Cell<u64> = const { Cell::new(0) };
}

/// The process-wide monotonic epoch all span timestamps are relative to.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

pub(crate) fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// The collector, locked. A poisoned lock is recovered: each critical section
/// pushes, clones or takes the vector whole, so it is valid at every step, and
/// span guards lock it from `Drop`, which must not panic.
fn collector() -> MutexGuard<'static, Vec<SpanRecord>> {
    static COLLECTOR: Mutex<Vec<SpanRecord>> = Mutex::new(Vec::new());
    COLLECTOR.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The obs-local id of the calling thread (assigned monotonically on first use).
pub fn thread_id() -> u64 {
    THREAD_ID.with(|cell| {
        let mut id = cell.get();
        if id == 0 {
            id = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);
            cell.set(id);
        }
        id
    })
}

/// Turn runtime tracing on or off. Spans opened while enabled still record on
/// close even if tracing was disabled in between (stack discipline is preserved).
pub fn set_tracing(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether tracing is currently recording: a single relaxed atomic load.
#[inline(always)]
pub fn tracing_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Number of finished spans dropped because the collector hit its cap.
/// Also exported as the `tsc3d_obs_dropped_spans_total` counter in
/// [`crate::metrics::global`].
pub fn dropped_spans() -> u64 {
    dropped_counter().get()
}

/// An RAII guard for one span: entering pushes a frame on the calling thread's
/// span stack, dropping pops it and records the finished [`SpanRecord`].
///
/// Guards are strictly nested per thread (the type is `!Send`), so spans opened
/// inside a task that a worker — or a caller helping inside `Pool::run_batch` —
/// executes inline nest under whatever span that thread currently has open.
#[must_use = "a span guard records its span when dropped; binding it to `_` closes it immediately"]
pub struct SpanGuard {
    armed: bool,
    _not_send: PhantomData<*const ()>,
}

impl SpanGuard {
    /// Open a span named `name`. When tracing is disabled this returns an inert
    /// guard and costs one branch.
    #[inline]
    pub fn enter(name: &'static str) -> SpanGuard {
        if !tracing_enabled() {
            return SpanGuard {
                armed: false,
                _not_send: PhantomData,
            };
        }
        let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
        let start_ns = now_ns();
        STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let parent = stack
                .last()
                .map_or_else(|| ADOPTED_PARENT.with(Cell::get), |f| f.id);
            stack.push(Frame {
                id,
                parent,
                name,
                start_ns,
                counters: Vec::new(),
            });
        });
        SpanGuard {
            armed: true,
            _not_send: PhantomData,
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let Some(frame) = STACK.with(|stack| stack.borrow_mut().pop()) else {
            return;
        };
        let record = SpanRecord {
            id: frame.id,
            parent: frame.parent,
            thread: thread_id(),
            name: frame.name.to_string(),
            start_ns: frame.start_ns,
            dur_ns: now_ns().saturating_sub(frame.start_ns),
            counters: frame
                .counters
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        };
        let mut spans = collector();
        if spans.len() < SPAN_CAP {
            spans.push(record);
        } else {
            drop(spans);
            dropped_counter().inc();
        }
    }
}

/// Add `n` to counter `name` on the innermost active span of the calling thread.
///
/// No-op (one branch) when tracing is disabled or no span is open. Counters are
/// meant for per-epoch / per-batch totals — call this once per chunk of work, not
/// once per element.
#[inline]
pub fn add_to_span(name: &'static str, n: u64) {
    if !tracing_enabled() {
        return;
    }
    STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        let Some(frame) = stack.last_mut() else {
            return;
        };
        match frame.counters.iter_mut().find(|(k, _)| *k == name) {
            Some((_, v)) => *v += n,
            None => frame.counters.push((name, n)),
        }
    });
}

/// The id of the innermost span open on the calling thread (or the parent it
/// adopted with [`adopt_parent`]); 0 when there is none.
pub fn current_span() -> u64 {
    STACK.with(|stack| {
        stack
            .borrow()
            .last()
            .map_or_else(|| ADOPTED_PARENT.with(Cell::get), |f| f.id)
    })
}

/// Makes spans opened on the calling thread while it has no span of its own open
/// children of `parent`, a span open on another thread (from [`current_span`]
/// there), until the guard drops. A helper thread working for a stage calls this
/// so its spans nest under the stage instead of appearing as roots.
///
/// The adopted spans run at the same time as the parent thread's own children, so
/// in `obs report` and the flamegraph a parent's children add both threads' time:
/// they can add up to more than the parent's wall time, whose self time is then 0.
pub fn adopt_parent(parent: u64) -> AdoptedParent {
    AdoptedParent {
        prev: ADOPTED_PARENT.with(|cell| cell.replace(parent)),
        _not_send: PhantomData,
    }
}

/// The RAII guard of [`adopt_parent`]; dropping it restores the previous parent.
#[must_use = "the adopted parent applies until the guard drops"]
pub struct AdoptedParent {
    prev: u64,
    _not_send: PhantomData<*const ()>,
}

impl Drop for AdoptedParent {
    fn drop(&mut self) {
        ADOPTED_PARENT.with(|cell| cell.set(self.prev));
    }
}

/// Remove and return all finished spans collected so far, ordered by start time.
pub fn drain_spans() -> Vec<SpanRecord> {
    let mut all = std::mem::take(&mut *collector());
    all.sort_by_key(|s| (s.start_ns, s.id));
    all
}

/// Clone all finished spans collected so far (ordered by start time) without
/// clearing the collector. This is what `GET /v1/trace` serves.
pub fn snapshot_spans() -> Vec<SpanRecord> {
    let mut all = collector().clone();
    all.sort_by_key(|s| (s.start_ns, s.id));
    all
}

/// Open a named span for the enclosing scope.
///
/// ```
/// let _span = tsc3d_obs::span!("pack");
/// ```
///
/// Expands to [`SpanGuard::enter`]; bind the guard to a named `_span` variable so
/// it lives to the end of the scope (binding to `_` drops it immediately).
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::trace::SpanGuard::enter($name)
    };
}
