//! Workspace-wide observability: structured tracing, a unified metrics
//! registry, and a leveled logger — hand-rolled, dependency-free, and cheap
//! enough to live inside the SA/trace hot loops.
//!
//! The crate sits at the bottom of the workspace (next to `tsc3d-exec`) so every
//! analysis crate can instrument itself without dependency cycles. These
//! independent facilities share it:
//!
//! * **Tracing** ([`trace`], [`span!`]): RAII span guards on a thread-local
//!   stack, with per-span counters and one global collector (a mutex-held
//!   vector of up to 1 048 576 finished spans). Off by default; when disabled
//!   every instrumentation site costs one relaxed atomic load (see
//!   [Recording a fact](#recording-a-fact)). Enable with
//!   [`set_tracing`]`(true)` (the campaign and serve binaries do this for
//!   `--trace-out PATH`), export with [`drain_spans`] + [`spans_to_jsonl`], and
//!   render the aggregated self/total-time tree with `obs report PATH` (or
//!   [`aggregate`] + [`render_tree`] in code); `obs flamegraph PATH`
//!   ([`render_folded`]) collapses the same export into folded-stack lines any
//!   flamegraph renderer accepts.
//! * **Events** ([`event`]): a bounded flight-recorder event bus for *live*
//!   progress — typed job/stage/progress/checkpoint records with dense
//!   sequence numbers in one mutex-held ring of the last 8 192 events, read by
//!   cursor-based [`Subscriber`]s. Spans stay out of the ring: a trace export
//!   needs the whole run, live readers only a short replay window. Off by
//!   default with the same one-relaxed-load discipline; enable with
//!   [`set_events`]`(true)` (serve does this at startup for its SSE
//!   endpoints, campaign for `--progress`/`--events-out`).
//! * **Metrics** ([`metrics`]): counters, gauges, histograms and labeled
//!   families in a [`Registry`] with a Prometheus-text encoder. The one
//!   histogram type is the log-bucketed HDR [`LogHistogram`] over nanoseconds
//!   (≤3.125% relative error from microseconds to minutes): every registry
//!   histogram series is one, rendered as `le` buckets on the one grid
//!   [`metrics::LE_GRID_S`], and serve's `/v1/stats`, loadgen and the
//!   `obs report` quantiles read the same type.
//!   Library crates record into the process-wide [`metrics::global`] registry;
//!   the serve daemon renders it on `GET /metrics` alongside its own
//!   service-local registry.
//! * **Logging** ([`log`], [`log_error!`]/[`log_warn!`]/[`log_info!`]/
//!   [`log_debug!`]): timestamped leveled lines on stderr, filtered by the
//!   `TSC3D_LOG` environment variable, so diagnostics never pollute the report
//!   and table output the binaries print on stdout.
//! * **JSON** ([`json`]): the workspace's one JSON codec — results files, bench
//!   files, span exports, event lines and HTTP bodies all go through [`json::Json`].
//!
//! ```
//! use tsc3d_obs as obs;
//!
//! obs::set_tracing(true);
//! {
//!     let _span = obs::span!("flow");
//!     {
//!         let _span = obs::span!("sa_epoch");
//!         obs::trace::add_to_span("evaluations", 4800);
//!     }
//! }
//! let spans = obs::drain_spans();
//! assert_eq!(spans.len(), 2);
//! let report = obs::render_tree(&obs::aggregate(&spans));
//! assert!(report.contains("sa_epoch"));
//! obs::set_tracing(false);
//! ```
//!
//! # Recording a fact
//!
//! A fact the program records — an SA epoch, a detailed solve's sweeps, a CPA
//! checkpoint — is declared once and recorded by one call, however many stores
//! it lands in:
//!
//! * a registry counter is a `static` [`Metric`] (name, help, constant labels),
//!   declared beside the code that records it and registered in
//!   [`metrics::global`] on first touch. [`Metric::on_span`] names the span
//!   counter it also feeds, so [`Metric::add`] records the fact in both, and
//!   [`Metric::add_and_emit`] adds its event too;
//! * a span with the events that mark it is a [`Scope`]: [`stage_scope`] emits a
//!   flow stage's enter and exit events, and an SA epoch's [`scope`] closes with
//!   its span counters and its progress event ([`Scope::close`]).
//!
//! Both recorders' enable flags share one word, so each such call reads it once:
//! with tracing and events off, a call costs one relaxed load besides its
//! registry add. The README's Observability section lists every fact recorded
//! this way with its registry series, span counter and event. Series whose label
//! is known only at run time (failures by kind, flow-stage latency) are looked up
//! in the registry where they are recorded.
//!
//! Instrumentation must never perturb results: spans and counters only read
//! clocks and bump atomics, so seeded flow/campaign/sca outputs stay
//! byte-identical whether tracing is on or off.

#![warn(missing_docs)]

use std::sync::atomic::{AtomicU8, Ordering};

pub mod bench;
pub mod event;
pub mod flame;
pub mod hdr;
pub mod json;
pub mod log;
pub mod metrics;
pub mod report;
pub mod trace;

pub use event::{
    dropped_events, emit, events_enabled, scope, set_events, stage_scope, subscribe,
    subscribe_from, Event, EventKind, EventPoll, JobScope, JobState, Scope, Subscriber,
};
pub use flame::{render_folded, render_top};
pub use hdr::LogHistogram;
pub use log::{log_enabled, set_log_filter, Level};
pub use metrics::{global, Counter, Gauge, Metric, Registry};
pub use report::{
    aggregate, fmt_ns, parse_jsonl, render_quantiles, render_tree, spans_to_jsonl, TreeNode,
};
pub use trace::{
    add_to_span, adopt_parent, current_span, drain_spans, dropped_spans, set_tracing,
    snapshot_spans, tracing_enabled, AdoptedParent, SpanGuard, SpanRecord,
};

/// Which recorders are on, one bit each ([`TRACING`], [`EVENTS`]), in one word so a
/// call that feeds both reads it once: with both off it costs one relaxed load.
static RECORDERS: AtomicU8 = AtomicU8::new(0);

/// The [`RECORDERS`] bit of the span collector ([`set_tracing`]).
const TRACING: u8 = 1;
/// The [`RECORDERS`] bit of the event ring ([`set_events`]).
const EVENTS: u8 = 2;

/// The [`RECORDERS`] bits: one relaxed load.
#[inline(always)]
fn recorders() -> u8 {
    RECORDERS.load(Ordering::Relaxed)
}

/// Turns one recorder's bit on or off, leaving the other's as it is.
fn set_recorder(bit: u8, on: bool) {
    if on {
        RECORDERS.fetch_or(bit, Ordering::Relaxed);
    } else {
        RECORDERS.fetch_and(!bit, Ordering::Relaxed);
    }
}
