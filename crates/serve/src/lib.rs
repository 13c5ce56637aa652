//! # tsc3d-serve: a persistent evaluation service
//!
//! The ROADMAP's north star is serving floorplan/leakage evaluations on demand, not just
//! offline batches. This crate turns the flow (`tsc3d`) and the campaign engine
//! (`tsc3d-campaign`) into a long-running daemon:
//!
//! * **Hand-rolled HTTP/1.1 API** ([`http`], [`server`]) on [`std::net::TcpListener`] —
//!   the vendored deps are data-less stand-ins, so no hyper/tokio; a blocking accept loop
//!   submits each connection to a small [`tsc3d::exec::Pool`] of handler threads, which
//!   contains a panicking handler. Endpoints: `POST /v1/jobs` (submit a flow
//!   run, a campaign spec, or a trace-level side-channel evaluation — an `"sca"`
//!   submission runs the flow once, attacks both mitigation states via `tsc3d-sca` and
//!   returns the MTD verdict), `GET /v1/jobs/{id}` (status), `GET /v1/jobs/{id}/result`
//!   (result JSON), `DELETE /v1/jobs/{id}` (cancel a queued or running job),
//!   `GET /healthz`, `GET /metrics` (Prometheus text: queue depth, cache
//!   hit rate, jobs in flight, per-stage latency histograms), and `POST /v1/shutdown`
//!   (graceful drain — the signal-free stop path of the `serve` binary).
//! * **Persistent executor** ([`jobs`]): submissions run on a long-lived shared FIFO pool
//!   ([`tsc3d::exec::Pool`], the pool that also backs `campaign run` and the Table-2
//!   experiment loop), in submission order; campaigns submitted over the API share the
//!   same pool. HTTP connections run on a second pool, so status and metrics stay served
//!   while every evaluation worker is busy. Shutdown drains (every accepted job completes
//!   and persists) before joining.
//! * **Content-addressed result cache** ([`cache`], [`payload`]): the cache key is the
//!   canonical JSON of the submission body, so identical submissions dedup in flight
//!   (joining the running job) and hit the cache afterwards — with byte-identical result
//!   bodies. The cache is LRU-bounded (`--cache-cap`).
//! * **Restart/resume** ([`state`]): completed results append to
//!   `<state-dir>/results.jsonl` (flush per line, torn-tail repair on startup — the
//!   campaign sink's crash-tolerance model), so a restarted server serves completed
//!   results from disk without re-running anything. A disk index (key → byte offset)
//!   covers every persisted result, so even entries evicted from the bounded cache are
//!   re-read instead of re-run.
//! * **Backpressure and bounds**: a bounded in-flight queue (`429` beyond), request-head
//!   and body size limits (`431`/`413`), a whole-request read deadline against slow-loris
//!   clients (`408`), a cap on how many flow runs one campaign submission may expand to
//!   (`400`), a bounded status table (old settled jobs expire), a fixed budget of
//!   concurrent SSE watchers ([`sse::MAX_WATCHERS`], `503` beyond), and `503` while
//!   draining.
//! * **Cancellation and deadlines** ([`jobs`]): every job carries a clonable
//!   [`tsc3d::exec::CancelToken`]; `DELETE /v1/jobs/{id}` fires it and the job settles
//!   with the typed `"cancelled"` status at its next cooperative checkpoint (flow stage
//!   boundary, SA epoch, solver sweep, sca trace batch). An optional `deadline_ms`
//!   submission field bounds execution wall-clock the same way, and graceful shutdown is
//!   itself bounded: a drain watchdog cancels stragglers after
//!   [`ServerConfig::drain_timeout`]. Interrupted runs are never cached or persisted —
//!   resubmitting the spec re-runs it from scratch.
//!
//! ```no_run
//! use tsc3d_serve::{Server, ServerConfig};
//!
//! let mut config = ServerConfig::default();
//! config.addr = "127.0.0.1:0".to_string(); // ephemeral port
//! let server = Server::start(config).expect("server boots");
//! println!("serving on http://{}", server.local_addr());
//! server.shutdown(); // drain, then join
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod http;
pub mod jobs;
pub mod metrics;
pub mod payload;
pub mod server;
pub mod sse;
pub mod state;

pub use cache::ResultCache;
pub use jobs::{Admission, CancelOutcome, JobService, JobState, Refusal};
pub use metrics::Metrics;
pub use payload::{canonical_key, key_hash, parse_payload, Payload};
pub use server::{ServeError, Server, ServerConfig};
pub use state::{StateError, StateFile};
