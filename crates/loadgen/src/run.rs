//! Executing a schedule against a live serve instance.
//!
//! Workers are `tsc3d-exec` pool jobs sharing one schedule through an atomic
//! cursor, so the *set* of requests issued is identical for any worker count —
//! only the interleaving changes. Two pacing modes:
//!
//! - **closed-loop**: each worker issues its next request as soon as the
//!   previous one finishes (fixed concurrency = worker count); latency is
//!   measured around the request itself.
//! - **open-loop**: each request has an intended send time from the seeded
//!   schedule, and latency is measured from that *intended* time — a request
//!   delayed because the generator fell behind still pays for the delay. This
//!   is the coordinated-omission-free measurement: a stalled server cannot
//!   hide its stall by slowing the generator down.

use crate::client::{self, Outcome, ReadMode};
use crate::mix::OpKind;
use crate::schedule::ScheduledRequest;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tsc3d_exec::{CancelToken, Pool};
use tsc3d_obs::LogHistogram;

/// Pacing discipline for a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Fixed concurrency; issue as fast as responses return.
    Closed,
    /// Seeded arrival schedule; latency from intended send time.
    Open,
}

impl Mode {
    /// The identity string used in BENCH_serve.json rows.
    pub fn as_str(self) -> &'static str {
        match self {
            Mode::Closed => "closed",
            Mode::Open => "open",
        }
    }

    /// Parses `closed` / `open`.
    pub fn parse(s: &str) -> Option<Mode> {
        match s {
            "closed" => Some(Mode::Closed),
            "open" => Some(Mode::Open),
            _ => None,
        }
    }
}

/// Per-endpoint accumulation shared by all workers.
#[derive(Default)]
pub struct EndpointRecord {
    /// Request latency (ns), HDR log-bucketed.
    pub latency: LogHistogram,
    /// 2xx/3xx responses.
    pub ok: AtomicU64,
    /// 4xx responses (expected under probing workloads — e.g. polls of
    /// not-yet-allocated job ids).
    pub client_errors: AtomicU64,
    /// 5xx responses.
    pub server_errors: AtomicU64,
    /// Requests that never produced a parseable status line.
    pub io_errors: AtomicU64,
}

impl EndpointRecord {
    /// Records one request outcome with its latency.
    pub fn record(&self, outcome: &Outcome, latency: Duration) {
        let nanos = latency.as_nanos().min(u128::from(u64::MAX)) as u64;
        self.latency.observe(nanos.max(1));
        match outcome {
            Outcome::Status(status) if (500..600).contains(status) => {
                self.server_errors.fetch_add(1, Ordering::Relaxed)
            }
            Outcome::Status(status) if (400..500).contains(status) => {
                self.client_errors.fetch_add(1, Ordering::Relaxed)
            }
            Outcome::Status(_) => self.ok.fetch_add(1, Ordering::Relaxed),
            Outcome::IoError => self.io_errors.fetch_add(1, Ordering::Relaxed),
        };
    }

    /// Total requests recorded against this endpoint.
    pub fn total(&self) -> u64 {
        self.latency.count()
    }
}

/// Everything one run produced.
pub struct RunResult {
    /// Per-endpoint latency/outcome accumulators, keyed by endpoint identity.
    pub endpoints: BTreeMap<&'static str, Arc<EndpointRecord>>,
    /// Wall-clock duration of the issuing phase.
    pub elapsed: Duration,
    /// Requests actually issued (≤ schedule length when the deadline fires).
    pub issued: usize,
    /// Total 5xx responses across endpoints.
    pub server_errors: u64,
    /// Total transport-level failures across endpoints.
    pub io_errors: u64,
}

impl RunResult {
    /// Overall achieved request rate (issued / elapsed).
    pub fn requests_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.issued as f64 / secs
    }
}

/// Parameters of one run.
pub struct RunConfig {
    /// Server address.
    pub addr: SocketAddr,
    /// Pacing discipline.
    pub mode: Mode,
    /// Worker count (closed-loop concurrency; open-loop issuing parallelism).
    pub workers: usize,
    /// Per-request socket timeout.
    pub timeout: Duration,
    /// Overall wall-clock budget; the run stops issuing when it elapses.
    pub deadline: Duration,
}

/// Runs `schedule` against the server and returns the per-endpoint results.
pub fn execute(config: &RunConfig, schedule: Arc<Vec<ScheduledRequest>>) -> RunResult {
    let mut endpoints: BTreeMap<&'static str, Arc<EndpointRecord>> = BTreeMap::new();
    for request in schedule.iter() {
        endpoints.entry(request.endpoint).or_default();
    }
    let cursor = Arc::new(AtomicUsize::new(0));
    let cancel = CancelToken::new().with_deadline(config.deadline);
    let workers = config.workers.max(1);
    let pool = Pool::with_batch_workers(workers);
    let started = Instant::now();

    {
        let endpoints = endpoints.clone();
        let schedule = Arc::clone(&schedule);
        let cursor = Arc::clone(&cursor);
        let cancel = cancel.clone();
        let addr = config.addr;
        let mode = config.mode;
        let timeout = config.timeout;
        // One job per worker: the calling thread runs one of them while it helps
        // inside `run_batch` (a single job runs inline), the `workers - 1` pool
        // threads the rest; the shared cursor hands out the requests.
        let jobs: Vec<usize> = (0..workers).collect();
        pool.run_batch(jobs, move |_, _| {
            worker_loop(
                &schedule, &cursor, &endpoints, addr, mode, timeout, started, &cancel,
            )
        });
    }
    pool.shutdown();

    let elapsed = started.elapsed();
    let issued = cursor.load(Ordering::Relaxed).min(schedule.len());
    let server_errors = endpoints
        .values()
        .map(|r| r.server_errors.load(Ordering::Relaxed))
        .sum();
    let io_errors = endpoints
        .values()
        .map(|r| r.io_errors.load(Ordering::Relaxed))
        .sum();
    RunResult {
        endpoints,
        elapsed,
        issued,
        server_errors,
        io_errors,
    }
}

#[allow(clippy::too_many_arguments)]
fn worker_loop(
    schedule: &[ScheduledRequest],
    cursor: &AtomicUsize,
    endpoints: &BTreeMap<&'static str, Arc<EndpointRecord>>,
    addr: SocketAddr,
    mode: Mode,
    timeout: Duration,
    started: Instant,
    cancel: &CancelToken,
) {
    loop {
        if cancel.is_cancelled().is_some() {
            return;
        }
        let index = cursor.fetch_add(1, Ordering::Relaxed);
        let Some(request) = schedule.get(index) else {
            return;
        };
        let record = &endpoints[request.endpoint];
        let read_mode = match request.kind {
            OpKind::Watch => ReadMode::HeadOnly,
            _ => ReadMode::FullBody,
        };
        let latency_from = match mode {
            Mode::Closed => Instant::now(),
            Mode::Open => {
                // Sleep until the intended send time, then measure from it:
                // if we are already late, the wait the request *would* have
                // experienced counts against the server, not the generator.
                let intended = started + Duration::from_nanos(request.offset_ns);
                let now = Instant::now();
                if intended > now {
                    std::thread::sleep(intended - now);
                }
                intended
            }
        };
        let outcome = client::issue(
            addr,
            request.method,
            &request.path,
            &request.body,
            read_mode,
            timeout,
        );
        record.record(&outcome, latency_from.elapsed());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_round_trips() {
        assert_eq!(Mode::parse("closed"), Some(Mode::Closed));
        assert_eq!(Mode::parse("open"), Some(Mode::Open));
        assert_eq!(Mode::parse("warp"), None);
        assert_eq!(Mode::Open.as_str(), "open");
    }

    #[test]
    fn endpoint_record_classifies_outcomes() {
        let record = EndpointRecord::default();
        record.record(&Outcome::Status(200), Duration::from_micros(50));
        record.record(&Outcome::Status(404), Duration::from_micros(60));
        record.record(&Outcome::Status(503), Duration::from_micros(70));
        record.record(&Outcome::IoError, Duration::from_micros(80));
        assert_eq!(record.ok.load(Ordering::Relaxed), 1);
        assert_eq!(record.client_errors.load(Ordering::Relaxed), 1);
        assert_eq!(record.server_errors.load(Ordering::Relaxed), 1);
        assert_eq!(record.io_errors.load(Ordering::Relaxed), 1);
        assert_eq!(record.total(), 4);
        assert!(record.latency.quantile(0.5) > 0.0);
    }
}
