//! The daemon: a blocking accept loop feeding HTTP handler threads, the API routes, and
//! graceful drain-then-join shutdown.

use crate::cache::ResultCache;
use crate::http::{read_request, write_response, Request, RequestError, Response};
use crate::jobs::{Admission, JobService, JobState, Refusal};
use crate::metrics::Metrics;
use crate::payload::{canonical_key, key_hash, parse_payload};
use crate::state::{StateError, StateFile};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tsc3d::exec::Pool;
use tsc3d_obs::json::Json;

/// Configuration of the serve daemon.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`host:port`; port 0 picks an ephemeral port).
    pub addr: String,
    /// Worker threads of the evaluation pool.
    pub workers: usize,
    /// Directory of the persistent state (`results.jsonl`); `None` keeps results in
    /// memory only.
    pub state_dir: Option<PathBuf>,
    /// Result-cache capacity (entries); 0 disables caching.
    pub cache_cap: usize,
    /// Maximum jobs in flight (queued + running) before submissions get `429`.
    pub queue_cap: usize,
    /// Maximum accepted request-body size in bytes (`413` beyond).
    pub max_body_bytes: usize,
    /// Threads handling HTTP connections (separate from the evaluation pool, so status
    /// and metrics endpoints stay responsive while every evaluation worker is busy).
    pub http_threads: usize,
    /// Settled (done/failed) job-table entries retained for `GET /v1/jobs/{id}`; older
    /// entries expire (results stay reachable via cache/disk by resubmitting the spec).
    pub jobs_retained: usize,
    /// Maximum flow runs a single campaign submission may expand to (`400` beyond) — one
    /// request counts as one queue slot, so its expansion must be bounded or the queue
    /// cap would not bound the actual work.
    pub max_campaign_jobs: usize,
    /// How long [`Server::shutdown`] lets the evaluation pool drain before the watchdog
    /// cancels the remaining jobs ([`tsc3d::exec::CancelReason::Shutdown`]) so the
    /// process can exit. Completed jobs are already persisted; cancelled ones re-run on
    /// resubmission.
    pub drain_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7878".to_string(),
            workers: tsc3d::experiment::default_workers(),
            state_dir: None,
            cache_cap: 1024,
            queue_cap: 256,
            max_body_bytes: 1024 * 1024,
            http_threads: 4,
            jobs_retained: 4096,
            max_campaign_jobs: 10_000,
            drain_timeout: Duration::from_secs(30),
        }
    }
}

/// Errors of server startup.
#[derive(Debug)]
pub enum ServeError {
    /// The listener could not bind.
    Bind(std::io::Error),
    /// The state directory could not be opened or recovered.
    State(StateError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Bind(e) => write!(f, "could not bind the listener: {e}"),
            ServeError::State(e) => write!(f, "could not recover server state: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Bind(e) => Some(e),
            ServeError::State(e) => Some(e),
        }
    }
}

/// State shared by every connection handler.
struct Shared {
    jobs: Arc<JobService>,
    metrics: Arc<Metrics>,
    /// Submissions are refused (`503`) but status/metrics stay served — set by
    /// `POST /v1/shutdown` and by [`Server::shutdown`].
    draining: AtomicBool,
    /// The accept loop exits — set only by [`Server::shutdown`], after which nothing is
    /// served at all.
    stop_accepting: AtomicBool,
    /// SSE streams open now, bounded by [`crate::sse::MAX_WATCHERS`].
    watchers: AtomicUsize,
    max_body_bytes: usize,
    max_campaign_jobs: usize,
    /// Bound on the graceful drain ([`ServerConfig::drain_timeout`]).
    drain_timeout: Duration,
    /// Set by `POST /v1/shutdown`; [`Server::wait_shutdown_requested`] parks on it so the
    /// binary can run the graceful drain path without OS signal handling.
    shutdown_requested: (Mutex<bool>, Condvar),
}

/// A running serve daemon. Dropping it without [`Server::shutdown`] aborts less
/// gracefully (threads are detached); call `shutdown` for the drain-then-join path.
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    accept_thread: Option<JoinHandle<()>>,
    http_threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds the listener, recovers persisted results, and spawns the accept loop plus
    /// the HTTP handler threads.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError`] when the address cannot be bound or the state directory
    /// cannot be recovered (I/O failure or an interior-corrupt results file).
    pub fn start(config: ServerConfig) -> Result<Self, ServeError> {
        // The daemon always records live events: the SSE endpoints are part of
        // its API surface, and emission costs one relaxed load per site plus a
        // sharded ring write — noise next to any evaluation it serves.
        tsc3d_obs::set_events(true);
        let listener = TcpListener::bind(&config.addr).map_err(ServeError::Bind)?;
        let local_addr = listener.local_addr().map_err(ServeError::Bind)?;

        let (state, seed_entries) = match &config.state_dir {
            None => (None, Vec::new()),
            Some(dir) => {
                let (state, entries) = StateFile::open(dir).map_err(ServeError::State)?;
                (Some(state), entries)
            }
        };

        let metrics = Arc::new(Metrics::default());
        let jobs = Arc::new(JobService::new(
            Pool::new(config.workers.max(1)),
            ResultCache::new(config.cache_cap),
            state,
            seed_entries,
            Arc::clone(&metrics),
            config.queue_cap,
            config.jobs_retained,
        ));
        let shared = Arc::new(Shared {
            jobs,
            metrics,
            draining: AtomicBool::new(false),
            stop_accepting: AtomicBool::new(false),
            watchers: AtomicUsize::new(0),
            max_body_bytes: config.max_body_bytes,
            max_campaign_jobs: config.max_campaign_jobs,
            drain_timeout: config.drain_timeout,
            shutdown_requested: (Mutex::new(false), Condvar::new()),
        });

        // Connection hand-off: the accept loop stays dumb, handlers pull from a channel.
        // The accept timestamp rides along so HTTP latency covers channel queueing —
        // measured from accept, not from when a handler thread got around to the read.
        let (tx, rx) = mpsc::channel::<(Instant, TcpStream)>();
        let rx = Arc::new(Mutex::new(rx));
        let http_threads = (0..config.http_threads.max(1))
            .map(|_| {
                let rx = Arc::clone(&rx);
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || loop {
                    let next = rx.lock().expect("connection channel").recv();
                    match next {
                        Ok((accepted, stream)) => handle_connection(&shared, accepted, stream),
                        Err(_) => return, // sender dropped: shutdown
                    }
                })
            })
            .collect();

        let accept_thread = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if shared.stop_accepting.load(Ordering::SeqCst) {
                        return; // tx drops here, handlers drain and exit
                    }
                    match stream {
                        Ok(stream) => {
                            if tx.send((Instant::now(), stream)).is_err() {
                                return;
                            }
                        }
                        Err(e) => tsc3d_obs::log_warn!("serve", "accept error: {e}"),
                    }
                }
            })
        };

        Ok(Self {
            shared,
            local_addr,
            accept_thread: Some(accept_thread),
            http_threads,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Blocks until a client requests a graceful stop via `POST /v1/shutdown`. The
    /// binary's main thread parks here and then runs [`Server::shutdown`] — the drain
    /// path stays reachable in deployments without OS signal handling.
    pub fn wait_shutdown_requested(&self) {
        let (flag, condvar) = &self.shared.shutdown_requested;
        let mut requested = flag.lock().expect("shutdown flag");
        while !*requested {
            requested = condvar.wait(requested).expect("shutdown condvar");
        }
    }

    /// Graceful shutdown: stop accepting, finish in-progress connections, then drain the
    /// evaluation pool (every accepted job completes and persists) and join all threads.
    pub fn shutdown(mut self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        self.shared.stop_accepting.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a no-op connection. A wildcard bind (0.0.0.0/[::])
        // is not a connectable destination everywhere, so aim at loopback on the bound
        // port instead, and bound the attempt so a platform oddity cannot wedge shutdown.
        let mut wake_addr = self.local_addr;
        if wake_addr.ip().is_unspecified() {
            wake_addr.set_ip(std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST));
        }
        let _ = TcpStream::connect_timeout(&wake_addr, Duration::from_secs(2));
        if let Some(accept) = self.accept_thread.take() {
            let _ = accept.join();
        }
        for handle in self.http_threads.drain(..) {
            let _ = handle.join();
        }
        // The drain is bounded: a watchdog cancels whatever is still in flight once
        // `drain_timeout` passes, so a wedged or very long evaluation cannot hold the
        // process hostage. The cancelled jobs settle through their cooperative
        // checkpoints; completed ones were already persisted line-by-line.
        let (drained_tx, drained_rx) = mpsc::channel::<()>();
        let watchdog = {
            let shared = Arc::clone(&self.shared);
            let timeout = self.shared.drain_timeout;
            std::thread::spawn(move || {
                if drained_rx.recv_timeout(timeout).is_err() {
                    let fired = shared
                        .jobs
                        .cancel_in_flight(tsc3d::exec::CancelReason::Shutdown);
                    if fired > 0 {
                        tsc3d_obs::log_warn!(
                            "serve",
                            "drain exceeded {}s; cancelled {fired} in-flight job(s)",
                            timeout.as_secs()
                        );
                    }
                }
            })
        };
        self.shared.jobs.shutdown();
        let _ = drained_tx.send(());
        let _ = watchdog.join();
    }
}

/// The bounded-cardinality route label of a request — literal ids collapse to
/// `{id}` placeholders and unknown paths to `other`, so the `path` label of
/// the HTTP metric families stays a closed set no client can grow.
fn route_label(path: &str) -> &'static str {
    match path {
        "/healthz" => "/healthz",
        "/metrics" => "/metrics",
        "/v1/stats" => "/v1/stats",
        "/v1/trace" => "/v1/trace",
        "/v1/jobs" => "/v1/jobs",
        "/v1/shutdown" => "/v1/shutdown",
        "/v1/events" => "/v1/events",
        _ if path.starts_with("/v1/jobs/") => {
            if path.ends_with("/result") {
                "/v1/jobs/{id}/result"
            } else if path.ends_with("/events") {
                "/v1/jobs/{id}/events"
            } else {
                "/v1/jobs/{id}"
            }
        }
        _ => "other",
    }
}

/// Handles one connection: one request, one response, close — except the SSE
/// routes, which take the stream over on a dedicated thread while the watcher
/// budget lasts ([`spawn_watcher`]) and get `503` with `Retry-After` beyond it.
/// `accepted` is when the listener accepted the socket; every response is
/// recorded against it via [`Metrics::record_http`], including refusals the
/// router never sees.
fn handle_connection(shared: &Arc<Shared>, accepted: Instant, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
    let (route_name, method, response) = match read_request(&mut stream, shared.max_body_bytes) {
        Ok(request) => {
            let label = route_label(&request.path);
            let response = match crate::sse::sse_target(&request) {
                None => route(shared, &request),
                Some(target) => match WatcherSlot::acquire(shared) {
                    Some(slot) => {
                        spawn_watcher(slot, accepted, stream, request, target);
                        return;
                    }
                    None => {
                        shared.metrics.record_rejected("watchers");
                        Response::error(
                            503,
                            &format!(
                                "{} event streams already open; retry later",
                                crate::sse::MAX_WATCHERS
                            ),
                        )
                        .with_header("retry-after", "1".to_string())
                    }
                },
            };
            (label, request.method, response)
        }
        // A read that tripped the per-read socket timeout is a stalled client, not a dead
        // socket: answer with the documented 408 (the write usually still succeeds — the
        // stall is on the client's send side).
        Err(RequestError::Io(e))
            if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ) =>
        {
            let response = Response::error(408, &RequestError::Timeout.to_string());
            let _ = write_response(&mut stream, &response);
            shared
                .metrics
                .record_http("(bad-request)", "-", 408, accepted.elapsed());
            return;
        }
        Err(RequestError::Io(_)) => return, // nothing to answer on a dead socket
        Err(e) => {
            // The request was refused before its body was consumed; answer, then drain
            // what the client is still sending so the close is graceful (an immediate
            // close would RST the client mid-write and destroy the response).
            let response = Response::error(e.status(), &e.to_string());
            if write_response(&mut stream, &response).is_ok() {
                discard_excess_input(&mut stream);
            }
            shared
                .metrics
                .record_http("(bad-request)", "-", e.status(), accepted.elapsed());
            return;
        }
    };
    let status = response.status;
    if let Err(e) = write_response(&mut stream, &response) {
        tsc3d_obs::log_warn!("serve", "write error: {e}");
    }
    shared
        .metrics
        .record_http(route_name, &method, status, accepted.elapsed());
}

/// An admitted SSE watcher's place in the [`crate::sse::MAX_WATCHERS`] budget, given back
/// when dropped: when its stream ends, or if its thread unwinds.
struct WatcherSlot(Arc<Shared>);

impl WatcherSlot {
    /// Takes a slot, or `None` when the budget is spent.
    fn acquire(shared: &Arc<Shared>) -> Option<Self> {
        shared
            .watchers
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |open| {
                (open < crate::sse::MAX_WATCHERS).then_some(open + 1)
            })
            .ok()?;
        Some(Self(Arc::clone(shared)))
    }
}

impl Drop for WatcherSlot {
    fn drop(&mut self) {
        self.0.watchers.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Hands an admitted SSE request its own thread for the life of the stream (a long-lived
/// watcher must not pin one of the few handler threads); the slot is released when the
/// stream ends.
fn spawn_watcher(
    slot: WatcherSlot,
    accepted: Instant,
    stream: TcpStream,
    request: Request,
    target: crate::sse::SseTarget,
) {
    std::thread::spawn(move || {
        let shared = Arc::clone(&slot.0);
        // `draining` covers both shutdown paths: `POST /v1/shutdown` sets it directly
        // and `Server::shutdown` sets it alongside `stop_accepting` — watchers
        // disconnect as soon as either begins.
        let shutting_down = {
            let shared = Arc::clone(&shared);
            move || shared.draining.load(Ordering::SeqCst)
        };
        let job_phase = {
            let shared = Arc::clone(&shared);
            move |id: u64| match shared.jobs.job(id) {
                None => crate::sse::JobPhase::Missing,
                Some(job) => match job.state {
                    JobState::Done | JobState::Failed | JobState::Cancelled => {
                        crate::sse::JobPhase::Settled
                    }
                    JobState::Queued | JobState::Running => crate::sse::JobPhase::Active,
                },
            }
        };
        let label = route_label(&request.path);
        crate::sse::stream_events(stream, &request, target, shutting_down, job_phase);
        // An SSE stream has no meaningful last byte until it ends; record the whole
        // watch as one long 200.
        shared
            .metrics
            .record_http(label, "GET", 200, accepted.elapsed());
    });
}

/// Reads and discards whatever the client is still sending, bounded in bytes *and* wall
/// clock (a trickling client must not pin a handler thread), so an error response lands
/// before the connection closes.
fn discard_excess_input(stream: &mut TcpStream) {
    use std::io::Read;
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let mut scratch = [0u8; 8 * 1024];
    let mut discarded = 0usize;
    while discarded < 4 * 1024 * 1024 && std::time::Instant::now() < deadline {
        match stream.read(&mut scratch) {
            Ok(0) | Err(_) => return,
            Ok(n) => discarded += n,
        }
    }
}

/// Dispatches one request to its endpoint.
fn route(shared: &Shared, request: &Request) -> Response {
    let path = request.path.as_str();
    match (request.method.as_str(), path) {
        ("GET", "/healthz") => healthz(shared),
        ("GET", "/v1/stats") => stats(shared),
        ("GET", "/metrics") => Response::text(
            200,
            shared.metrics.render(
                &shared.jobs.pool().stats(),
                shared.jobs.in_flight(),
                shared.jobs.cache().len(),
            ),
        ),
        // The span collector so far, one JSON object per line (empty unless tracing is
        // enabled — see `tsc3d_obs::set_tracing` and the serve binary's `--trace-out`).
        ("GET", "/v1/trace") => {
            Response::text(200, tsc3d_obs::spans_to_jsonl(&tsc3d_obs::snapshot_spans()))
        }
        ("POST", "/v1/jobs") => submit(shared, request),
        ("POST", "/v1/shutdown") => request_shutdown(shared),
        ("GET", _) if path.starts_with("/v1/jobs/") => job_route(shared, path),
        ("DELETE", _) if path.starts_with("/v1/jobs/") => cancel_route(shared, path),
        (
            _,
            "/healthz" | "/metrics" | "/v1/stats" | "/v1/jobs" | "/v1/shutdown" | "/v1/trace"
            | "/v1/events",
        ) => Response::error(405, &format!("method {} not allowed here", request.method)),
        (_, _) if path.starts_with("/v1/jobs/") => {
            Response::error(405, &format!("method {} not allowed here", request.method))
        }
        _ => Response::error(404, &format!("no route for {path}")),
    }
}

fn healthz(shared: &Shared) -> Response {
    Response::json(
        200,
        &Json::Obj(vec![
            ("status".into(), Json::Str("ok".into())),
            (
                "draining".into(),
                Json::Bool(shared.draining.load(Ordering::SeqCst)),
            ),
            (
                "queue_depth".into(),
                Json::UInt(shared.jobs.pool().queued() as u64),
            ),
            (
                "jobs_in_flight".into(),
                Json::UInt(shared.jobs.in_flight() as u64),
            ),
            (
                "cache_entries".into(),
                Json::UInt(shared.jobs.cache().len() as u64),
            ),
            (
                "pool_threads".into(),
                Json::UInt(shared.jobs.pool().threads() as u64),
            ),
        ]),
    )
}

/// `GET /v1/stats`: a JSON operations snapshot — queue/cache/pool state plus
/// live per-route HTTP latency quantiles from the HDR histograms. The same
/// truth as `/metrics`, but shaped for dashboards and scripts that want one
/// structured read instead of parsing exposition text.
fn stats(shared: &Shared) -> Response {
    let pool = shared.jobs.pool().stats();
    let metrics = &shared.metrics;
    let ms = |ns: f64| {
        if ns.is_nan() {
            Json::Null
        } else {
            Json::Num(ns / 1e6)
        }
    };
    let http: Vec<Json> = metrics
        .http_snapshot()
        .into_iter()
        .map(|(route, h)| {
            Json::Obj(vec![
                ("path".into(), Json::Str(route.into())),
                ("requests".into(), Json::UInt(h.count())),
                ("p50_ms".into(), ms(h.quantile(0.50))),
                ("p95_ms".into(), ms(h.quantile(0.95))),
                ("p99_ms".into(), ms(h.quantile(0.99))),
                ("max_ms".into(), Json::Num(h.max_ns() as f64 / 1e6)),
            ])
        })
        .collect();
    Response::json(
        200,
        &Json::Obj(vec![
            ("uptime_seconds".into(), Json::Num(metrics.uptime_seconds())),
            (
                "draining".into(),
                Json::Bool(shared.draining.load(Ordering::SeqCst)),
            ),
            (
                "jobs".into(),
                Json::Obj(vec![
                    ("submitted".into(), Json::UInt(metrics.jobs_submitted.get())),
                    ("executed".into(), Json::UInt(metrics.jobs_executed.get())),
                    ("failed".into(), Json::UInt(metrics.jobs_failed.get())),
                    (
                        "in_flight".into(),
                        Json::UInt(shared.jobs.in_flight() as u64),
                    ),
                    ("dedup_hits".into(), Json::UInt(metrics.dedup_hits.get())),
                    ("cache_hits".into(), Json::UInt(metrics.cache_hits.get())),
                ]),
            ),
            (
                "cache".into(),
                Json::Obj(vec![
                    (
                        "entries".into(),
                        Json::UInt(shared.jobs.cache().len() as u64),
                    ),
                    ("hit_rate".into(), Json::Num(metrics.cache_hit_rate())),
                ]),
            ),
            (
                "pool".into(),
                Json::Obj(vec![
                    ("threads".into(), Json::UInt(pool.threads as u64)),
                    ("queued".into(), Json::UInt(pool.queued as u64)),
                    ("active".into(), Json::UInt(pool.active as u64)),
                    ("steals".into(), Json::UInt(pool.steals)),
                    ("executed".into(), Json::UInt(pool.executed)),
                    (
                        "busy_seconds".into(),
                        Json::Num(pool.busy_ns_total() as f64 / 1e9),
                    ),
                ]),
            ),
            ("http".into(), Json::Arr(http)),
        ]),
    )
}

/// `POST /v1/shutdown`: flags the graceful stop. Submissions are refused from here on
/// (503); the main thread parked in [`Server::wait_shutdown_requested`] performs the
/// actual drain-then-join.
fn request_shutdown(shared: &Shared) -> Response {
    shared.draining.store(true, Ordering::SeqCst);
    let (flag, condvar) = &shared.shutdown_requested;
    *flag.lock().expect("shutdown flag") = true;
    condvar.notify_all();
    Response::json(
        200,
        &Json::Obj(vec![("status".into(), Json::Str("draining".into()))]),
    )
}

fn submit(shared: &Shared, request: &Request) -> Response {
    if shared.draining.load(Ordering::SeqCst) {
        shared.metrics.record_rejected("draining");
        return Response::error(503, "the server is draining");
    }
    let body = match std::str::from_utf8(&request.body) {
        Ok(text) => text,
        Err(_) => return Response::error(400, "the request body is not UTF-8"),
    };
    let parsed = match Json::parse(body) {
        Ok(value) => value,
        Err(e) => return Response::error(400, &format!("invalid JSON body: {e}")),
    };
    let payload = match parse_payload(&parsed) {
        Ok(payload) => payload,
        Err(reason) => return Response::error(400, &reason),
    };
    // Optional execution deadline, accepted on every job type. It stays part of the
    // body (and thus the canonical cache key) — a bounded and an unbounded run of the
    // same spec are different requests.
    let deadline = match parsed.get("deadline_ms") {
        None => None,
        Some(value) => match value.as_u64().filter(|ms| *ms > 0) {
            Some(ms) => Some(Duration::from_millis(ms)),
            None => return Response::error(400, "field 'deadline_ms' must be a positive integer"),
        },
    };
    // One submission occupies one queue slot, so a campaign's expansion must be bounded
    // for the queue cap to bound actual work.
    if let crate::payload::Payload::Campaign(spec) = &payload {
        let jobs = spec.job_count();
        if jobs > shared.max_campaign_jobs {
            return Response::error(
                400,
                &format!(
                    "campaign expands to {jobs} flow runs, above the {}-run limit; \
                     split it into shards or smaller specs",
                    shared.max_campaign_jobs
                ),
            );
        }
    }
    let key: Arc<str> = Arc::from(canonical_key(&parsed));
    let hash = key_hash(&key);

    match shared.jobs.submit(key, payload, deadline) {
        Ok((id, admission)) => {
            let (status, state) = match admission {
                Admission::CacheHit => (200, "done"),
                Admission::Enqueued | Admission::Deduped => (202, "accepted"),
            };
            Response::json(
                status,
                &Json::Obj(vec![
                    ("id".into(), Json::UInt(id)),
                    ("status".into(), Json::Str(state.into())),
                    (
                        "deduped".into(),
                        Json::Bool(admission == Admission::Deduped),
                    ),
                    (
                        "cached".into(),
                        Json::Bool(admission == Admission::CacheHit),
                    ),
                    ("key".into(), Json::Str(hash)),
                ]),
            )
        }
        Err(Refusal::Busy { queue_cap }) => Response::error(
            429,
            &format!("{queue_cap} jobs already in flight; retry later"),
        )
        .with_header("retry-after", "1".to_string()),
        Err(Refusal::Draining) => Response::error(503, "the server is draining"),
    }
}

/// `DELETE /v1/jobs/{id}`: fires the job's cancel token. The job settles `"cancelled"`
/// at its next cooperative checkpoint — `202` means the request was accepted, not that
/// the job already stopped; poll `GET /v1/jobs/{id}` for the settled state.
fn cancel_route(shared: &Shared, path: &str) -> Response {
    let id_text = &path["/v1/jobs/".len()..];
    if id_text.ends_with("/result") || id_text.ends_with("/events") {
        return Response::error(405, "method DELETE not allowed here");
    }
    let Ok(id) = id_text.parse::<u64>() else {
        return Response::error(400, &format!("bad job id '{id_text}'"));
    };
    match shared.jobs.cancel(id) {
        crate::jobs::CancelOutcome::Accepted => Response::json(
            202,
            &Json::Obj(vec![
                ("id".into(), Json::UInt(id)),
                ("status".into(), Json::Str("cancelling".into())),
            ]),
        ),
        crate::jobs::CancelOutcome::AlreadySettled(label) => Response::error(
            409,
            &format!("job {id} already settled ({label}); nothing to cancel"),
        ),
        crate::jobs::CancelOutcome::NotFound => Response::error(404, &format!("no job {id}")),
    }
}

/// `GET /v1/jobs/{id}` and `GET /v1/jobs/{id}/result`.
fn job_route(shared: &Shared, path: &str) -> Response {
    let rest = &path["/v1/jobs/".len()..];
    let (id_text, want_result) = match rest.strip_suffix("/result") {
        Some(id_text) => (id_text, true),
        None => (rest, false),
    };
    let Ok(id) = id_text.parse::<u64>() else {
        return Response::error(400, &format!("bad job id '{id_text}'"));
    };
    let Some(job) = shared.jobs.job(id) else {
        return Response::error(404, &format!("no job {id}"));
    };

    if want_result {
        return match (job.state, &job.result) {
            (JobState::Done, Some(result)) => Response::raw_json(200, result),
            (JobState::Failed, _) => {
                Response::error(500, job.error.as_deref().unwrap_or("job failed"))
            }
            (JobState::Cancelled, _) => Response::error(
                409,
                &format!(
                    "job {id} was cancelled ({}); no result",
                    job.error.as_deref().unwrap_or("no detail")
                ),
            ),
            _ => Response::error(
                409,
                &format!("job {id} is {}; result not ready", job.state.label()),
            ),
        };
    }

    let mut members = vec![
        ("id".into(), Json::UInt(job.id)),
        ("kind".into(), Json::Str(job.kind.into())),
        ("status".into(), Json::Str(job.state.label().into())),
        ("cached".into(), Json::Bool(job.cached)),
        ("key".into(), Json::Str(key_hash(&job.key))),
    ];
    if let Some(error) = &job.error {
        members.push(("error".into(), Json::Str(error.clone())));
    }
    Response::json(200, &Json::Obj(members))
}
