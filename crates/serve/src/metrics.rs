//! Service counters and latency histograms, rendered in Prometheus text format.
//!
//! A thin adapter over the unified [`tsc3d_obs`] registry: every serve-local
//! metric lives in a **per-instance** [`Registry`] (so several servers in one
//! process — e.g. the smoke tests — never share counters), while `/metrics`
//! renders that instance registry *plus* the process-wide [`tsc3d_obs::global`]
//! registry, picking up the `tsc3d_flow_*`, `tsc3d_thermal_*`, `tsc3d_sca_*`
//! and `tsc3d_campaign_*` families the library crates record into. Pool
//! internals ([`PoolStats`]) are sampled into `tsc3d_pool_*` gauges at render
//! time.
//!
//! Two layers of latency truth live here, all in [`LogHistogram`] registry
//! series. The job-level histograms (`tsc3d_serve_latency_seconds`,
//! `tsc3d_serve_stage_seconds`) time evaluations; the HTTP layer
//! ([`Metrics::record_http`]) times every *response* — accept to last byte,
//! cache hits and 4xx/5xx included — into the RED counter family plus one
//! histogram per route, which `/metrics` renders as buckets and `GET /v1/stats`
//! reads for its live quantiles.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use tsc3d::exec::PoolStats;
use tsc3d::StageTimings;
use tsc3d_obs::{Counter, Gauge, LogHistogram, Registry};

/// All counters of the serve daemon, backed by a per-instance [`Registry`].
#[derive(Debug)]
pub struct Metrics {
    /// The instance-local registry every handle below is registered in.
    registry: Registry,
    /// When the daemon's metrics came up (anchor of the evaluations/sec rate).
    started: Instant,
    /// Wall-clock microseconds spent inside sca attacks (trace simulation + CPA, flow
    /// excluded). Divides `trace_sims_total` into the traces/sec gauge; not exported
    /// on its own.
    trace_attack_micros: AtomicU64,
    /// Handles of the per-route `tsc3d_serve_http_latency_seconds` series
    /// (accept to last byte), so `GET /v1/stats` reads the histograms
    /// `/metrics` renders. Keyed by the normalized route label, so cardinality
    /// is bounded by the route table.
    http_latency: Mutex<BTreeMap<&'static str, LogHistogram>>,
    /// Jobs accepted by `POST /v1/jobs` (including dedups and cache hits).
    pub jobs_submitted: Counter,
    /// Jobs that actually executed a flow or campaign.
    pub jobs_executed: Counter,
    /// Jobs that failed internally (panic in the job closure).
    pub jobs_failed: Counter,
    /// Submissions joined onto an identical in-flight job.
    pub dedup_hits: Counter,
    /// Submissions answered from the result cache.
    pub cache_hits: Counter,
    /// Annealing cost evaluations performed by completed jobs (flow jobs contribute their
    /// SA loop's count; campaign jobs the sum over their successful flow runs). The
    /// observable form of the hot loop's evaluations/sec throughput in production.
    pub evaluations_total: Counter,
    /// Thermal trace simulations performed by completed sca jobs (one per observed
    /// encryption; an sca submission contributes its baseline plus mitigated traces).
    pub trace_sims_total: Counter,
    /// Time from submission to execution start.
    pub queue_wait: LogHistogram,
    /// Total job execution time (flow or campaign).
    pub job_latency: LogHistogram,
    /// Floorplanning-stage latency of completed flow jobs.
    stage_floorplan: LogHistogram,
    /// Voltage-assignment-stage latency.
    stage_assign: LogHistogram,
    /// Detailed-verification-stage latency.
    stage_verify: LogHistogram,
    /// Post-processing-stage latency.
    stage_post_process: LogHistogram,
    // Gauges sampled at render time.
    traces_per_sec_gauge: Gauge,
    evaluations_per_sec_gauge: Gauge,
    jobs_in_flight_gauge: Gauge,
    cache_entries_gauge: Gauge,
    cache_hit_rate_gauge: Gauge,
    pool_queue_depth: Gauge,
    pool_active_workers: Gauge,
    pool_parks: Gauge,
    pool_tasks: Gauge,
    pool_busy_seconds: Gauge,
}

impl Default for Metrics {
    fn default() -> Self {
        let registry = Registry::new();
        let stage = |registry: &Registry, name: &str| {
            registry.histogram_with(
                "tsc3d_serve_stage_seconds",
                "Flow-stage latencies of completed flow jobs",
                &[("stage", name)],
            )
        };
        let latency = |registry: &Registry, phase: &str| {
            registry.histogram_with(
                "tsc3d_serve_latency_seconds",
                "Job latencies by phase",
                &[("phase", phase)],
            )
        };
        Self {
            started: Instant::now(),
            trace_attack_micros: AtomicU64::new(0),
            http_latency: Mutex::new(BTreeMap::new()),
            jobs_submitted: registry.counter(
                "tsc3d_serve_jobs_submitted_total",
                "Job submissions accepted",
            ),
            jobs_executed: registry.counter(
                "tsc3d_serve_jobs_executed_total",
                "Jobs that executed (not deduped or cached)",
            ),
            jobs_failed: registry.counter(
                "tsc3d_serve_jobs_failed_total",
                "Jobs that failed internally",
            ),
            dedup_hits: registry.counter(
                "tsc3d_serve_dedup_hits_total",
                "Submissions joined onto an in-flight identical job",
            ),
            cache_hits: registry.counter(
                "tsc3d_serve_cache_hits_total",
                "Submissions served from the result cache",
            ),
            evaluations_total: registry.counter(
                "tsc3d_serve_evaluations_total",
                "Annealing cost evaluations performed by completed jobs",
            ),
            trace_sims_total: registry.counter(
                "tsc3d_serve_trace_sims_total",
                "Thermal trace simulations performed by completed sca jobs",
            ),
            queue_wait: latency(&registry, "queue_wait"),
            job_latency: latency(&registry, "job_total"),
            stage_floorplan: stage(&registry, "floorplan"),
            stage_assign: stage(&registry, "assign"),
            stage_verify: stage(&registry, "verify"),
            stage_post_process: stage(&registry, "post_process"),
            traces_per_sec_gauge: registry.gauge(
                "tsc3d_serve_traces_per_sec",
                "Trace simulations per second of sca attack wall-clock (busy-time throughput of the kernel trace engine)",
            ),
            evaluations_per_sec_gauge: registry.gauge(
                "tsc3d_serve_evaluations_per_sec",
                "Evaluations per second averaged since daemon start (prefer rate() over the counter for windowed throughput)",
            ),
            jobs_in_flight_gauge: registry.gauge(
                "tsc3d_serve_jobs_in_flight",
                "Jobs queued or running",
            ),
            cache_entries_gauge: registry.gauge(
                "tsc3d_serve_cache_entries",
                "Results held in the cache",
            ),
            cache_hit_rate_gauge: registry.gauge(
                "tsc3d_serve_cache_hit_rate",
                "Cache hits per submission",
            ),
            pool_queue_depth: registry.gauge(
                "tsc3d_pool_queue_depth",
                "Tasks queued on the evaluation pool, not yet started",
            ),
            pool_active_workers: registry.gauge(
                "tsc3d_pool_active_workers",
                "Pool tasks currently executing",
            ),
            pool_parks: registry.gauge(
                "tsc3d_pool_parks_total",
                "Times a pool worker parked with no visible work (sampled)",
            ),
            pool_tasks: registry.gauge(
                "tsc3d_pool_tasks_total",
                "Pool tasks executed to completion (sampled)",
            ),
            pool_busy_seconds: registry.gauge(
                "tsc3d_pool_busy_seconds_total",
                "Busy seconds across pool workers and batch helpers (sampled)",
            ),
            registry,
        }
    }
}

/// The `method` label value of a request — a closed table like
/// [`status_label`]: the methods the router answers, `-` for a request refused
/// before it was parsed, and `other` for any other token a client sends, so no
/// client can grow the label set.
fn method_label(method: &str) -> &'static str {
    match method {
        "GET" => "GET",
        "POST" => "POST",
        "DELETE" => "DELETE",
        "-" => "-",
        _ => "other",
    }
}

/// The `status` label value of a response code — the static table keeps
/// [`Metrics::record_http`] allocation-free and the label set closed.
fn status_label(status: u16) -> &'static str {
    match status {
        200 => "200",
        202 => "202",
        400 => "400",
        404 => "404",
        405 => "405",
        408 => "408",
        409 => "409",
        413 => "413",
        429 => "429",
        431 => "431",
        500 => "500",
        503 => "503",
        s if (500..600).contains(&s) => "5xx",
        s if (400..500).contains(&s) => "4xx",
        s if (200..300).contains(&s) => "2xx",
        _ => "other",
    }
}

impl Metrics {
    /// Evaluations per second averaged over the daemon's whole uptime (0 before the first
    /// evaluation).
    ///
    /// A lifetime average decays during idle periods; dashboards that want the sustained
    /// under-load throughput should compute `rate(tsc3d_serve_evaluations_total[5m])`
    /// from the counter instead — this gauge is the zero-dependency summary.
    pub fn evaluations_per_sec(&self) -> f64 {
        let uptime = self.started.elapsed().as_secs_f64();
        if uptime <= 0.0 {
            return 0.0;
        }
        self.evaluations_total.get() as f64 / uptime
    }

    /// Trace simulations per second of attack wall-clock time (0 before the first sca
    /// job). Unlike [`Self::evaluations_per_sec`] this is busy-time throughput, not a
    /// lifetime average: idle periods do not decay it, so it tracks the kernel trace
    /// engine's sustained rate directly.
    pub fn traces_per_sec(&self) -> f64 {
        let busy_s = self.trace_attack_micros.load(Ordering::Relaxed) as f64 / 1e6;
        if busy_s <= 0.0 {
            return 0.0;
        }
        self.trace_sims_total.get() as f64 / busy_s
    }

    /// Records one completed sca attack: `traces` simulated encryptions over `seconds`
    /// of attack wall-clock (flow time excluded by the caller).
    pub fn observe_attack(&self, traces: u64, seconds: f64) {
        self.trace_sims_total.add(traces);
        self.trace_attack_micros
            .fetch_add((seconds.max(0.0) * 1e6) as u64, Ordering::Relaxed);
    }

    /// Records one handled HTTP exchange at the connection layer: `route` is
    /// the normalized path label (`/v1/jobs/{id}`, not the literal path, so
    /// label cardinality stays bounded), `method` is mapped through a closed
    /// table, and `latency` runs from socket accept to the last response byte.
    /// Feeds two sinks:
    ///
    /// * `tsc3d_serve_http_requests_total{path,method,status}` — the RED
    ///   request/error counter family,
    /// * `tsc3d_serve_http_latency_seconds{path}` — the per-route latency
    ///   histogram, rendered as buckets on `/metrics` and read for the live
    ///   quantiles of `GET /v1/stats`.
    ///
    /// Unlike the job-level histograms, this sees every response — cache hits,
    /// 4xx refusals, and 5xx failures included.
    pub fn record_http(&self, route: &'static str, method: &str, status: u16, latency: Duration) {
        self.registry
            .counter_with(
                "tsc3d_serve_http_requests_total",
                "HTTP requests handled, by normalized path, method, and status",
                &[
                    ("path", route),
                    ("method", method_label(method)),
                    ("status", status_label(status)),
                ],
            )
            .inc();
        self.http_latency
            .lock()
            .expect("http latency map")
            .entry(route)
            .or_insert_with(|| {
                self.registry.histogram_with(
                    "tsc3d_serve_http_latency_seconds",
                    "HTTP request latency from accept to last byte, by normalized path",
                    &[("path", route)],
                )
            })
            .observe(latency.as_nanos().min(u128::from(u64::MAX)) as u64);
    }

    /// The per-route latency histograms (handles share cells with the live
    /// recorders and with `/metrics` — cheap, and consistent enough for a stats
    /// endpoint). Routes in label order.
    pub fn http_snapshot(&self) -> Vec<(&'static str, LogHistogram)> {
        self.http_latency
            .lock()
            .expect("http latency map")
            .iter()
            .map(|(route, h)| (*route, h.clone()))
            .collect()
    }

    /// Seconds since the daemon's metrics came up.
    pub fn uptime_seconds(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Bumps the `tsc3d_serve_rejected_total{reason}` family: one series per refusal
    /// reason (`"busy"` for the 429 queue-full path, `"draining"` for 503s during
    /// shutdown, `"watchers"` for SSE requests beyond the watcher budget).
    pub fn record_rejected(&self, reason: &str) {
        self.registry
            .counter_with(
                "tsc3d_serve_rejected_total",
                "Submissions refused, by reason",
                &[("reason", reason)],
            )
            .inc();
    }

    /// Bumps the `tsc3d_serve_job_failures_total{kind}` family: one series per terminal
    /// failure kind (`"cancelled"`, `"shutdown"`, `"deadline"`, `"panic"`, `"error"`),
    /// so operators can tell an operator-driven cancellation from a crash at a glance.
    pub fn record_job_failure(&self, kind: &str) {
        self.registry
            .counter_with(
                "tsc3d_serve_job_failures_total",
                "Jobs that settled without a result, by failure kind",
                &[("kind", kind)],
            )
            .inc();
    }

    /// Records the per-stage wall-clock breakdown of one completed flow run.
    pub fn observe_stages(&self, timings: &StageTimings) {
        self.stage_floorplan.observe_secs(timings.floorplan_s);
        self.stage_assign.observe_secs(timings.assign_s);
        self.stage_verify.observe_secs(timings.verify_s);
        self.stage_post_process.observe_secs(timings.post_process_s);
    }

    /// The cache hit rate over all submissions (0 when nothing was submitted).
    pub fn cache_hit_rate(&self) -> f64 {
        let submitted = self.jobs_submitted.get();
        if submitted == 0 {
            return 0.0;
        }
        self.cache_hits.get() as f64 / submitted as f64
    }

    /// Renders the Prometheus exposition text: this instance's families followed by the
    /// process-wide [`tsc3d_obs::global`] registry (flow/thermal/sca/campaign families).
    /// `pool`, `jobs_in_flight` and `cache_len` are sampled by the caller (they live in
    /// the pool/cache, not here).
    pub fn render(&self, pool: &PoolStats, jobs_in_flight: usize, cache_len: usize) -> String {
        self.jobs_in_flight_gauge.set(jobs_in_flight as f64);
        self.cache_entries_gauge.set(cache_len as f64);
        self.cache_hit_rate_gauge.set(self.cache_hit_rate());
        self.evaluations_per_sec_gauge
            .set(self.evaluations_per_sec());
        self.traces_per_sec_gauge.set(self.traces_per_sec());
        self.pool_queue_depth.set(pool.queued as f64);
        self.pool_active_workers.set(pool.active as f64);
        self.pool_parks.set(pool.parks as f64);
        self.pool_tasks.set(pool.executed as f64);
        self.pool_busy_seconds
            .set(pool.busy_ns_total() as f64 / 1e9);
        let mut out = self.registry.render();
        tsc3d_obs::global().render_into(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idle_pool() -> PoolStats {
        PoolStats {
            threads: 0,
            queued: 0,
            active: 0,
            steals: 0,
            parks: 0,
            unparks: 0,
            executed: 0,
            busy_ns: vec![0],
        }
    }

    #[test]
    fn histograms_are_cumulative_and_render() {
        let metrics = Metrics::default();
        metrics.job_latency.observe(3_000_000); // 3 ms
        metrics.job_latency.observe(70_000_000); // 70 ms
        metrics.job_latency.observe(1_000_000_000_000); // 1000 s, past the last bound
        assert_eq!(metrics.job_latency.count(), 3);
        let mut pool = idle_pool();
        pool.queued = 2;
        let text = metrics.render(&pool, 1, 4);
        assert!(text.contains("tsc3d_pool_queue_depth 2"));
        assert!(text.contains("tsc3d_serve_jobs_in_flight 1"));
        assert!(text.contains("phase=\"job_total\",le=\"+Inf\"} 3"));
        // 0.003 and 0.07 are both <= 0.1: the cumulative bucket holds 2.
        assert!(text.contains("phase=\"job_total\",le=\"0.1\"} 2"));
        assert!(text.contains("tsc3d_serve_latency_seconds_count{phase=\"job_total\"} 3"));
    }

    #[test]
    fn http_layer_red_metrics_record_all_outcomes() {
        let metrics = Metrics::default();
        metrics.record_http("/healthz", "GET", 200, Duration::from_micros(150));
        metrics.record_http("/healthz", "GET", 200, Duration::from_micros(250));
        metrics.record_http("/v1/jobs", "POST", 429, Duration::from_millis(1));
        let text = metrics.render(&idle_pool(), 0, 0);
        assert!(text.contains("tsc3d_serve_http_requests_total"), "{text}");
        assert!(text.contains("status=\"429\"} 1"), "{text}");
        assert!(text.contains("status=\"200\"} 2"), "{text}");
        assert!(
            text.contains("tsc3d_serve_http_latency_seconds_bucket"),
            "{text}"
        );
        // The bucket grid resolves sub-millisecond latencies: the 150µs hit lands
        // under the 250µs bound, the 250µs one (in the HDR cell straddling that
        // bound) under 500µs.
        assert!(
            text.contains(
                "tsc3d_serve_http_latency_seconds_bucket{path=\"/healthz\",le=\"0.00025\"} 1"
            ),
            "{text}"
        );
        assert!(
            text.contains(
                "tsc3d_serve_http_latency_seconds_bucket{path=\"/healthz\",le=\"0.0005\"} 2"
            ),
            "{text}"
        );

        // `/v1/stats` reads the very histograms `/metrics` renders: one per route,
        // each response observed once.
        let snapshot = metrics.http_snapshot();
        assert_eq!(snapshot.len(), 2, "one histogram per route");
        let healthz = &snapshot.iter().find(|(r, _)| *r == "/healthz").unwrap().1;
        assert_eq!(healthz.count(), 2);
        assert!(
            text.contains("tsc3d_serve_http_latency_seconds_count{path=\"/healthz\"} 2"),
            "{text}"
        );
        let p50 = healthz.quantile(0.5);
        assert!((100_000.0..300_000.0).contains(&p50), "{p50}");
    }

    #[test]
    fn status_labels_are_closed_set() {
        assert_eq!(status_label(200), "200");
        assert_eq!(status_label(502), "5xx");
        assert_eq!(status_label(418), "4xx");
        assert_eq!(status_label(204), "2xx");
        assert_eq!(status_label(301), "other");
    }

    #[test]
    fn method_labels_are_closed_set() {
        for method in ["GET", "POST", "DELETE", "-"] {
            assert_eq!(method_label(method), method);
        }
        for method in ["PUT", "get", "X1-10587", ""] {
            assert_eq!(method_label(method), "other");
        }
    }

    #[test]
    fn evaluation_throughput_is_exported() {
        let metrics = Metrics::default();
        assert_eq!(metrics.evaluations_per_sec(), 0.0);
        metrics.evaluations_total.add(1200);
        std::thread::sleep(std::time::Duration::from_millis(5));
        assert!(metrics.evaluations_per_sec() > 0.0);
        let text = metrics.render(&idle_pool(), 0, 0);
        assert!(text.contains("tsc3d_serve_evaluations_total 1200"));
        assert!(text.contains("tsc3d_serve_evaluations_per_sec"));
    }

    #[test]
    fn trace_throughput_is_busy_time_not_uptime() {
        let metrics = Metrics::default();
        assert_eq!(metrics.traces_per_sec(), 0.0);
        metrics.observe_attack(512, 2.0);
        metrics.observe_attack(512, 2.0);
        // 1024 traces over 4 s of attack time: 256/s, regardless of daemon uptime.
        assert!((metrics.traces_per_sec() - 256.0).abs() < 1e-9);
        let text = metrics.render(&idle_pool(), 0, 0);
        assert!(text.contains("tsc3d_serve_trace_sims_total 1024"));
        assert!(text.contains("tsc3d_serve_traces_per_sec 256"));
    }

    #[test]
    fn cache_hit_rate_is_hits_over_submissions() {
        let metrics = Metrics::default();
        assert_eq!(metrics.cache_hit_rate(), 0.0);
        metrics.jobs_submitted.add(4);
        metrics.cache_hits.add(1);
        assert_eq!(metrics.cache_hit_rate(), 0.25);
    }

    #[test]
    fn instances_do_not_share_counters() {
        let a = Metrics::default();
        let b = Metrics::default();
        a.jobs_executed.inc();
        assert_eq!(a.jobs_executed.get(), 1);
        assert_eq!(b.jobs_executed.get(), 0);
    }

    #[test]
    fn render_includes_pool_sample() {
        let metrics = Metrics::default();
        let pool = PoolStats {
            threads: 2,
            queued: 3,
            active: 1,
            steals: 0,
            parks: 5,
            unparks: 5,
            executed: 42,
            busy_ns: vec![1_500_000_000, 500_000_000, 0],
        };
        let text = metrics.render(&pool, 0, 0);
        assert!(text.contains("tsc3d_pool_queue_depth 3"));
        assert!(text.contains("tsc3d_pool_active_workers 1"));
        assert!(!text.contains("tsc3d_pool_steals_total"));
        assert!(text.contains("tsc3d_pool_tasks_total 42"));
        assert!(text.contains("tsc3d_pool_busy_seconds_total 2"));
    }
}
