//! Integration smoke of the serve daemon, driven over real sockets:
//!
//! * boot on an ephemeral port, `/healthz` answers,
//! * two identical submissions execute the flow once — the second is a dedup or cache
//!   hit — and both result bodies are byte-identical,
//! * graceful shutdown drains accepted jobs, and a restart with the same `--state-dir`
//!   serves the completed result from disk without re-running,
//! * the API fails typed: bad JSON (400), oversized bodies (413), unknown jobs (404),
//!   full queue (429).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use tsc3d_obs::json::Json;
use tsc3d_serve::{Server, ServerConfig};

/// A tiny flow submission (quick schedule shrunk further) that runs in well under a
/// second.
const FLOW_BODY: &str = "{\"type\":\"flow\",\"benchmark\":\"n100\",\"setup\":\"tsc\",\"seed\":3,\
                         \"stages\":4,\"moves\":8,\"grid_bins\":10,\"verification_bins\":10,\
                         \"activity_samples\":6,\"tsv_budget\":2}";

/// The same submission with the members in a different order — must hit the same cache
/// entry (canonical-key dedup).
const FLOW_BODY_REORDERED: &str = "{\"seed\":3,\"benchmark\":\"n100\",\"type\":\"flow\",\
                                   \"setup\":\"tsc\",\"verification_bins\":10,\"grid_bins\":10,\
                                   \"moves\":8,\"stages\":4,\"tsv_budget\":2,\
                                   \"activity_samples\":6}";

fn request(addr: std::net::SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let head = format!(
        "{method} {path} HTTP/1.1\r\nhost: test\r\ncontent-length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).unwrap();
    stream.write_all(body.as_bytes()).unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let text = String::from_utf8(raw).expect("UTF-8 response");
    let (head, payload) = text
        .split_once("\r\n\r\n")
        .expect("response has a head/body split");
    let status: u16 = head
        .split(' ')
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    (status, payload.to_string())
}

fn submit(addr: std::net::SocketAddr, body: &str) -> Json {
    let (status, payload) = request(addr, "POST", "/v1/jobs", body);
    assert!(
        status == 200 || status == 202,
        "submission failed: {status} {payload}"
    );
    Json::parse(&payload).expect("submission response is JSON")
}

fn wait_done(addr: std::net::SocketAddr, id: u64) {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (status, payload) = request(addr, "GET", &format!("/v1/jobs/{id}"), "");
        assert_eq!(status, 200, "{payload}");
        let value = Json::parse(&payload).unwrap();
        match value.get("status").and_then(Json::as_str) {
            Some("done") => return,
            Some("failed") => panic!("job {id} failed: {payload}"),
            _ => {}
        }
        assert!(Instant::now() < deadline, "job {id} did not finish in time");
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn result_body(addr: std::net::SocketAddr, id: u64) -> String {
    let (status, payload) = request(addr, "GET", &format!("/v1/jobs/{id}/result"), "");
    assert_eq!(status, 200, "{payload}");
    payload
}

fn temp_state_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tsc3d-serve-smoke-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn test_config(state_dir: Option<PathBuf>) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        state_dir,
        cache_cap: 64,
        queue_cap: 8,
        max_body_bytes: 64 * 1024,
        http_threads: 2,
        ..ServerConfig::default()
    }
}

/// `[a-zA-Z_:][a-zA-Z0-9_:]*` — the exposition-format metric-name grammar.
fn is_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Validates one `{...}` label body: `key="value"` pairs, comma-separated, values
/// quoted with backslash escapes.
fn validate_labels(labels: &str, n: usize, line: &str) {
    let mut chars = labels.chars().peekable();
    loop {
        let mut key = String::new();
        while let Some(&c) = chars.peek() {
            if c == '=' {
                break;
            }
            key.push(c);
            chars.next();
        }
        assert!(
            !key.is_empty() && key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
            "line {n}: bad label key '{key}': {line}"
        );
        assert_eq!(chars.next(), Some('='), "line {n}: missing '=': {line}");
        assert_eq!(chars.next(), Some('"'), "line {n}: unquoted value: {line}");
        loop {
            match chars.next() {
                Some('\\') => {
                    chars.next();
                }
                Some('"') => break,
                Some(_) => {}
                None => panic!("line {n}: unterminated label value: {line}"),
            }
        }
        match chars.next() {
            None => return,
            Some(',') => continue,
            Some(c) => panic!("line {n}: unexpected '{c}' after a label: {line}"),
        }
    }
}

/// Asserts every line of `text` parses as the Prometheus text exposition format and
/// every sample belongs to a family announced by a `# TYPE` header.
fn validate_prometheus(text: &str) {
    let mut types = std::collections::HashMap::new();
    for (number, line) in text.lines().enumerate() {
        let n = number + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            let mut parts = rest.splitn(3, ' ');
            let keyword = parts.next().unwrap_or("");
            let name = parts.next().unwrap_or("");
            assert!(
                keyword == "HELP" || keyword == "TYPE",
                "line {n}: unknown comment keyword: {line}"
            );
            assert!(is_metric_name(name), "line {n}: bad metric name: {line}");
            if keyword == "TYPE" {
                let kind = parts.next().unwrap_or("");
                assert!(
                    matches!(kind, "counter" | "gauge" | "histogram"),
                    "line {n}: bad TYPE: {line}"
                );
                types.insert(name.to_string(), kind.to_string());
            }
            continue;
        }
        let (series, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("line {n}: sample without a value: {line}"));
        assert!(
            value.parse::<f64>().is_ok() || matches!(value, "NaN" | "+Inf" | "-Inf"),
            "line {n}: bad sample value '{value}': {line}"
        );
        let name = match series.split_once('{') {
            None => series,
            Some((name, rest)) => {
                let labels = rest
                    .strip_suffix('}')
                    .unwrap_or_else(|| panic!("line {n}: unterminated label set: {line}"));
                validate_labels(labels, n, line);
                name
            }
        };
        assert!(is_metric_name(name), "line {n}: bad sample name: {line}");
        // A histogram family's samples carry the _bucket/_sum/_count suffixes.
        let family = name
            .strip_suffix("_bucket")
            .or_else(|| name.strip_suffix("_sum"))
            .or_else(|| name.strip_suffix("_count"))
            .filter(|f| types.get(*f).map(String::as_str) == Some("histogram"))
            .unwrap_or(name);
        assert!(
            types.contains_key(family),
            "line {n}: sample without a TYPE header: {line}"
        );
    }
}

#[test]
fn metrics_are_valid_prometheus_and_trace_endpoint_serves_spans() {
    tsc3d_obs::set_tracing(true);
    let server = Server::start(test_config(None)).expect("server boots");
    let addr = server.local_addr();

    let first = submit(addr, FLOW_BODY);
    let first_id = first.get("id").and_then(Json::as_u64).expect("job id");
    wait_done(addr, first_id);

    let (status, text) = request(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    validate_prometheus(&text);
    // Serve-local, pool, and library (global-registry) families are all exposed.
    for family in [
        "tsc3d_serve_jobs_executed_total",
        "tsc3d_serve_latency_seconds",
        "tsc3d_serve_stage_seconds",
        "tsc3d_pool_queue_depth",
        "tsc3d_pool_active_workers",
        "tsc3d_pool_steals_total",
        "tsc3d_flow_runs_total",
        "tsc3d_flow_evaluations_total",
        "tsc3d_flow_stage_seconds",
        "tsc3d_thermal_solves_total",
        "tsc3d_thermal_sweeps_total",
    ] {
        assert!(
            text.contains(&format!("# TYPE {family} ")),
            "family {family} missing from /metrics:\n{text}"
        );
    }

    // The trace endpoint serves the collector as parseable JSONL covering the flow's
    // span tree (tracing was enabled before the job ran).
    let (status, jsonl) = request(addr, "GET", "/v1/trace", "");
    assert_eq!(status, 200);
    let spans = tsc3d_obs::parse_jsonl(&jsonl).expect("trace endpoint serves valid JSONL");
    for name in ["flow", "floorplan", "sa", "sa_epoch", "thermal_solve"] {
        assert!(
            spans.iter().any(|s| s.name == name),
            "span '{name}' missing from /v1/trace ({} spans)",
            spans.len()
        );
    }
    server.shutdown();
}

#[test]
fn stats_endpoint_reports_http_red_metrics_and_quantiles() {
    let server = Server::start(test_config(None)).expect("server boots");
    let addr = server.local_addr();

    for _ in 0..3 {
        let (status, _) = request(addr, "GET", "/healthz", "");
        assert_eq!(status, 200);
    }
    // A 404 poll: the HTTP layer must see error outcomes too.
    let (status, _) = request(addr, "GET", "/v1/jobs/424242", "");
    assert_eq!(status, 404);

    let (status, payload) = request(addr, "GET", "/v1/stats", "");
    assert_eq!(status, 200, "{payload}");
    let stats = Json::parse(&payload).expect("stats is JSON");
    assert!(stats.get("uptime_seconds").and_then(Json::as_f64).unwrap() >= 0.0);
    let pool = stats.get("pool").expect("pool section");
    assert_eq!(pool.get("threads").and_then(Json::as_u64), Some(2));
    assert!(stats.get("cache").and_then(|c| c.get("hit_rate")).is_some());
    assert!(stats.get("jobs").and_then(|j| j.get("in_flight")).is_some());

    let Some(Json::Arr(http)) = stats.get("http") else {
        panic!("stats has no http array: {payload}");
    };
    let healthz = http
        .iter()
        .find(|row| row.get("path").and_then(Json::as_str) == Some("/healthz"))
        .expect("per-route row for /healthz");
    assert_eq!(healthz.get("requests").and_then(Json::as_u64), Some(3));
    let p50 = healthz.get("p50_ms").and_then(Json::as_f64).unwrap();
    let p99 = healthz.get("p99_ms").and_then(Json::as_f64).unwrap();
    assert!(p50 > 0.0 && p99 >= p50, "p50={p50} p99={p99}");
    // The 404 landed on the normalized {id} route, not a per-id label.
    assert!(
        http.iter()
            .any(|row| row.get("path").and_then(Json::as_str) == Some("/v1/jobs/{id}")),
        "{payload}"
    );

    // The exposition side carries the same truth: labeled RED counters and the
    // per-path latency histogram family, still valid exposition format.
    let (status, text) = request(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    validate_prometheus(&text);
    assert!(
        text.contains("tsc3d_serve_http_requests_total{"),
        "labeled RED family missing:\n{text}"
    );
    assert!(text.contains("path=\"/healthz\""), "{text}");
    assert!(text.contains("status=\"404\""), "{text}");
    assert!(
        text.contains("tsc3d_serve_http_latency_seconds_bucket"),
        "{text}"
    );
    // Sub-millisecond buckets exist after the re-grade.
    assert!(text.contains("le=\"0.00025\""), "{text}");
    server.shutdown();
}

#[test]
fn identical_submissions_execute_once_and_restart_serves_from_disk() {
    let state_dir = temp_state_dir("dedup");
    let server = Server::start(test_config(Some(state_dir.clone()))).expect("server boots");
    let addr = server.local_addr();

    // Health before any job.
    let (status, payload) = request(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    let health = Json::parse(&payload).unwrap();
    assert_eq!(health.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(health.get("draining").and_then(Json::as_bool), Some(false));

    // First submission executes; the identical (reordered) second one must not.
    let first = submit(addr, FLOW_BODY);
    let first_id = first.get("id").and_then(Json::as_u64).expect("job id");
    wait_done(addr, first_id);
    let first_result = result_body(addr, first_id);

    let second = submit(addr, FLOW_BODY_REORDERED);
    let second_id = second.get("id").and_then(Json::as_u64).expect("job id");
    assert_eq!(
        second.get("cached").and_then(Json::as_bool),
        Some(true),
        "the finished identical submission is a cache hit: {second:?}"
    );
    let second_result = result_body(addr, second_id);
    assert_eq!(
        first_result, second_result,
        "cache hits serve byte-identical results"
    );

    // The metrics agree: one execution, one cache hit.
    let (status, metrics) = request(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    assert!(
        metrics.contains("tsc3d_serve_jobs_executed_total 1"),
        "{metrics}"
    );
    assert!(
        metrics.contains("tsc3d_serve_cache_hits_total 1"),
        "{metrics}"
    );
    assert!(metrics.contains("stage=\"floorplan\""), "{metrics}");

    // Graceful shutdown, then a fresh server on the same state dir: the result is served
    // from disk, no execution.
    server.shutdown();
    let server = Server::start(test_config(Some(state_dir.clone()))).expect("server restarts");
    let addr = server.local_addr();
    let resubmit = submit(addr, FLOW_BODY);
    assert_eq!(
        resubmit.get("cached").and_then(Json::as_bool),
        Some(true),
        "restart serves completed results from the state file: {resubmit:?}"
    );
    let id = resubmit.get("id").and_then(Json::as_u64).unwrap();
    assert_eq!(
        result_body(addr, id),
        first_result,
        "the restarted server serves the original bytes"
    );
    let (_, metrics) = request(addr, "GET", "/metrics", "");
    assert!(
        metrics.contains("tsc3d_serve_jobs_executed_total 0"),
        "nothing re-ran after restart: {metrics}"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&state_dir);
}

#[test]
fn in_flight_submissions_dedup_and_shutdown_drains() {
    let state_dir = temp_state_dir("drain");
    let server = Server::start(test_config(Some(state_dir.clone()))).expect("server boots");
    let addr = server.local_addr();

    // Two rapid submissions of the same spec: the second joins the first in flight
    // (deduped) or — if the first already finished — hits the cache; either way the ids
    // resolve to one execution.
    let first = submit(addr, FLOW_BODY);
    let second = submit(addr, FLOW_BODY);
    let first_id = first.get("id").and_then(Json::as_u64).unwrap();
    let second_id = second.get("id").and_then(Json::as_u64).unwrap();
    let deduped = second.get("deduped").and_then(Json::as_bool) == Some(true);
    let cached = second.get("cached").and_then(Json::as_bool) == Some(true);
    assert!(deduped || cached, "{second:?}");
    if deduped {
        assert_eq!(first_id, second_id, "a dedup joins the in-flight job");
    }

    // A different job queued right before shutdown must still complete (drain).
    let other = submit(
        addr,
        "{\"type\":\"flow\",\"benchmark\":\"n100\",\"setup\":\"pa\",\"seed\":9,\
         \"stages\":4,\"moves\":8,\"grid_bins\":10,\"verification_bins\":10}",
    );
    let other_accepted = other.get("id").and_then(Json::as_u64).is_some();
    assert!(other_accepted, "{other:?}");
    server.shutdown();

    // Every accepted job drained into the state file: a restarted server has both specs
    // cached.
    let server = Server::start(test_config(Some(state_dir.clone()))).expect("server restarts");
    let addr = server.local_addr();
    for body in [
        FLOW_BODY,
        "{\"type\":\"flow\",\"benchmark\":\"n100\",\"setup\":\"pa\",\"seed\":9,\
         \"stages\":4,\"moves\":8,\"grid_bins\":10,\"verification_bins\":10}",
    ] {
        let response = submit(addr, body);
        assert_eq!(
            response.get("cached").and_then(Json::as_bool),
            Some(true),
            "drained job is served from disk: {response:?}"
        );
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(&state_dir);
}

#[test]
fn api_failures_are_typed() {
    let server = Server::start(test_config(None)).expect("server boots");
    let addr = server.local_addr();

    let (status, payload) = request(addr, "POST", "/v1/jobs", "{\"type\":");
    assert_eq!(status, 400, "{payload}");
    let (status, payload) = request(addr, "POST", "/v1/jobs", "{\"type\":\"blob\"}");
    assert_eq!(status, 400, "{payload}");
    assert!(payload.contains("unknown job type"));
    let (status, _) = request(addr, "GET", "/v1/jobs/999", "");
    assert_eq!(status, 404);
    let (status, _) = request(addr, "GET", "/v1/jobs/not-a-number", "");
    assert_eq!(status, 400);
    // DELETE is the cancellation endpoint now; on a job that never existed it's a 404,
    // and only unsupported verbs (e.g. PUT) get the 405.
    let (status, _) = request(addr, "DELETE", "/v1/jobs/1", "");
    assert_eq!(status, 404);
    let (status, _) = request(addr, "PUT", "/v1/jobs/1", "");
    assert_eq!(status, 405);
    let (status, _) = request(addr, "GET", "/nope", "");
    assert_eq!(status, 404);

    // Oversized body: the declared length alone triggers the 413.
    let huge = "x".repeat(70 * 1024);
    let (status, _) = request(addr, "POST", "/v1/jobs", &huge);
    assert_eq!(status, 413);

    server.shutdown();
}

#[test]
fn oversized_campaigns_are_refused_and_shutdown_endpoint_drains() {
    let mut config = test_config(None);
    config.max_campaign_jobs = 4;
    let server = Server::start(config).expect("server boots");
    let addr = server.local_addr();

    // A campaign whose expansion exceeds the per-submission limit cannot occupy a single
    // queue slot: 3 seeds × 2 setups = 6 > 4. The spec body uses the results-file header
    // codec, like a real client would.
    let spec = tsc3d_campaign::CampaignSpec::new(
        vec![tsc3d_netlist::suite::Benchmark::N100],
        vec![1, 2, 3],
    );
    let big = format!(
        "{{\"type\":\"campaign\",\"spec\":{}}}",
        tsc3d_campaign::codec::spec_to_json(&spec).render()
    );
    let (status, payload) = request(addr, "POST", "/v1/jobs", &big);
    assert_eq!(status, 400, "{payload}");
    assert!(payload.contains("expands to 6"), "{payload}");

    // POST /v1/shutdown flags the graceful stop: wait_shutdown_requested unblocks,
    // submissions get 503, and shutdown() drains.
    let (status, payload) = request(addr, "POST", "/v1/shutdown", "");
    assert_eq!(status, 200, "{payload}");
    server.wait_shutdown_requested();
    let (status, _) = request(addr, "POST", "/v1/jobs", FLOW_BODY);
    assert_eq!(status, 503);
    server.shutdown();
}

#[test]
fn results_evicted_from_the_cache_are_reread_from_disk() {
    let state_dir = temp_state_dir("diskindex");
    let mut config = test_config(Some(state_dir.clone()));
    config.cache_cap = 1; // every new result evicts the previous one
    let server = Server::start(config).expect("server boots");
    let addr = server.local_addr();

    let other_body = "{\"type\":\"flow\",\"benchmark\":\"n100\",\"setup\":\"pa\",\"seed\":21,\
                      \"stages\":4,\"moves\":8,\"grid_bins\":10,\"verification_bins\":10}";
    let first = submit(addr, FLOW_BODY);
    let first_id = first.get("id").and_then(Json::as_u64).unwrap();
    wait_done(addr, first_id);
    let first_result = result_body(addr, first_id);
    let second = submit(addr, other_body);
    let second_id = second.get("id").and_then(Json::as_u64).unwrap();
    wait_done(addr, second_id);

    // FLOW_BODY's result has been evicted from the single-slot cache by now, but the
    // disk index must serve it without re-running.
    let resubmit = submit(addr, FLOW_BODY);
    assert_eq!(
        resubmit.get("cached").and_then(Json::as_bool),
        Some(true),
        "evicted result is re-read from the state file: {resubmit:?}"
    );
    let id = resubmit.get("id").and_then(Json::as_u64).unwrap();
    assert_eq!(
        result_body(addr, id),
        first_result,
        "byte-identical from disk"
    );
    let (_, metrics) = request(addr, "GET", "/metrics", "");
    assert!(
        metrics.contains("tsc3d_serve_jobs_executed_total 2"),
        "only the two distinct specs executed: {metrics}"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&state_dir);
}

#[test]
fn settled_jobs_expire_from_the_status_table() {
    let mut config = test_config(None);
    config.jobs_retained = 1;
    let server = Server::start(config).expect("server boots");
    let addr = server.local_addr();

    let first = submit(addr, FLOW_BODY);
    let first_id = first.get("id").and_then(Json::as_u64).unwrap();
    wait_done(addr, first_id);
    // Two more submissions of the same (now cached) spec create fresh settled entries,
    // pushing the oldest out of the bounded table.
    let second = submit(addr, FLOW_BODY);
    let second_id = second.get("id").and_then(Json::as_u64).unwrap();
    let third = submit(addr, FLOW_BODY);
    let third_id = third.get("id").and_then(Json::as_u64).unwrap();
    assert!(third_id > second_id && second_id > first_id);

    let (status, _) = request(addr, "GET", &format!("/v1/jobs/{first_id}"), "");
    assert_eq!(status, 404, "the oldest settled entry expired");
    let (status, _) = request(addr, "GET", &format!("/v1/jobs/{third_id}"), "");
    assert_eq!(status, 200, "the newest entry survives");
    server.shutdown();
}

#[test]
fn full_queue_rejects_with_429() {
    // queue_cap 0: the very first submission is refused with 429 (backpressure is
    // enforced before the pool ever sees the job).
    let mut config = test_config(None);
    config.queue_cap = 0;
    let server = Server::start(config).expect("server boots");
    let addr = server.local_addr();
    let (status, payload) = request(addr, "POST", "/v1/jobs", FLOW_BODY);
    assert_eq!(status, 429, "{payload}");
    server.shutdown();
}

#[test]
fn sca_submissions_report_an_mtd_verdict_and_count_trace_sims() {
    let server = Server::start(test_config(None)).expect("server boots");
    let addr = server.local_addr();

    // A tiny sca evaluation: noise-free sensing so the 16-trace budget discloses the
    // single key byte, with a shrunken flow schedule and attack grid.
    let body = "{\"type\":\"sca\",\"benchmark\":\"n100\",\"seed\":1,\"key_seed\":7,\
                \"traces\":16,\"noise\":0,\"key_bytes\":1,\"attack_grid_bins\":8,\
                \"dwell_ms\":8,\"stages\":4,\"moves\":8,\"grid_bins\":10,\
                \"verification_bins\":10}";
    let accepted = submit(addr, body);
    let id = accepted.get("id").and_then(Json::as_u64).unwrap();
    wait_done(addr, id);

    let (status, payload) = request(addr, "GET", &format!("/v1/jobs/{id}"), "");
    assert_eq!(status, 200);
    let info = Json::parse(&payload).unwrap();
    assert_eq!(info.get("kind").and_then(Json::as_str), Some("sca"));

    let result = Json::parse(&result_body(addr, id)).expect("sca result is JSON");
    for side in ["baseline", "mitigated"] {
        let metrics = result.get(side).unwrap_or_else(|| panic!("{side} missing"));
        assert_eq!(metrics.get("traces").and_then(Json::as_f64), Some(16.0));
        assert_eq!(metrics.get("key_bytes").and_then(Json::as_f64), Some(1.0));
        assert!(metrics.get("mtd_traces").and_then(Json::as_f64).is_some());
    }
    let verdict = result.get("verdict").expect("verdict present");
    assert!(verdict
        .get("mitigation_effective")
        .and_then(Json::as_bool)
        .is_some());

    // /metrics counts the trace simulations (16 baseline + 16 mitigated), stays valid
    // exposition format, and now includes the sca library's global families.
    let (status, metrics_text) = request(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    validate_prometheus(&metrics_text);
    for family in [
        "tsc3d_sca_attacks_total",
        "tsc3d_sca_traces_total",
        "tsc3d_sca_transient_steps_total",
        "tsc3d_sca_kernel_steps_total",
        "tsc3d_sca_cpa_checkpoints_total",
    ] {
        assert!(
            metrics_text.contains(&format!("# TYPE {family} counter")),
            "family {family} missing from /metrics"
        );
    }
    assert!(
        metrics_text.contains("tsc3d_serve_trace_sims_total 32"),
        "trace-sim counter missing: {}",
        metrics_text
            .lines()
            .filter(|l| l.contains("trace_sims"))
            .collect::<Vec<_>>()
            .join("\n")
    );

    // Identical sca submissions dedup/cache like every other job kind.
    let again = submit(addr, body);
    assert_eq!(again.get("cached").and_then(Json::as_bool), Some(true));
    server.shutdown();
}
