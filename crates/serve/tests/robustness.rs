//! Fault-tolerance integration tests of the serve daemon, over real sockets:
//!
//! * `DELETE /v1/jobs/{id}` cancels a *running* sca evaluation within one cooperative
//!   checkpoint window and the job settles with the typed `"cancelled"` status,
//! * a submission `deadline_ms` bounds execution wall-clock (the job settles
//!   `"cancelled"` with a deadline message) and the interrupted run is never cached,
//! * a full queue answers `429` with a `Retry-After` header and the rejection counter
//!   family records it,
//! * graceful shutdown is bounded: the drain watchdog cancels a long-running job
//!   instead of waiting for it,
//! * hostile bodies cost bounded work: nesting far past the JSON codec's depth limit
//!   and a 1 MiB string field both answer `400`, and the daemon keeps answering,
//! * SSE watchers beyond the fixed budget answer `503` with `Retry-After`, and a
//!   closed watcher's slot is admitted again.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};
use tsc3d_obs::json::Json;
use tsc3d_serve::sse::MAX_WATCHERS;
use tsc3d_serve::{Server, ServerConfig};

/// A flow submission that runs in well under a second.
const QUICK_FLOW: &str = "{\"type\":\"flow\",\"benchmark\":\"n100\",\"setup\":\"tsc\",\"seed\":3,\
                          \"stages\":4,\"moves\":8,\"grid_bins\":10,\"verification_bins\":10,\
                          \"activity_samples\":6,\"tsv_budget\":2}";

/// An sca submission sized to run for a long time (many traces on a fine attack grid)
/// with a *fast* flow part, so a cancellation lands mid-attack. The runtime only
/// matters if cancellation is broken — every test that submits this cancels it.
fn long_sca_body(seed: u64) -> String {
    format!(
        "{{\"type\":\"sca\",\"benchmark\":\"n100\",\"seed\":{seed},\"traces\":20000,\
         \"attack_grid_bins\":48,\"stages\":3,\"moves\":8,\"grid_bins\":8,\
         \"verification_bins\":8}}"
    )
}

/// One request, one response; returns (status, response head, body).
fn request(
    addr: std::net::SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> (u16, String, String) {
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
    (status, head.to_string(), payload.to_string())
}

fn submit(addr: std::net::SocketAddr, body: &str) -> (u16, Json) {
    let (status, _, payload) = request(addr, "POST", "/v1/jobs", body);
    (
        status,
        Json::parse(&payload).expect("submission response is JSON"),
    )
}

fn job_status(addr: std::net::SocketAddr, id: u64) -> Json {
    let (status, _, payload) = request(addr, "GET", &format!("/v1/jobs/{id}"), "");
    assert_eq!(status, 200, "{payload}");
    Json::parse(&payload).expect("status response is JSON")
}

/// Polls until the job's status label matches `wanted`, panicking on any label outside
/// `transient`.
fn wait_for_status(addr: std::net::SocketAddr, id: u64, wanted: &str, transient: &[&str]) -> Json {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let value = job_status(addr, id);
        let label = value
            .get("status")
            .and_then(Json::as_str)
            .expect("status label")
            .to_string();
        if label == wanted {
            return value;
        }
        assert!(
            transient.contains(&label.as_str()),
            "job {id} reached '{label}' while waiting for '{wanted}': {}",
            value.render()
        );
        assert!(
            Instant::now() < deadline,
            "job {id} did not reach '{wanted}' in time (last: '{label}')"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn test_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        state_dir: None,
        cache_cap: 64,
        queue_cap: 8,
        max_body_bytes: 64 * 1024,
        http_threads: 2,
        ..ServerConfig::default()
    }
}

/// The acceptance scenario: `DELETE /v1/jobs/{id}` on a *running* sca job settles it
/// with the typed `"cancelled"` status within one checkpoint window, the result
/// endpoint answers 409, and a second DELETE reports the job already settled.
#[test]
fn delete_cancels_a_running_sca_job_with_typed_status() {
    let server = Server::start(test_config()).expect("server boots");
    let addr = server.local_addr();

    let (status, accepted) = submit(addr, &long_sca_body(7));
    assert_eq!(status, 202, "{}", accepted.render());
    let id = accepted.get("id").and_then(Json::as_u64).expect("job id");

    // Wait until the job is actually executing, then give the attack a moment to start.
    wait_for_status(addr, id, "running", &["queued"]);
    std::thread::sleep(Duration::from_millis(300));

    let cancel_sent = Instant::now();
    let (status, _, payload) = request(addr, "DELETE", &format!("/v1/jobs/{id}"), "");
    assert_eq!(status, 202, "{payload}");
    let ack = Json::parse(&payload).unwrap();
    assert_eq!(ack.get("status").and_then(Json::as_str), Some("cancelling"));

    let settled = wait_for_status(addr, id, "cancelled", &["running"]);
    // "Within one checkpoint window": checkpoints fire per trace batch / stage
    // boundary, far under this generous CI bound — only a cancellation that never
    // lands would exceed it.
    assert!(
        cancel_sent.elapsed() < Duration::from_secs(15),
        "cancellation took {:?}",
        cancel_sent.elapsed()
    );
    let error = settled
        .get("error")
        .and_then(Json::as_str)
        .expect("cancelled jobs carry an error message");
    assert!(error.contains("cancelled"), "unexpected error: {error}");

    let (status, _, payload) = request(addr, "GET", &format!("/v1/jobs/{id}/result"), "");
    assert_eq!(status, 409, "cancelled jobs have no result: {payload}");

    let (status, _, payload) = request(addr, "DELETE", &format!("/v1/jobs/{id}"), "");
    assert_eq!(status, 409, "already settled: {payload}");
    assert!(payload.contains("cancelled"), "{payload}");

    // The cancellation is visible in the failure-kind counter family.
    let (status, _, metrics) = request(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    assert!(
        metrics.contains("tsc3d_serve_job_failures_total{kind=\"cancelled\"} 1"),
        "missing cancelled failure counter:\n{metrics}"
    );

    server.shutdown();
}

/// A submission `deadline_ms` bounds execution: the job settles `"cancelled"` with a
/// deadline message, and because interrupted runs are never cached, resubmitting the
/// identical body re-runs instead of serving a partial result.
#[test]
fn deadline_ms_cancels_and_is_never_cached() {
    let server = Server::start(test_config()).expect("server boots");
    let addr = server.local_addr();

    let body = format!(
        "{},\"deadline_ms\":1}}",
        QUICK_FLOW.strip_suffix('}').unwrap()
    );
    let (status, accepted) = submit(addr, &body);
    assert_eq!(status, 202, "{}", accepted.render());
    let id = accepted.get("id").and_then(Json::as_u64).expect("job id");

    let settled = wait_for_status(addr, id, "cancelled", &["queued", "running"]);
    let error = settled
        .get("error")
        .and_then(Json::as_str)
        .expect("deadline jobs carry an error message");
    assert!(error.contains("deadline"), "unexpected error: {error}");

    // Resubmit the identical body: an interrupted run must not have been cached.
    let (status, again) = submit(addr, &body);
    assert_eq!(status, 202, "{}", again.render());
    assert_eq!(again.get("cached").and_then(Json::as_bool), Some(false));
    let second = again.get("id").and_then(Json::as_u64).expect("job id");
    wait_for_status(addr, second, "cancelled", &["queued", "running"]);

    // A bad deadline is rejected up front.
    let bad = format!(
        "{},\"deadline_ms\":0}}",
        QUICK_FLOW.strip_suffix('}').unwrap()
    );
    let (status, _, payload) = request(addr, "POST", "/v1/jobs", &bad);
    assert_eq!(status, 400, "{payload}");

    let (status, _, metrics) = request(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    assert!(
        metrics.contains("tsc3d_serve_job_failures_total{kind=\"deadline\"} 2"),
        "missing deadline failure counters:\n{metrics}"
    );

    server.shutdown();
}

/// A full queue answers `429` with a `Retry-After` header, the labelled rejection
/// counter records it, and cancelling the queue-hogging job frees the server.
#[test]
fn full_queue_answers_retry_after() {
    let config = ServerConfig {
        workers: 1,
        queue_cap: 1,
        ..test_config()
    };
    let server = Server::start(config).expect("server boots");
    let addr = server.local_addr();

    let (status, accepted) = submit(addr, &long_sca_body(11));
    assert_eq!(status, 202, "{}", accepted.render());
    let hog = accepted.get("id").and_then(Json::as_u64).expect("job id");

    // A *different* submission (dedup would join, not queue) hits the cap.
    let (status, head, payload) = request(addr, "POST", "/v1/jobs", &long_sca_body(12));
    assert_eq!(status, 429, "{payload}");
    assert!(
        head.to_ascii_lowercase().contains("retry-after: 1"),
        "429 without Retry-After:\n{head}"
    );

    let (status, _, metrics) = request(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    assert!(
        metrics.contains("tsc3d_serve_rejected_total{reason=\"busy\"} 1"),
        "missing busy rejection counter:\n{metrics}"
    );

    let (status, _, payload) = request(addr, "DELETE", &format!("/v1/jobs/{hog}"), "");
    assert_eq!(status, 202, "{payload}");
    wait_for_status(addr, hog, "cancelled", &["queued", "running"]);

    // With the slot free, submissions are accepted again.
    let (status, _, _) = request(addr, "POST", "/v1/jobs", QUICK_FLOW);
    assert_eq!(status, 202);

    server.shutdown();
}

/// A body of 64 KiB of `[` (which used to overflow a handler thread's stack) and
/// a chain of `{"a":` objects answer 400 with the codec's typed depth error; a body
/// with a 1 MiB string field parses in one linear pass and answers 400 for the unknown
/// benchmark it names. `GET /v1/stats` still answers afterwards.
#[test]
fn deep_and_huge_bodies_answer_400_and_the_daemon_keeps_serving() {
    let config = ServerConfig {
        max_body_bytes: 2 * 1024 * 1024,
        ..test_config()
    };
    let server = Server::start(config).expect("server boots");
    let addr = server.local_addr();

    for deep in ["[".repeat(64 * 1024), "{\"a\":".repeat(16 * 1024)] {
        let (status, _, payload) = request(addr, "POST", "/v1/jobs", &deep);
        assert_eq!(status, 400, "{payload}");
        assert!(payload.contains("MAX_DEPTH"), "{payload}");
    }
    let name = "x".repeat(1 << 20);
    let huge = format!("{{\"type\":\"flow\",\"benchmark\":\"{name}\",\"seed\":1}}");
    let (status, _, payload) = request(addr, "POST", "/v1/jobs", &huge);
    assert_eq!(status, 400, "a 1 MiB benchmark name is no benchmark");
    let head: String = payload.chars().take(200).collect();
    assert!(payload.contains("benchmark"), "{head}");

    let (status, _, payload) = request(addr, "GET", "/v1/stats", "");
    assert_eq!(status, 200, "{payload}");
    Json::parse(&payload).expect("stats body is JSON");
    server.shutdown();
}

/// Opens `GET /v1/events` and reads the response head; returns the status, the head
/// and the socket (an admitted stream stays open on it).
fn open_watcher(addr: std::net::SocketAddr) -> (u16, String, TcpStream) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream
        .write_all(b"GET /v1/events HTTP/1.1\r\nhost: test\r\n\r\n")
        .unwrap();
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") {
        let n = stream.read(&mut byte).expect("read response head");
        assert_eq!(n, 1, "connection closed inside the response head");
        head.push(byte[0]);
    }
    let head = String::from_utf8(head).expect("UTF-8 head");
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|code| code.parse().ok())
        .expect("numeric status");
    (status, head, stream)
}

/// One watcher past the budget is refused with `503` + `Retry-After` and counted as
/// `reason="watchers"`; `/v1/stats` still answers, and once a watcher closes its slot
/// is released and a new watcher is admitted.
#[test]
fn sse_watchers_beyond_the_budget_answer_503_until_one_closes() {
    let server = Server::start(test_config()).expect("server boots");
    let addr = server.local_addr();

    let mut watchers: Vec<TcpStream> = (0..MAX_WATCHERS)
        .map(|i| {
            let (status, head, stream) = open_watcher(addr);
            assert_eq!(status, 200, "watcher {i} within the budget:\n{head}");
            stream
        })
        .collect();
    let (status, head, _) = open_watcher(addr);
    assert_eq!(
        status,
        503,
        "watcher {} past the budget:\n{head}",
        MAX_WATCHERS + 1
    );
    assert!(
        head.to_ascii_lowercase().contains("retry-after: 1"),
        "503 without Retry-After:\n{head}"
    );

    let (status, _, payload) = request(addr, "GET", "/v1/stats", "");
    assert_eq!(status, 200, "{payload}");
    Json::parse(&payload).expect("stats body is JSON");
    let (_, _, metrics) = request(addr, "GET", "/metrics", "");
    assert!(
        metrics.contains("tsc3d_serve_rejected_total{reason=\"watchers\"} 1"),
        "missing watchers rejection counter:\n{metrics}"
    );

    // Close one watcher. Its stream ends at the next failed write (a job's events, or
    // the idle heartbeat at the latest), which frees the slot.
    drop(watchers.pop());
    let (status, _) = submit(addr, QUICK_FLOW);
    assert!(status == 200 || status == 202, "submission status {status}");
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let (status, head, stream) = open_watcher(addr);
        if status == 200 {
            watchers.push(stream);
            break;
        }
        assert_eq!(status, 503, "{head}");
        assert!(Instant::now() < deadline, "no watcher slot was released");
        std::thread::sleep(Duration::from_millis(50));
    }
    drop(watchers);
    server.shutdown();
}

/// `DELETE` on an unknown job is a 404, and on a malformed id a 400.
#[test]
fn delete_fails_typed_on_bad_targets() {
    let server = Server::start(test_config()).expect("server boots");
    let addr = server.local_addr();

    let (status, _, payload) = request(addr, "DELETE", "/v1/jobs/999", "");
    assert_eq!(status, 404, "{payload}");
    let (status, _, payload) = request(addr, "DELETE", "/v1/jobs/abc", "");
    assert_eq!(status, 400, "{payload}");
    let (status, _, payload) = request(addr, "DELETE", "/v1/jobs/1/result", "");
    assert_eq!(status, 405, "{payload}");

    server.shutdown();
}

/// Graceful shutdown is bounded: with a short drain timeout, the watchdog cancels a
/// long-running job and `Server::shutdown` returns promptly instead of waiting out the
/// full evaluation.
#[test]
fn drain_watchdog_bounds_shutdown() {
    let config = ServerConfig {
        drain_timeout: Duration::from_millis(300),
        ..test_config()
    };
    let server = Server::start(config).expect("server boots");
    let addr = server.local_addr();

    let (status, accepted) = submit(addr, &long_sca_body(13));
    assert_eq!(status, 202, "{}", accepted.render());
    let id = accepted.get("id").and_then(Json::as_u64).expect("job id");
    wait_for_status(addr, id, "running", &["queued"]);

    let begun = Instant::now();
    server.shutdown();
    // Without the watchdog this would block for the job's full multi-minute runtime.
    assert!(
        begun.elapsed() < Duration::from_secs(30),
        "shutdown took {:?}",
        begun.elapsed()
    );
}
