//! SSE integration of the serve daemon, over real sockets:
//!
//! * a job stream replays the job's lifecycle and flow-stage events in order
//!   and ends with a typed `disconnect` frame (`"complete"`),
//! * the global `/v1/events` stream delivers dense sequence numbers (no gaps),
//! * a client killed mid-stream leaves the server healthy,
//! * `Last-Event-ID` resume past the flight-recorder ring disconnects
//!   `"lagged"`, graceful shutdown disconnects `"draining"`, and an unknown
//!   job id is a plain 404.
//!
//! The event bus is process-global and serve job ids restart at 1 per server,
//! so every test takes `TEST_LOCK` and asserts subsequences/orderings that
//! tolerate ring leftovers from earlier tests rather than exact transcripts.
//!
//! These tests live in their own integration-test file (own process) so the
//! bus never interleaves with the smoke tests' jobs.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};
use tsc3d_obs::json::Json;
use tsc3d_serve::{Server, ServerConfig};

fn lock() -> MutexGuard<'static, ()> {
    static TEST_LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    TEST_LOCK
        .get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A tiny flow submission (quick schedule shrunk further) that runs in well
/// under a second.
const FLOW_BODY: &str = "{\"type\":\"flow\",\"benchmark\":\"n100\",\"setup\":\"tsc\",\"seed\":3,\
                         \"stages\":4,\"moves\":8,\"grid_bins\":10,\"verification_bins\":10,\
                         \"activity_samples\":6,\"tsv_budget\":2}";

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

fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
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
    let (head, payload) = text.split_once("\r\n\r\n").expect("head/body split");
    let status: u16 = head.split(' ').nth(1).unwrap().parse().unwrap();
    (status, payload.to_string())
}

fn submit(addr: SocketAddr, body: &str) -> u64 {
    let (status, payload) = request(addr, "POST", "/v1/jobs", body);
    assert!(
        status == 200 || status == 202,
        "submission failed: {status} {payload}"
    );
    Json::parse(&payload)
        .expect("submission response is JSON")
        .get("id")
        .and_then(Json::as_u64)
        .expect("job id")
}

fn wait_done(addr: SocketAddr, id: u64) {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (status, payload) = request(addr, "GET", &format!("/v1/jobs/{id}"), "");
        assert_eq!(status, 200, "{payload}");
        match Json::parse(&payload)
            .unwrap()
            .get("status")
            .and_then(Json::as_str)
        {
            Some("done") => return,
            Some("failed") => panic!("job {id} failed: {payload}"),
            _ => {}
        }
        assert!(Instant::now() < deadline, "job {id} did not finish in time");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// One parsed SSE frame (one HTTP chunk on the wire).
#[derive(Debug, Default, Clone)]
struct Frame {
    id: Option<u64>,
    event: Option<String>,
    data: Option<String>,
    comment: bool,
}

/// A chunked-transfer SSE connection with an incremental frame parser.
struct SseStream {
    stream: TcpStream,
    buf: Vec<u8>,
    ended: bool,
}

fn find_crlf(buf: &[u8]) -> Option<usize> {
    buf.windows(2).position(|w| w == b"\r\n")
}

fn sse_connect(addr: SocketAddr, path: &str, last_event_id: Option<u64>) -> SseStream {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_millis(100)))
        .unwrap();
    let mut head = format!("GET {path} HTTP/1.1\r\nhost: test\r\naccept: text/event-stream\r\n");
    if let Some(id) = last_event_id {
        head.push_str(&format!("last-event-id: {id}\r\n"));
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes()).unwrap();

    // Read the response head; whatever follows it is chunked body bytes.
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut buf = Vec::new();
    let split = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        assert!(Instant::now() < deadline, "no response head");
        let mut chunk = [0u8; 4096];
        match stream.read(&mut chunk) {
            Ok(0) => panic!("connection closed before the response head"),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue
            }
            Err(e) => panic!("reading response head: {e}"),
        }
    };
    let head_text = String::from_utf8_lossy(&buf[..split]).to_string();
    assert!(
        head_text.starts_with("HTTP/1.1 200"),
        "SSE upgrade refused: {head_text}"
    );
    assert!(
        head_text.to_ascii_lowercase().contains("text/event-stream"),
        "not an event stream: {head_text}"
    );
    let rest = buf[split + 4..].to_vec();
    SseStream {
        stream,
        buf: rest,
        ended: false,
    }
}

impl SseStream {
    /// Returns the next frame, or `None` once the terminating zero-length
    /// chunk (or a closed socket) arrives. Panics past `deadline`.
    fn next_frame(&mut self, deadline: Instant) -> Option<Frame> {
        if self.ended {
            return None;
        }
        loop {
            if let Some(pos) = find_crlf(&self.buf) {
                let size_text = String::from_utf8_lossy(&self.buf[..pos]).to_string();
                let size = usize::from_str_radix(size_text.trim(), 16)
                    .unwrap_or_else(|_| panic!("bad chunk size line '{size_text}'"));
                if size == 0 {
                    self.ended = true;
                    return None;
                }
                let need = pos + 2 + size + 2;
                if self.buf.len() >= need {
                    let payload = self.buf[pos + 2..pos + 2 + size].to_vec();
                    self.buf.drain(..need);
                    return Some(parse_frame(&payload));
                }
            }
            assert!(
                Instant::now() < deadline,
                "timed out waiting for an SSE frame (buffered {} bytes)",
                self.buf.len()
            );
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.ended = true;
                    return None;
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut => {}
                Err(e) => panic!("reading SSE stream: {e}"),
            }
        }
    }

    /// Collects frames until one named `disconnect` arrives; returns the data
    /// frames seen before it and the disconnect frame itself.
    fn collect_until_disconnect(&mut self, deadline: Instant) -> (Vec<Frame>, Frame) {
        let mut frames = Vec::new();
        while let Some(frame) = self.next_frame(deadline) {
            if frame.event.as_deref() == Some("disconnect") {
                return (frames, frame);
            }
            if !frame.comment {
                frames.push(frame);
            }
        }
        panic!("stream ended without a disconnect frame; got {frames:?}");
    }
}

fn parse_frame(payload: &[u8]) -> Frame {
    let text = String::from_utf8_lossy(payload);
    let mut frame = Frame::default();
    for line in text.lines() {
        if let Some(value) = line.strip_prefix("id: ") {
            frame.id = value.trim().parse().ok();
        } else if let Some(value) = line.strip_prefix("event: ") {
            frame.event = Some(value.trim().to_string());
        } else if let Some(value) = line.strip_prefix("data: ") {
            frame.data = Some(value.to_string());
        } else if line.starts_with(':') {
            frame.comment = true;
        }
    }
    frame
}

fn disconnect_reason(frame: &Frame) -> String {
    let data = frame.data.as_deref().expect("disconnect carries data");
    Json::parse(data)
        .expect("disconnect data is JSON")
        .get("reason")
        .and_then(Json::as_str)
        .expect("disconnect has a reason")
        .to_string()
}

/// Asserts `needles` appear in `haystack` in order (not necessarily adjacent).
fn assert_subsequence(haystack: &[String], needles: &[&str]) {
    let mut rest = haystack.iter();
    for needle in needles {
        assert!(
            rest.any(|item| item == needle),
            "'{needle}' missing (in order) from {haystack:?}"
        );
    }
}

#[test]
fn job_stream_replays_lifecycle_and_stages_in_order_then_completes() {
    let _guard = lock();
    let server = Server::start(test_config()).expect("server boots");
    let addr = server.local_addr();

    let id = submit(addr, FLOW_BODY);
    wait_done(addr, id);

    // Attaching after the fact still sees the whole story: the job stream
    // replays the ring's retained history, then disconnects "complete" once
    // the settled job's backlog is drained.
    let mut stream = sse_connect(addr, &format!("/v1/jobs/{id}/events"), None);
    let deadline = Instant::now() + Duration::from_secs(30);
    let (frames, disconnect) = stream.collect_until_disconnect(deadline);
    assert_eq!(disconnect_reason(&disconnect), "complete");

    // Sequence ids are strictly increasing (the filter may skip other jobs'
    // events, so gaps are fine here — order is not).
    let ids: Vec<u64> = frames.iter().filter_map(|f| f.id).collect();
    assert_eq!(ids.len(), frames.len(), "every data frame carries its seq");
    for pair in ids.windows(2) {
        assert!(pair[0] < pair[1], "ids must increase: {ids:?}");
    }

    // The lifecycle and the four flow stages arrive in execution order. A
    // leftover ring replay from an earlier test could prepend older frames,
    // so assert the subsequence rather than an exact transcript.
    let story: Vec<String> = frames
        .iter()
        .filter_map(|f| {
            let data = Json::parse(f.data.as_deref()?).ok()?;
            match f.event.as_deref()? {
                "job" => data.get("state").and_then(Json::as_str).map(str::to_string),
                "stage" => {
                    let name = data.get("name").and_then(Json::as_str)?;
                    let enter = data.get("enter").and_then(Json::as_bool)?;
                    enter.then(|| format!("stage:{name}"))
                }
                _ => None,
            }
        })
        .collect();
    assert_subsequence(
        &story,
        &[
            "queued",
            "started",
            "stage:floorplan",
            "stage:assign",
            "stage:verify",
            "stage:post_process",
            "finished",
        ],
    );
    server.shutdown();
}

#[test]
fn global_stream_delivers_dense_sequence_numbers() {
    let _guard = lock();
    let server = Server::start(test_config()).expect("server boots");
    let addr = server.local_addr();

    let mut stream = sse_connect(addr, "/v1/events", None);
    let id = submit(addr, FLOW_BODY);
    wait_done(addr, id);

    // Read until the job's terminal event comes through the live stream.
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut ids = Vec::new();
    let mut saw_finish = false;
    while !saw_finish {
        let frame = stream
            .next_frame(deadline)
            .expect("stream must stay open until we drop it");
        if frame.comment {
            continue;
        }
        ids.push(frame.id.expect("data frames carry ids"));
        if frame.event.as_deref() == Some("job") {
            let data = Json::parse(frame.data.as_deref().unwrap()).unwrap();
            if data.get("state").and_then(Json::as_str) == Some("finished") {
                saw_finish = true;
            }
        }
    }
    assert!(
        ids.len() > 6,
        "expected a full flow's worth of events: {ids:?}"
    );
    for pair in ids.windows(2) {
        assert_eq!(
            pair[1],
            pair[0] + 1,
            "the unfiltered stream must have no sequence gaps: {ids:?}"
        );
    }
    drop(stream);
    server.shutdown();
}

#[test]
fn killing_a_stream_mid_flight_leaves_the_server_healthy() {
    let _guard = lock();
    let server = Server::start(test_config()).expect("server boots");
    let addr = server.local_addr();

    let id = submit(addr, FLOW_BODY);
    let mut stream = sse_connect(addr, &format!("/v1/jobs/{id}/events"), None);
    let deadline = Instant::now() + Duration::from_secs(30);
    let _ = stream.next_frame(deadline); // at least one frame made it
    drop(stream); // hard client kill mid-stream

    wait_done(addr, id);
    // The server shrugs it off: health answers and fresh work still runs.
    let (status, payload) = request(addr, "GET", "/healthz", "");
    assert_eq!(status, 200, "{payload}");
    let other = "{\"type\":\"flow\",\"benchmark\":\"n100\",\"setup\":\"pa\",\"seed\":11,\
                 \"stages\":4,\"moves\":8,\"grid_bins\":10,\"verification_bins\":10}";
    let second = submit(addr, other);
    wait_done(addr, second);
    server.shutdown();
}

#[test]
fn resume_past_the_ring_disconnects_lagged() {
    let _guard = lock();
    let server = Server::start(test_config()).expect("server boots");
    let addr = server.local_addr();

    // Push the ring far beyond one capacity so sequence 1 has aged out, then
    // ask to resume from the very beginning: unrecoverable, and the stream
    // must say so instead of silently skipping.
    for i in 0..(tsc3d_obs::event::capacity() as u64 + 64) {
        tsc3d_obs::emit(|| tsc3d_obs::EventKind::Checkpoint {
            name: "lag_fill",
            value: i,
        });
    }
    let mut stream = sse_connect(addr, "/v1/events", Some(0));
    let deadline = Instant::now() + Duration::from_secs(30);
    let (frames, disconnect) = stream.collect_until_disconnect(deadline);
    assert!(frames.is_empty(), "nothing streams before the lag notice");
    assert_eq!(disconnect_reason(&disconnect), "lagged");
    let data = Json::parse(disconnect.data.as_deref().unwrap()).unwrap();
    let missed = data
        .get("missed")
        .and_then(Json::as_u64)
        .expect("missed count");
    assert!(missed > 0);
    server.shutdown();
}

#[test]
fn graceful_shutdown_disconnects_watchers_with_draining() {
    let _guard = lock();
    let server = Server::start(test_config()).expect("server boots");
    let addr = server.local_addr();

    let mut stream = sse_connect(addr, "/v1/events", None);
    let (status, payload) = request(addr, "POST", "/v1/shutdown", "");
    assert_eq!(status, 200, "{payload}");
    server.wait_shutdown_requested();

    let deadline = Instant::now() + Duration::from_secs(30);
    let (_frames, disconnect) = stream.collect_until_disconnect(deadline);
    assert_eq!(disconnect_reason(&disconnect), "draining");
    server.shutdown();
}

#[test]
fn unknown_job_stream_is_a_404() {
    let _guard = lock();
    let server = Server::start(test_config()).expect("server boots");
    let addr = server.local_addr();
    let (status, payload) = request(addr, "GET", "/v1/jobs/999/events", "");
    assert_eq!(status, 404, "{payload}");
    server.shutdown();
}
