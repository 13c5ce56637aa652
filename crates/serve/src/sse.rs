//! Server-sent-events streaming of the live event bus.
//!
//! `GET /v1/events` streams every event the process emits; `GET
//! /v1/jobs/{id}/events` filters to one job (see [`tsc3d_obs::JobScope`]).
//! The wire format is standard SSE over chunked HTTP/1.1 — each frame carries
//! the event's sequence number as `id:`, its kind as `event:` and its flat
//! JSON encoding as `data:` — so `Last-Event-ID` resume works with any
//! off-the-shelf `EventSource` reconnect loop: the bus replays from `n + 1`
//! while the sequence is still in the flight-recorder ring.
//!
//! The slow-client contract has two halves. The ring itself never blocks on a
//! reader (bounded buffering); when a subscriber's cursor falls out of the
//! ring, the stream ends with a typed `disconnect` frame,
//! `{"reason":"lagged","missed":N}`, instead of silently skipping — the client
//! decides whether to reattach live. Streams also end with typed disconnects
//! on server shutdown (`"draining"`) and, for job streams, once the job
//! settles and its backlog is fully delivered (`"complete"`).
//!
//! Heartbeat comment frames go out during idle stretches so half-dead
//! connections are discovered within [`HEARTBEAT`] + the socket write timeout
//! rather than never.

use crate::http::Request;
use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Idle interval between `: heartbeat` comment frames.
pub const HEARTBEAT: Duration = Duration::from_secs(5);

/// Most SSE streams one daemon serves at once. Every stream holds an OS thread until it
/// ends, so the budget bounds the threads clients can pin; further requests get `503`
/// with `Retry-After`, counted as `tsc3d_serve_rejected_total{reason="watchers"}`.
pub const MAX_WATCHERS: usize = 64;

/// Sleep between empty polls of the event ring.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// Events fetched per poll (bounds the work done per loop turn, not delivery).
const POLL_BATCH: usize = 256;

/// What an SSE request asked to watch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SseTarget {
    /// `GET /v1/events`: the whole process-wide stream.
    All,
    /// `GET /v1/jobs/{id}/events`: only events stamped with this job id.
    Job(u64),
}

/// The job-table state the streaming loop needs, abstracted so this module
/// does not reach into the server's shared state directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobPhase {
    /// The id is unknown (expired or never existed).
    Missing,
    /// Queued or running: keep streaming.
    Active,
    /// Done or failed: drain the backlog, then disconnect `"complete"`.
    Settled,
}

/// Recognizes the two SSE routes. Returns `None` for everything else
/// (including non-GET methods on those paths) so the normal router answers.
pub fn sse_target(request: &Request) -> Option<SseTarget> {
    if request.method != "GET" {
        return None;
    }
    if request.path == "/v1/events" {
        return Some(SseTarget::All);
    }
    let rest = request.path.strip_prefix("/v1/jobs/")?;
    let id_text = rest.strip_suffix("/events")?;
    id_text.parse().ok().map(SseTarget::Job)
}

/// Streams events to one client until it disconnects, falls behind the ring,
/// the server shuts down, or (job streams) the job settles.
///
/// `shutting_down` is polled every loop turn; `job_phase` reports the current
/// state of a job id. Both are closures so the caller keeps ownership of its
/// shared state. Errors writing to the socket end the stream silently — a
/// vanished client needs no goodbye.
pub fn stream_events(
    mut stream: TcpStream,
    request: &Request,
    target: SseTarget,
    shutting_down: impl Fn() -> bool,
    job_phase: impl Fn(u64) -> JobPhase,
) {
    if let SseTarget::Job(id) = target {
        if job_phase(id) == JobPhase::Missing {
            let response = crate::http::Response::error(404, &format!("no job {id}"));
            let _ = crate::http::write_response(&mut stream, &response);
            return;
        }
    }

    let head = "HTTP/1.1 200 OK\r\n\
                content-type: text/event-stream\r\n\
                cache-control: no-cache\r\n\
                transfer-encoding: chunked\r\n\
                connection: close\r\n\r\n";
    if stream.write_all(head.as_bytes()).is_err() {
        return;
    }

    // Resume takes precedence; otherwise a job stream replays the ring's
    // retained history (a watcher attaching mid-job still sees its earlier
    // events) while the global stream starts live.
    let resume = request
        .header("last-event-id")
        .and_then(|value| value.trim().parse::<u64>().ok());
    let mut subscriber = match (resume, target) {
        (Some(last), _) => tsc3d_obs::subscribe_from(last + 1),
        (None, SseTarget::Job(_)) => tsc3d_obs::subscribe_from(
            tsc3d_obs::event::next_seq().saturating_sub(tsc3d_obs::event::capacity() as u64),
        ),
        (None, SseTarget::All) => tsc3d_obs::subscribe(),
    };

    let mut last_write = Instant::now();
    let mut first_poll = true;
    loop {
        if shutting_down() {
            let _ = disconnect(&mut stream, "draining", None);
            return;
        }
        // Read the job phase *before* polling: the executor emits the final
        // job event before the table settles, so `Settled` + an empty poll
        // proves the backlog was fully delivered.
        let settled = match target {
            SseTarget::Job(id) => job_phase(id) != JobPhase::Active,
            SseTarget::All => false,
        };
        let poll = subscriber.poll(POLL_BATCH);
        // An explicit resume point that already aged out of the ring is
        // unrecoverable, so it disconnects `"lagged"` immediately — the client
        // must decide whether to reattach live. The job stream's *own* ring-
        // floor replay (no Last-Event-ID) tolerates initial missed events.
        if poll.missed > 0 && (resume.is_some() || !first_poll) {
            let _ = disconnect(&mut stream, "lagged", Some(poll.missed));
            return;
        }
        if poll.missed > 0 {
            // The job stream's replay window reached past the ring; tell the
            // client as a comment and stream on from what's retained.
            if write_chunk(
                &mut stream,
                format!(": missed {}\n\n", poll.missed).as_bytes(),
            )
            .is_err()
            {
                return;
            }
        }
        first_poll = false;

        let mut delivered = false;
        for event in &poll.events {
            if let SseTarget::Job(id) = target {
                if event.job != id {
                    continue;
                }
            }
            let frame = format!(
                "id: {}\nevent: {}\ndata: {}\n\n",
                event.seq,
                event.kind_name(),
                event.to_json()
            );
            if write_chunk(&mut stream, frame.as_bytes()).is_err() {
                return;
            }
            delivered = true;
        }
        if delivered {
            last_write = Instant::now();
        }

        if poll.events.is_empty() {
            if settled {
                let _ = disconnect(&mut stream, "complete", None);
                return;
            }
            if last_write.elapsed() >= HEARTBEAT {
                if write_chunk(&mut stream, b": heartbeat\n\n").is_err() {
                    return;
                }
                last_write = Instant::now();
            }
            std::thread::sleep(POLL_INTERVAL);
        }
    }
}

/// Writes the typed terminal frame and the chunked-encoding terminator.
fn disconnect(stream: &mut TcpStream, reason: &str, missed: Option<u64>) -> std::io::Result<()> {
    let data = match missed {
        Some(missed) => format!("{{\"reason\":\"{reason}\",\"missed\":{missed}}}"),
        None => format!("{{\"reason\":\"{reason}\"}}"),
    };
    write_chunk(
        stream,
        format!("event: disconnect\ndata: {data}\n\n").as_bytes(),
    )?;
    stream.write_all(b"0\r\n\r\n")?;
    stream.flush()
}

/// Writes one HTTP chunk (`<hex len>\r\n<data>\r\n`) and flushes it so frames
/// leave immediately instead of pooling in a buffer.
fn write_chunk(stream: &mut TcpStream, data: &[u8]) -> std::io::Result<()> {
    write!(stream, "{:X}\r\n", data.len())?;
    stream.write_all(data)?;
    stream.write_all(b"\r\n")?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(path: &str) -> Request {
        Request {
            method: "GET".into(),
            path: path.into(),
            headers: Vec::new(),
            body: Vec::new(),
        }
    }

    #[test]
    fn target_recognition() {
        assert_eq!(sse_target(&get("/v1/events")), Some(SseTarget::All));
        assert_eq!(
            sse_target(&get("/v1/jobs/17/events")),
            Some(SseTarget::Job(17))
        );
        assert_eq!(sse_target(&get("/v1/jobs/17")), None);
        assert_eq!(sse_target(&get("/v1/jobs/x/events")), None);
        let mut post = get("/v1/events");
        post.method = "POST".into();
        assert_eq!(sse_target(&post), None);
    }
}
