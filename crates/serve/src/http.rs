//! A minimal hand-rolled HTTP/1.1 layer on blocking [`std::net`] sockets.
//!
//! The workspace's vendored dependencies are offline API stand-ins (no hyper/tokio), so
//! the serve daemon owns its wire format: one request per connection (`Connection:
//! close`), a bounded header block, and a `Content-Length`-framed body with a configurable
//! size limit. That subset is all the job API needs and keeps every failure mode typed.

use std::io::{Read, Write};
use std::net::TcpStream;
use tsc3d_obs::json::Json;

/// Upper bound on the request head (request line + headers). Requests with a larger head
/// are refused with `431`.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Wall-clock budget for reading one full request. The socket read timeout alone is
/// per-`read()`, which a slow-loris client trickling single bytes never trips; this
/// deadline bounds how long any connection can hold a handler thread (`408` beyond).
pub const REQUEST_DEADLINE: std::time::Duration = std::time::Duration::from_secs(30);

/// A parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    /// The method verb (`GET`, `POST`, ...), as sent.
    pub method: String,
    /// The request path with any query string stripped.
    pub path: String,
    /// Header fields, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// The request body (empty without a `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of a header (name matched case-insensitively).
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be read; each variant maps to one HTTP status.
#[derive(Debug)]
pub enum RequestError {
    /// The socket failed or closed mid-request.
    Io(std::io::Error),
    /// The request was malformed (`400`).
    Malformed(String),
    /// The head exceeded [`MAX_HEAD_BYTES`] (`431`).
    HeadTooLarge,
    /// The request was not fully received within [`REQUEST_DEADLINE`] (`408`).
    Timeout,
    /// The declared body length exceeded the server's limit (`413`).
    BodyTooLarge {
        /// The declared `Content-Length`.
        declared: usize,
        /// The server's limit.
        limit: usize,
    },
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestError::Io(e) => write!(f, "socket error: {e}"),
            RequestError::Malformed(reason) => write!(f, "malformed request: {reason}"),
            RequestError::HeadTooLarge => {
                write!(f, "request head exceeds {MAX_HEAD_BYTES} bytes")
            }
            RequestError::Timeout => {
                write!(
                    f,
                    "request not received within {} seconds",
                    REQUEST_DEADLINE.as_secs()
                )
            }
            RequestError::BodyTooLarge { declared, limit } => {
                write!(
                    f,
                    "request body of {declared} bytes exceeds the {limit}-byte limit"
                )
            }
        }
    }
}

impl std::error::Error for RequestError {}

impl From<std::io::Error> for RequestError {
    fn from(e: std::io::Error) -> Self {
        RequestError::Io(e)
    }
}

impl RequestError {
    /// The HTTP status this error is reported as (I/O errors get no response at all).
    pub fn status(&self) -> u16 {
        match self {
            RequestError::Io(_) => 400,
            RequestError::Malformed(_) => 400,
            RequestError::HeadTooLarge => 431,
            RequestError::Timeout => 408,
            RequestError::BodyTooLarge { .. } => 413,
        }
    }
}

/// Reads one request from the stream, enforcing the head bound and `max_body` limit.
///
/// Any [`Read`] source works (the daemon passes its `TcpStream`); arbitrary bytes give a
/// [`Request`] or a typed [`RequestError`], never a panic.
///
/// # Errors
///
/// Returns a [`RequestError`] on socket failure, malformed framing, or an oversized
/// head/body.
pub fn read_request(stream: &mut impl Read, max_body: usize) -> Result<Request, RequestError> {
    let deadline = std::time::Instant::now() + REQUEST_DEADLINE;
    // Accumulate until the blank line that ends the head.
    let mut buffer: Vec<u8> = Vec::with_capacity(1024);
    let head_end = loop {
        if let Some(pos) = find_head_end(&buffer) {
            break pos;
        }
        if buffer.len() > MAX_HEAD_BYTES {
            return Err(RequestError::HeadTooLarge);
        }
        if std::time::Instant::now() > deadline {
            return Err(RequestError::Timeout);
        }
        let mut chunk = [0u8; 1024];
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(RequestError::Malformed(
                "connection closed before the request head ended".into(),
            ));
        }
        buffer.extend_from_slice(&chunk[..n]);
    };

    let head = std::str::from_utf8(&buffer[..head_end])
        .map_err(|_| RequestError::Malformed("request head is not UTF-8".into()))?;
    let mut lines = head.split("\r\n");
    let request_line = lines
        .next()
        .ok_or_else(|| RequestError::Malformed("empty request".into()))?;
    let mut parts = request_line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty())
        .ok_or_else(|| RequestError::Malformed("missing method".into()))?
        .to_string();
    let target = parts
        .next()
        .ok_or_else(|| RequestError::Malformed("missing request target".into()))?;
    let version = parts
        .next()
        .ok_or_else(|| RequestError::Malformed("missing HTTP version".into()))?;
    if !version.starts_with("HTTP/1.") {
        return Err(RequestError::Malformed(format!(
            "unsupported protocol '{version}'"
        )));
    }
    let path = target.split('?').next().unwrap_or(target).to_string();

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| RequestError::Malformed(format!("header without ':': '{line}'")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let request_head = Request {
        method,
        path,
        headers,
        body: Vec::new(),
    };
    let content_length = match request_head.header("content-length") {
        None => 0,
        Some(value) => value
            .parse::<usize>()
            .map_err(|_| RequestError::Malformed(format!("bad content-length '{value}'")))?,
    };
    if content_length > max_body {
        return Err(RequestError::BodyTooLarge {
            declared: content_length,
            limit: max_body,
        });
    }

    let mut body = buffer[head_end + 4..].to_vec();
    while body.len() < content_length {
        if std::time::Instant::now() > deadline {
            return Err(RequestError::Timeout);
        }
        let mut chunk = vec![0u8; (content_length - body.len()).min(64 * 1024)];
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(RequestError::Malformed(
                "connection closed before the declared body ended".into(),
            ));
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);

    Ok(Request {
        body,
        ..request_head
    })
}

/// Byte offset of the `\r\n\r\n` head terminator, if present.
fn find_head_end(buffer: &[u8]) -> Option<usize> {
    buffer.windows(4).position(|w| w == b"\r\n\r\n")
}

/// An HTTP response about to be written.
#[derive(Debug)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// `Content-Type` value.
    pub content_type: &'static str,
    /// Extra header fields emitted after `Content-Type` (e.g. `Retry-After` on `429`).
    pub headers: Vec<(&'static str, String)>,
    /// Response body.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response from a [`Json`] tree.
    pub fn json(status: u16, value: &Json) -> Self {
        Self {
            status,
            content_type: "application/json",
            headers: Vec::new(),
            body: value.render().into_bytes(),
        }
    }

    /// A JSON response from an already-rendered body (served verbatim — the cache path's
    /// byte-identity guarantee).
    pub fn raw_json(status: u16, body: &str) -> Self {
        Self {
            status,
            content_type: "application/json",
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: String) -> Self {
        Self {
            status,
            content_type: "text/plain; charset=utf-8",
            headers: Vec::new(),
            body: body.into_bytes(),
        }
    }

    /// A JSON error envelope: `{"error": message}`.
    pub fn error(status: u16, message: &str) -> Self {
        Self::json(
            status,
            &Json::Obj(vec![("error".into(), Json::Str(message.to_string()))]),
        )
    }

    /// Adds an extra header field (builder-style).
    pub fn with_header(mut self, name: &'static str, value: String) -> Self {
        self.headers.push((name, value));
        self
    }
}

/// The reason phrase of the status codes this server emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Writes a response (with `Connection: close` framing) to the stream.
///
/// # Errors
///
/// Returns the socket error, which the connection handler logs and drops.
pub fn write_response(stream: &mut TcpStream, response: &Response) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: close\r\n",
        response.status,
        reason(response.status),
        response.content_type,
        response.body.len(),
    );
    for (name, value) in &response.headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(&response.body)?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn head_end_detection() {
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n\r\nbody"), Some(14));
        assert_eq!(find_head_end(b"partial\r\n"), None);
    }

    #[test]
    fn error_statuses() {
        assert_eq!(RequestError::HeadTooLarge.status(), 431);
        assert_eq!(
            RequestError::BodyTooLarge {
                declared: 10,
                limit: 5
            }
            .status(),
            413
        );
        assert_eq!(RequestError::Malformed("x".into()).status(), 400);
    }

    #[test]
    fn responses_render_json() {
        let response = Response::error(404, "nope");
        assert_eq!(response.status, 404);
        assert_eq!(response.body, b"{\"error\":\"nope\"}");
    }

    #[test]
    fn extra_headers_attach() {
        let response = Response::error(429, "busy").with_header("retry-after", "1".into());
        assert_eq!(response.headers, vec![("retry-after", "1".to_string())]);
    }
}
