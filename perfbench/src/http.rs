//! A blocking HTTP/1.1 client for the serve workload: one request per connection, the
//! whole response read until the server closes it.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

const TIMEOUT: Duration = Duration::from_secs(60);

pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
}

impl Response {
    pub fn text(&self) -> &str {
        std::str::from_utf8(&self.body).unwrap_or("")
    }
}

fn send(addr: SocketAddr, method: &str, path: &str, body: &str) -> std::io::Result<TcpStream> {
    let mut stream = TcpStream::connect_timeout(&addr, TIMEOUT)?;
    stream.set_read_timeout(Some(TIMEOUT))?;
    stream.set_write_timeout(Some(TIMEOUT))?;
    let _ = stream.set_nodelay(true);
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    Ok(stream)
}

/// Reads a streaming response (SSE) until `done` holds for what arrived so far or the
/// server closes, then drops the connection; returns the raw bytes read.
pub fn watch(addr: SocketAddr, path: &str, done: impl Fn(&str) -> bool) -> Result<String, String> {
    let io = |e: std::io::Error| format!("GET {path}: {e}");
    let mut stream = send(addr, "GET", path, "").map_err(io)?;
    let mut raw = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        let n = stream.read(&mut chunk).map_err(io)?;
        raw.extend_from_slice(&chunk[..n]);
        let text = String::from_utf8_lossy(&raw);
        if n == 0 || done(&text) {
            return Ok(text.into_owned());
        }
    }
}

pub fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> Result<Response, String> {
    let io = |e: std::io::Error| format!("{method} {path}: {e}");
    let mut stream = send(addr, method, path, body).map_err(io)?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).map_err(io)?;
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| format!("{method} {path}: no response head"))?;
    let status = std::str::from_utf8(&raw[..split])
        .ok()
        .and_then(|head| head.split(' ').nth(1))
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| format!("{method} {path}: bad status line"))?;
    Ok(Response {
        status,
        body: raw[split + 4..].to_vec(),
    })
}
