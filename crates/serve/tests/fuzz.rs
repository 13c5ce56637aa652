//! Seeded fuzz suite of the hand-rolled HTTP request reader
//! (`tsc3d_serve::http::read_request`), fed from memory in random-sized reads.
//!
//! * Random byte strings built from request-shaped tokens — methods, targets, versions,
//!   line breaks, header names, `Content-Length` values past `usize::MAX`, invalid
//!   UTF-8 — and heads past `MAX_HEAD_BYTES` read as a request or a typed
//!   `RequestError`, never a panic. Memory never fails a read, so the error is never
//!   `Io`, and a request's body is exactly its declared length.
//! * Well-formed requests with random paths, query strings, headers and bodies read back
//!   field for field.

use proptest::prelude::*;
use proptest::test_runner::TestRng;
use std::io::Read;
use tsc3d_serve::http::{read_request, RequestError, MAX_HEAD_BYTES};

/// The body limit the properties read under.
const MAX_BODY: usize = 64;

const TOKENS: &[&[u8]] = &[
    b"GET",
    b"POST",
    b"DELETE",
    b" ",
    b"/",
    b"/v1/jobs",
    b"?q=1",
    b"HTTP/1.1",
    b"HTTP/2",
    b"\r\n",
    b"\r\n\r\n",
    b"\n",
    b"\r",
    b":",
    b"content-length",
    b"Content-Length: ",
    b"0",
    b"5",
    b"64",
    b"65",
    b"-1",
    b"99999999999999999999999",
    b"x",
    b"{}",
    b"\0",
    b"\xff",
    b"\xc3\xa9",
    b"\t",
];

/// Serves `data` in reads of at most `step` bytes, then end-of-stream.
struct Trickle {
    data: Vec<u8>,
    pos: usize,
    step: usize,
}

impl Read for Trickle {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = buf.len().min(self.step).min(self.data.len() - self.pos);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// Request-shaped bytes and the read size to deliver them in. One case in eight is a
/// head of filler bytes past `MAX_HEAD_BYTES`.
struct RequestLike;

impl Strategy for RequestLike {
    type Value = (Vec<u8>, usize);

    fn sample(&self, rng: &mut TestRng) -> (Vec<u8>, usize) {
        let mut bytes = Vec::new();
        if rng.below(8) == 0 {
            bytes.extend_from_slice(b"GET / HTTP/1.1\r\n");
            bytes.resize(MAX_HEAD_BYTES + rng.below(4096) as usize, b'a');
        }
        for _ in 0..rng.below(48) {
            bytes.extend_from_slice(TOKENS[rng.below(TOKENS.len() as u64) as usize]);
        }
        (bytes, 1 + rng.below(2048) as usize)
    }
}

/// A well-formed request: its wire bytes, the expected method, path, headers and body,
/// and the read size.
struct WellFormed;

type Expected = (String, String, Vec<(String, String)>, Vec<u8>);

fn word(rng: &mut TestRng, alphabet: &[u8], max: u64) -> String {
    (0..1 + rng.below(max))
        .map(|_| alphabet[rng.below(alphabet.len() as u64) as usize] as char)
        .collect()
}

impl Strategy for WellFormed {
    type Value = (Vec<u8>, Expected, usize);

    fn sample(&self, rng: &mut TestRng) -> (Vec<u8>, Expected, usize) {
        let method = ["GET", "POST", "DELETE", "PUT"][rng.below(4) as usize].to_string();
        let path = format!("/{}", word(rng, b"abcxyz019/-_.{}", 24));
        let query = if rng.below(2) == 0 {
            format!("?{}", word(rng, b"ab=&?/", 8))
        } else {
            String::new()
        };
        let body: Vec<u8> = (0..rng.below(MAX_BODY as u64 + 1))
            .map(|_| rng.below(256) as u8)
            .collect();
        let mut headers: Vec<(String, String)> = (0..rng.below(5))
            .map(|_| {
                let name = word(rng, b"abcXYZ-", 12);
                let value = word(rng, b"abc 019:;,=/\"", 20).trim().to_string();
                (name, value)
            })
            .filter(|(name, _)| !name.eq_ignore_ascii_case("content-length"))
            .collect();
        headers.push(("Content-Length".to_string(), body.len().to_string()));
        let mut wire = format!("{method} {path}{query} HTTP/1.1\r\n").into_bytes();
        for (name, value) in &headers {
            wire.extend_from_slice(format!("{name}: {value}\r\n").as_bytes());
        }
        wire.extend_from_slice(b"\r\n");
        wire.extend_from_slice(&body);
        let headers = headers
            .into_iter()
            .map(|(name, value)| (name.to_ascii_lowercase(), value))
            .collect();
        let step = 1 + rng.below(256) as usize;
        (wire, (method, path, headers, body), step)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn request_like_bytes_read_or_fail_typed(input in RequestLike) {
        let (data, step) = input;
        let mut source = Trickle { data, pos: 0, step };
        match read_request(&mut source, MAX_BODY) {
            Ok(request) => {
                prop_assert!(!request.method.is_empty());
                prop_assert!(!request.path.contains('?'), "{}", request.path);
                let declared = request
                    .header("content-length")
                    .map_or(0, |v| v.parse::<usize>().expect("a read request's length parses"));
                prop_assert!(declared <= MAX_BODY);
                prop_assert_eq!(request.body.len(), declared);
            }
            Err(RequestError::Io(e)) => return Err(format!("memory reads cannot fail: {e}")),
            Err(e) => prop_assert!((400..=431).contains(&e.status()), "{e}"),
        }
    }

    #[test]
    fn well_formed_requests_read_back_field_for_field(input in WellFormed) {
        let (data, (method, path, headers, body), step) = input;
        let mut source = Trickle { data, pos: 0, step };
        let request = read_request(&mut source, MAX_BODY).map_err(|e| e.to_string())?;
        prop_assert_eq!(request.method, method);
        prop_assert_eq!(request.path, path);
        prop_assert_eq!(request.headers, headers);
        prop_assert_eq!(request.body, body);
    }
}
