//! The workspace's JSON codec: a small [`Json`] tree with a one-line writer and a
//! recursive-descent parser, shared by every JSONL file, bench file, span export, event
//! line and HTTP body the workspace reads or writes.
//!
//! The vendored `serde` is an offline API stand-in whose traits carry no data model (see
//! `vendor/README.md`), so the format is owned concretely here, at the bottom of the
//! dependency graph. The important property for resumability is an exact `f64` round
//! trip — finite numbers are written with Rust's shortest-round-trip `Display` and
//! re-parsed with `str::parse`, which is correctly rounded, so a metric read back from
//! disk is bit-identical to the one written.
//!
//! The parser is total: any input yields a value or a [`JsonError`], never a panic.
//! Nesting deeper than [`MAX_DEPTH`] is an error rather than a stack overflow, and
//! string parsing is linear in the input length.
//!
//! # Non-finite numbers
//!
//! JSON has no `NaN`/`Infinity` tokens, and emitting them bare would produce files no
//! parser accepts. Non-finite [`Json::Num`] values are therefore written as the sentinel
//! *strings* `"NaN"`, `"Infinity"` and `"-Infinity"`, which [`Json::as_f64`] maps back —
//! so a NaN metric round-trips (as a NaN; payload bits are not preserved) instead of
//! silently degrading. Strict decoders that refuse non-finite input (e.g. the campaign
//! spec codec's numeric fields) treat the sentinels like any other string: a typed
//! decode error.

use std::error::Error;
use std::fmt;

/// The deepest array/object nesting [`Json::parse`] accepts. The deepest document the
/// workspace writes nests 5 levels; the bound keeps hostile input (a request body of
/// `[[[[…`) from overflowing a handler thread's stack.
pub const MAX_DEPTH: usize = 128;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer (kept exact up to `u64::MAX`, e.g. seeds and job ids).
    UInt(u64),
    /// Any other number. Non-finite values are written as the sentinel strings `"NaN"`,
    /// `"Infinity"` and `"-Infinity"` (see the module docs).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved by the writer.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on an object; `None` for missing keys and non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `u64` (exact integers only).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(u) => Some(*u),
            _ => None,
        }
    }

    /// The value as an `f64` (integers widen). The writer's non-finite sentinel strings
    /// map back to their values, and `null` — the encoding of NaN in files written before
    /// the sentinels existed — still reads as NaN.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            Json::UInt(u) => Some(*u as f64),
            Json::Str(s) => match s.as_str() {
                "NaN" => Some(f64::NAN),
                "Infinity" => Some(f64::INFINITY),
                "-Infinity" => Some(f64::NEG_INFINITY),
                _ => None,
            },
            Json::Null => Some(f64::NAN),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// `true` for `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Serializes the value on one line (no insignificant whitespace).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::UInt(u) => out.push_str(&u.to_string()),
            // Rust's `Display` for f64 prints the shortest representation that parses
            // back to the same bits — exactly what resume equivalence needs. Integral
            // floats print like integers and re-parse as `UInt`; `as_f64` widens them
            // back losslessly.
            Json::Num(x) if x.is_finite() => out.push_str(&x.to_string()),
            // Never a bare NaN/Infinity token (invalid JSON): non-finite numbers become
            // sentinel strings that as_f64 maps back.
            Json::Num(x) if x.is_nan() => out.push_str("\"NaN\""),
            Json::Num(x) if *x > 0.0 => out.push_str("\"Infinity\""),
            Json::Num(_) => out.push_str("\"-Infinity\""),
            Json::Str(s) => write_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(key, out);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses one JSON document; trailing non-whitespace input is an error.
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut parser = Parser {
            text: input,
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        parser.skip_whitespace();
        let value = parser.parse_value()?;
        parser.skip_whitespace();
        if parser.pos != parser.bytes.len() {
            return Err(parser.error("trailing characters after the document"));
        }
        Ok(value)
    }
}

/// Appends `s` to `out` as a quoted JSON string, escaping quotes, backslashes and
/// control characters.
pub fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Error of [`Json::parse`], with the byte offset it occurred at.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// Byte offset into the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl Error for JsonError {}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, message: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", byte as char)))
        }
    }

    fn consume_literal(&mut self, literal: &str) -> bool {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Result<Json, JsonError> {
        self.skip_whitespace();
        match self.peek() {
            Some(b'n') if self.consume_literal("null") => Ok(Json::Null),
            Some(b't') if self.consume_literal("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.consume_literal("false") => Ok(Json::Bool(false)),
            Some(b'"') => self.parse_string().map(Json::Str),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.error("nesting deeper than MAX_DEPTH"));
                }
                self.depth += 1;
                let value = if open == b'[' {
                    self.parse_array()
                } else {
                    self.parse_object()
                };
                self.depth -= 1;
                value
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    fn parse_array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_whitespace();
            let key = self.parse_string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            let value = self.parse_value()?;
            members.push((key, value));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let unit = self.parse_hex4()?;
                            let c = if (0xD800..0xDC00).contains(&unit) {
                                // High surrogate: a \uXXXX low surrogate must follow.
                                if !self.consume_literal("\\u") {
                                    return Err(self.error("unpaired surrogate"));
                                }
                                let low = self.parse_hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(self.error("invalid low surrogate"));
                                }
                                let combined = 0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
                                char::from_u32(combined)
                                    .ok_or_else(|| self.error("invalid surrogate pair"))?
                            } else {
                                char::from_u32(unit)
                                    .ok_or_else(|| self.error("invalid \\u escape"))?
                            };
                            out.push(c);
                            continue;
                        }
                        _ => return Err(self.error("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the whole run up to the next quote or backslash in one step.
                    // Both are ASCII, so the run ends on a char boundary of the input.
                    let run = self.bytes[self.pos..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(self.bytes.len() - self.pos);
                    out.push_str(&self.text[self.pos..self.pos + run]);
                    self.pos += run;
                }
            }
        }
    }

    /// Parses exactly four hex digits (the body of a `\u` escape).
    fn parse_hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.error("truncated \\u escape"));
        }
        let digits = &self.bytes[self.pos..end];
        // `from_str_radix` alone would also take a leading `+`.
        if !digits.iter().all(u8::is_ascii_hexdigit) {
            return Err(self.error("invalid \\u escape"));
        }
        let hex = std::str::from_utf8(digits).expect("hex digits are ASCII");
        let value = u32::from_str_radix(hex, 16).expect("four hex digits fit a u32");
        self.pos = end;
        Ok(value)
    }

    fn parse_number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number characters are ASCII");
        // Plain non-negative integers stay exact as UInt (seeds can exceed 2^53).
        if !text.contains(['.', 'e', 'E', '-', '+']) {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Json::UInt(u));
            }
        }
        text.parse::<f64>().map(Json::Num).map_err(|_| JsonError {
            offset: start,
            message: format!("invalid number '{text}'"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn objects_round_trip_in_order() {
        let value = Json::Obj(vec![
            ("b".into(), Json::UInt(2)),
            ("a".into(), Json::Num(-0.5)),
            ("s".into(), Json::Str("hi \"there\"\n".into())),
            ("l".into(), Json::Arr(vec![Json::Null, Json::Bool(true)])),
        ]);
        let text = value.render();
        assert!(text.starts_with("{\"b\":2,\"a\":-0.5,"));
        assert_eq!(Json::parse(&text).unwrap(), value);
    }

    #[test]
    fn floats_round_trip_exactly() {
        for &x in &[
            0.1,
            -1.0 / 3.0,
            1e-300,
            123456.789e12,
            f64::MIN_POSITIVE,
            f64::MAX,
            -0.0,
        ] {
            let text = Json::Num(x).render();
            let back = Json::parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} -> {text}");
        }
    }

    #[test]
    fn large_integers_stay_exact() {
        let text = Json::UInt(u64::MAX).render();
        assert_eq!(text, "18446744073709551615");
        assert_eq!(Json::parse(&text).unwrap().as_u64(), Some(u64::MAX));
    }

    #[test]
    fn non_finite_numbers_round_trip_as_sentinel_strings() {
        assert_eq!(Json::Num(f64::NAN).render(), "\"NaN\"");
        assert_eq!(Json::Num(f64::INFINITY).render(), "\"Infinity\"");
        assert_eq!(Json::Num(f64::NEG_INFINITY).render(), "\"-Infinity\"");
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let back = Json::parse(&Json::Num(x).render())
                .unwrap()
                .as_f64()
                .unwrap();
            assert!(x.is_nan() && back.is_nan() || back == x, "{x} -> {back}");
        }
        // Legacy encoding: a null metric (pre-sentinel files) still reads as NaN.
        assert!(Json::parse("null").unwrap().as_f64().unwrap().is_nan());
        // Ordinary strings are not numbers.
        assert_eq!(Json::Str("nan".into()).as_f64(), None);
    }

    #[test]
    fn escapes_and_unicode_round_trip() {
        let s = "tabs\tnewlines\ncontrol\u{1} emoji \u{1F600} ok";
        let text = Json::Str(s.into()).render();
        assert_eq!(Json::parse(&text).unwrap().as_str(), Some(s));
        // Surrogate-pair escapes parse too.
        assert_eq!(
            Json::parse("\"\\ud83d\\ude00\"").unwrap().as_str(),
            Some("\u{1F600}")
        );
    }

    #[test]
    fn exponents_and_signed_numbers_parse() {
        let value = Json::parse("[1, 2e3, -0.5, 1E-2]").unwrap();
        let numbers: Vec<f64> = value
            .as_array()
            .unwrap()
            .iter()
            .map(|n| n.as_f64().unwrap())
            .collect();
        assert_eq!(numbers, vec![1.0, 2000.0, -0.5, 0.01]);
        assert!(Json::parse("+1").is_err());
        assert!(Json::parse("\"\\u+123\"").is_err());
    }

    #[test]
    fn nesting_beyond_the_depth_limit_is_a_typed_error() {
        let at_limit = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&at_limit).is_ok());
        let nested_objects = format!("{}1{}", "{\"a\":".repeat(MAX_DEPTH), "}".repeat(MAX_DEPTH));
        assert!(Json::parse(&nested_objects).is_ok());

        let over = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        let err = Json::parse(&over).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH);
        assert!(err.message.contains("MAX_DEPTH"), "{err}");
        // Unterminated chains far past the limit (what a hostile body looks like) fail
        // the same way instead of exhausting the stack.
        for chain in ["[".repeat(64 * 1024), "{\"a\":".repeat(64 * 1024)] {
            let err = Json::parse(&chain).unwrap_err();
            assert!(err.message.contains("MAX_DEPTH"), "{err}");
        }
    }

    #[test]
    fn mebibyte_strings_round_trip() {
        let s: String = "ab\u{e9}\"\\\n\u{1F600}"
            .chars()
            .cycle()
            .take(1 << 20)
            .collect();
        let text = Json::Obj(vec![("s".into(), Json::Str(s.clone()))]).render();
        assert_eq!(
            Json::parse(&text).unwrap().get("s").and_then(Json::as_str),
            Some(s.as_str())
        );
        let plain = "x".repeat(1 << 20);
        let text = Json::Str(plain.clone()).render();
        assert_eq!(Json::parse(&text).unwrap(), Json::Str(plain));
    }

    #[test]
    fn malformed_documents_report_errors() {
        assert!(Json::parse("{\"a\":}").is_err());
        assert!(Json::parse("[1,2").is_err());
        assert!(Json::parse("12 34").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("{\"a\":1}x").is_err());
        let err = Json::parse("nope").unwrap_err();
        assert!(err.to_string().contains("byte"));
    }

    #[test]
    fn lookup_helpers() {
        let value = Json::parse("{\"a\":1,\"b\":[true,null],\"c\":\"x\"}").unwrap();
        assert_eq!(value.get("a").and_then(Json::as_u64), Some(1));
        assert_eq!(value.get("c").and_then(Json::as_str), Some("x"));
        assert_eq!(
            value.get("b").and_then(Json::as_array).map(<[Json]>::len),
            Some(2)
        );
        assert!(value.get("b").unwrap().as_array().unwrap()[1].is_null());
        assert!(value.get("missing").is_none());
    }
}
