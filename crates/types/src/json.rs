//! Hand-rolled JSON codec for the `pei-serve` wire protocol: a small
//! value model, an escaping encoder, and a validating decoder with
//! offset-reporting errors in the style of the `.petr` codec.
//!
//! The subset is exactly what the newline-delimited frame protocol
//! needs (DESIGN.md §12): objects, arrays, strings with full escape
//! handling, numbers, booleans, and null. Integers that fit `u64`/`i64`
//! round-trip exactly ([`Json::U64`]/[`Json::I64`]), which matters for
//! 64-bit seeds and cycle counts that a lossy `f64` representation
//! would corrupt.
//!
//! # Examples
//!
//! ```
//! use pei_types::json::Json;
//!
//! let v = Json::parse(r#"{"type":"ack","job":7}"#).unwrap();
//! assert_eq!(v.get("type").and_then(Json::as_str), Some("ack"));
//! assert_eq!(v.get("job").and_then(Json::as_u64), Some(7));
//! assert_eq!(v.encode(), r#"{"type":"ack","job":7}"#);
//! ```

use std::fmt::Write as _;

/// Maximum nesting depth the decoder accepts. Frames are nearly flat;
/// the bound turns a hostile deeply-nested input into an error instead
/// of a stack overflow.
const MAX_DEPTH: usize = 64;

/// A JSON value.
///
/// Object members keep their source order (encoding is deterministic
/// and diff-friendly); lookups scan, which is fine at frame sizes.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer that fits `u64` (exact round trip).
    U64(u64),
    /// A negative integer that fits `i64` (exact round trip).
    I64(i64),
    /// Any other number (fractional or out of integer range).
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source / insertion order.
    Obj(Vec<(String, Json)>),
}

/// A decode failure: the byte offset at which it was detected and what
/// the decoder was doing, mirroring `SnapError`'s offset discipline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input at which decoding failed.
    pub offset: usize,
    /// Description of the problem.
    pub what: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bad JSON at byte {}: {}", self.offset, self.what)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parses exactly one JSON value spanning the whole input
    /// (surrounding whitespace allowed, trailing garbage rejected).
    pub fn parse(s: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: s.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing data after value"));
        }
        Ok(v)
    }

    /// Serializes this value as compact JSON (no whitespace).
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Appends this value's compact JSON to `out`.
    pub fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(n) => {
                let _ = write!(out, "{n}");
            }
            Json::I64(n) => {
                let _ = write!(out, "{n}");
            }
            Json::F64(x) => {
                // JSON has no NaN/Inf; encode them as null like every
                // pragmatic serializer.
                if x.is_finite() {
                    let _ = write!(out, "{x}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Member lookup on an object; `None` for other variants or a
    /// missing key.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integer (including
    /// an integral `f64` that fits without loss).
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::U64(n) => Some(n),
            Json::I64(n) => u64::try_from(n).ok(),
            Json::F64(x) if x >= 0.0 && x.fract() == 0.0 && x < 2f64.powi(53) => Some(x as u64),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is any number.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::U64(n) => Some(n as f64),
            Json::I64(n) => Some(n as f64),
            Json::F64(x) => Some(x),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_owned())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::U64(n)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::F64(x)
    }
}

/// Appends `s` as a quoted JSON string, escaping quotes, backslashes,
/// and control characters.
fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, what: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            what: what.into(),
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    self.skip_ws();
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(self.err("expected `,` or `]` in array")),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut members = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    self.skip_ws();
                    let val = self.value(depth + 1)?;
                    members.push((key, val));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Obj(members));
                        }
                        _ => return Err(self.err("expected `,` or `}` in object")),
                    }
                }
            }
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            Some(b) => Err(self.err(format!("unexpected byte {b:#04x}"))),
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut saw_digit = false;
        let mut integral = true;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => {
                    saw_digit = true;
                    self.pos += 1;
                }
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    integral = false;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        if !saw_digit {
            self.pos = start;
            return Err(self.err("malformed number"));
        }
        // The token is valid UTF-8 by construction (ASCII subset).
        let token = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if integral {
            if let Ok(n) = token.parse::<u64>() {
                return Ok(Json::U64(n));
            }
            if let Ok(n) = token.parse::<i64>() {
                return Ok(Json::I64(n));
            }
        }
        match token.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(Json::F64(x)),
            _ => {
                self.pos = start;
                Err(self.err(format!("malformed number `{token}`")))
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"').map_err(|_| self.err("expected string"))?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            match b {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let Some(esc) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let c = if (0xd800..0xdc00).contains(&hi) {
                                // Surrogate pair: require the low half.
                                if !self.bytes[self.pos..].starts_with(b"\\u") {
                                    return Err(self.err("lone high surrogate"));
                                }
                                self.pos += 2;
                                let lo = self.hex4()?;
                                if !(0xdc00..0xe000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let code = 0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00);
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid surrogate pair"))?
                            } else {
                                char::from_u32(hi).ok_or_else(|| self.err("lone low surrogate"))?
                            };
                            out.push(c);
                        }
                        other => {
                            self.pos -= 1;
                            return Err(self.err(format!("unknown escape `\\{}`", other as char)));
                        }
                    }
                }
                0x00..=0x1f => return Err(self.err("raw control character in string")),
                _ => {
                    // Consume one UTF-8 scalar: the input is a &str, so
                    // the bytes are valid UTF-8 by construction.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..]).unwrap();
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("non-ASCII in \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos = end;
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for src in [
            "null", "true", "false", "0", "42", "-7", r#""hi""#, "1.5", "[]", "{}",
        ] {
            let v = Json::parse(src).unwrap();
            assert_eq!(v.encode(), src, "round-tripping {src}");
        }
    }

    #[test]
    fn u64_is_exact() {
        let big = u64::MAX - 1;
        let v = Json::parse(&big.to_string()).unwrap();
        assert_eq!(v.as_u64(), Some(big));
        assert_eq!(v.encode(), big.to_string());
        let neg = Json::parse("-9007199254740993").unwrap();
        assert_eq!(neg, Json::I64(-9007199254740993));
    }

    #[test]
    fn escapes_round_trip() {
        let s = "a\"b\\c\nd\te\u{08}\u{0c}\r\u{1}é𝄞";
        let encoded = Json::Str(s.into()).encode();
        assert_eq!(Json::parse(&encoded).unwrap().as_str(), Some(s));
        // Surrogate-pair decoding.
        let v = Json::parse(r#""𝄞""#).unwrap();
        assert_eq!(v.as_str(), Some("𝄞"));
    }

    #[test]
    fn objects_preserve_order_and_lookup() {
        let v = Json::parse(r#"{"b":1,"a":[2,{"c":null}]}"#).unwrap();
        assert_eq!(v.encode(), r#"{"b":1,"a":[2,{"c":null}]}"#);
        assert_eq!(v.get("b").and_then(Json::as_u64), Some(1));
        assert_eq!(v.get("a").and_then(Json::as_arr).map(<[_]>::len), Some(2));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn errors_report_offsets() {
        let err = Json::parse(r#"{"a":}"#).unwrap_err();
        assert_eq!(err.offset, 5);
        let err = Json::parse(r#"{"a":1} x"#).unwrap_err();
        assert_eq!(err.offset, 8);
        assert!(err.to_string().contains("byte 8"));
        let err = Json::parse("\"ab").unwrap_err();
        assert!(err.to_string().contains("unterminated"));
        let err = Json::parse(r#""\ud834""#).unwrap_err();
        assert!(err.to_string().contains("surrogate"));
    }

    #[test]
    fn depth_is_bounded() {
        let deep = format!("{}1{}", "[".repeat(200), "]".repeat(200));
        let err = Json::parse(&deep).unwrap_err();
        assert!(err.to_string().contains("deep"));
    }

    #[test]
    fn nan_encodes_as_null() {
        assert_eq!(Json::F64(f64::NAN).encode(), "null");
    }
}
