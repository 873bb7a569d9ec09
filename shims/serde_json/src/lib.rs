//! Offline shim for the [`serde_json`](https://docs.rs/serde_json) crate.
//!
//! The build environment has no crates.io access. This shim is
//! **functional**: it implements the [`Value`] tree, [`to_string`] /
//! [`to_string_pretty`] writers and a [`from_str`] parser, which is
//! everything the machine-readable reports (`BENCH_*.json`) need. Numbers
//! round-trip exactly: like real serde_json, [`Number`] stores integers as
//! `u64`/`i64` (the full 64-bit range, not just the 2^53 floats can hold)
//! and floats with Rust's shortest-representation formatting, whose parse
//! is its exact inverse.
//!
//! Differences from real serde_json, by design:
//!
//! * No generic `Serialize`/`Deserialize` driving — only the explicit
//!   `Value` tree API (real serde_json's `Value` also offers it; code written
//!   against the tree API needs no changes when the crates.io dependency is
//!   restored).
//! * Objects preserve insertion order (like serde_json with its
//!   `preserve_order` feature) and are backed by a plain pair vector.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

/// A JSON number, mirroring `serde_json::Number`: integers are kept exact in
/// the full `u64`/`i64` range, everything else is an `f64`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Number(Repr);

#[derive(Debug, Clone, Copy, PartialEq)]
enum Repr {
    PosInt(u64),
    NegInt(i64),
    Float(f64),
}

impl Number {
    /// The value as `f64` (lossy above 2^53, as in real serde_json).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        Some(match self.0 {
            Repr::PosInt(n) => n as f64,
            Repr::NegInt(n) => n as f64,
            Repr::Float(n) => n,
        })
    }

    /// The value as `u64`, if it is a non-negative integer.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self.0 {
            Repr::PosInt(n) => Some(n),
            Repr::NegInt(_) => None,
            // Integral floats in the exactly-representable range qualify,
            // matching the accessor's behaviour on real serde_json documents
            // that carried a trailing `.0`.
            Repr::Float(n) if n >= 0.0 && n.fract() == 0.0 && n <= 9_007_199_254_740_992.0 => {
                Some(n as u64)
            }
            Repr::Float(_) => None,
        }
    }

    /// The value as `i64`, if it is an integer in range.
    #[must_use]
    pub fn as_i64(&self) -> Option<i64> {
        match self.0 {
            Repr::PosInt(n) => i64::try_from(n).ok(),
            Repr::NegInt(n) => Some(n),
            Repr::Float(_) => None,
        }
    }

    fn write(&self, out: &mut String) {
        match self.0 {
            Repr::PosInt(n) => out.push_str(&n.to_string()),
            Repr::NegInt(n) => out.push_str(&n.to_string()),
            Repr::Float(n) if n.is_finite() => {
                // Rust's Display for f64 prints the shortest string that
                // parses back to the same value, so floats round-trip
                // exactly. Keep a float marker so the parser re-reads an
                // integral float as a float.
                let text = n.to_string();
                out.push_str(&text);
                if !text.contains(['.', 'e', 'E']) {
                    out.push_str(".0");
                }
            }
            // JSON has no NaN/inf; real serde_json writes null here too.
            Repr::Float(_) => out.push_str("null"),
        }
    }
}

impl From<u64> for Number {
    fn from(n: u64) -> Number {
        Number(Repr::PosInt(n))
    }
}

impl From<i64> for Number {
    fn from(n: i64) -> Number {
        if n >= 0 {
            Number(Repr::PosInt(n as u64))
        } else {
            Number(Repr::NegInt(n))
        }
    }
}

impl From<f64> for Number {
    fn from(n: f64) -> Number {
        Number(Repr::Float(n))
    }
}

/// A JSON value, mirroring `serde_json::Value` for the tree API.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number.
    Number(Number),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object: key/value pairs in insertion order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Member access: `value.get("field")` on objects, `None` otherwise.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The boolean payload, if this is a `Bool`.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The numeric payload as `f64`, if this is a `Number`.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => n.as_f64(),
            _ => None,
        }
    }

    /// The numeric payload as `u64`, if this is a non-negative integral
    /// `Number`. Exact over the whole `u64` range.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) => n.as_u64(),
            _ => None,
        }
    }

    /// The numeric payload as `i64`, if this is an integral `Number` in
    /// range.
    #[must_use]
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(n) => n.as_i64(),
            _ => None,
        }
    }

    /// The string payload, if this is a `String`.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The element vector, if this is an `Array`.
    #[must_use]
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The pair vector, if this is an `Object`.
    #[must_use]
    pub fn as_object(&self) -> Option<&Vec<(String, Value)>> {
        match self {
            Value::Object(pairs) => Some(pairs),
            _ => None,
        }
    }

    fn write(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Number(n) => n.write(out),
            Value::String(s) => write_string(out, s),
            Value::Array(items) => write_seq(out, indent, '[', ']', items.len(), |out, i, ind| {
                items[i].write(out, ind);
            }),
            Value::Object(pairs) => write_seq(out, indent, '{', '}', pairs.len(), |out, i, ind| {
                write_string(out, &pairs[i].0);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                pairs[i].1.write(out, ind);
            }),
        }
    }
}

fn write_string(out: &mut String, s: &str) {
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

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize, Option<usize>),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    let inner = indent.map(|level| level + 1);
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(level) = inner {
            out.push('\n');
            out.push_str(&"  ".repeat(level));
        }
        item(out, i, inner);
    }
    if let Some(level) = indent {
        out.push('\n');
        out.push_str(&"  ".repeat(level));
    }
    out.push(close);
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out, None);
        f.write_str(&out)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl From<f64> for Value {
    fn from(n: f64) -> Value {
        Value::Number(Number::from(n))
    }
}

impl From<u64> for Value {
    fn from(n: u64) -> Value {
        Value::Number(Number::from(n))
    }
}

impl From<i64> for Value {
    fn from(n: i64) -> Value {
        Value::Number(Number::from(n))
    }
}

impl From<u32> for Value {
    fn from(n: u32) -> Value {
        Value::Number(Number::from(u64::from(n)))
    }
}

impl From<usize> for Value {
    fn from(n: usize) -> Value {
        Value::Number(Number::from(n as u64))
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::String(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::String(s)
    }
}

impl From<Vec<Value>> for Value {
    fn from(items: Vec<Value>) -> Value {
        Value::Array(items)
    }
}

/// A JSON syntax error: what went wrong and the byte offset where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    message: String,
    offset: usize,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for Error {}

/// Serializes `value` as compact JSON.
#[must_use]
pub fn to_string(value: &Value) -> String {
    let mut out = String::new();
    value.write(&mut out, None);
    out
}

/// Serializes `value` as two-space-indented JSON.
#[must_use]
pub fn to_string_pretty(value: &Value) -> String {
    let mut out = String::new();
    value.write(&mut out, Some(0));
    out
}

/// Parses a JSON document into a [`Value`].
///
/// # Errors
///
/// Returns an [`Error`] with the byte offset of the first syntax problem,
/// including trailing non-whitespace after the document.
pub fn from_str(input: &str) -> Result<Value, Error> {
    let mut parser = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    parser.skip_ws();
    let value = parser.value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(parser.error("trailing characters after JSON document"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, message: &str) -> Error {
        Error {
            message: message.to_string(),
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), Error> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected {:?}", byte as char)))
        }
    }

    fn literal(&mut self, text: &str, value: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected {text:?}")))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.error("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(pairs));
                }
                _ => return Err(self.error("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\') {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.error("invalid UTF-8 in string"))?,
            );
            match self.peek() {
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
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.error("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.error("invalid \\u escape"))?;
                            // Surrogates are not paired (the writer never
                            // emits them); map them to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.error("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                _ => return Err(self.error("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.error("invalid number"))?;
        // Integer literals parse exactly into the integer representations
        // (falling back to f64 only when they overflow 64 bits).
        if integral {
            if negative {
                if let Ok(n) = text.parse::<i64>() {
                    return Ok(Value::Number(Number(Repr::NegInt(n))));
                }
            } else if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::Number(Number(Repr::PosInt(n))));
            }
        }
        text.parse::<f64>()
            .map(|n| Value::Number(Number(Repr::Float(n))))
            .map_err(|_| self.error("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(pairs: Vec<(&str, Value)>) -> Value {
        Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    #[test]
    fn compact_and_pretty_round_trip() {
        let value = obj(vec![
            ("version", Value::from(1u32)),
            ("name", Value::from("smoke")),
            ("ok", Value::from(true)),
            ("nothing", Value::Null),
            (
                "rows",
                Value::from(vec![
                    obj(vec![
                        ("tps", Value::from(12345.678)),
                        ("spec", Value::from("sharded?shards=8&inner=mvtil-early")),
                    ]),
                    Value::from(Vec::new()),
                ]),
            ),
        ]);
        for rendered in [to_string(&value), to_string_pretty(&value)] {
            assert_eq!(from_str(&rendered).unwrap(), value, "{rendered}");
        }
    }

    #[test]
    fn integers_round_trip_exactly_across_the_u64_range() {
        for n in [0u64, 1, 2_u64.pow(53) + 1, u64::MAX] {
            let rendered = to_string(&Value::from(n));
            assert_eq!(rendered, n.to_string());
            assert_eq!(from_str(&rendered).unwrap().as_u64(), Some(n), "{rendered}");
        }
        for n in [-1i64, i64::MIN] {
            let rendered = to_string(&Value::from(n));
            assert_eq!(from_str(&rendered).unwrap().as_i64(), Some(n), "{rendered}");
            assert_eq!(from_str(&rendered).unwrap().as_u64(), None);
        }
        // Integral floats keep their float-ness through a round trip.
        let rendered = to_string(&Value::from(3.0f64));
        assert_eq!(rendered, "3.0");
        assert_eq!(from_str(&rendered).unwrap(), Value::from(3.0f64));
        assert_eq!(from_str("3.0").unwrap().as_u64(), Some(3));
    }

    #[test]
    fn floats_round_trip_exactly() {
        for n in [
            0.0,
            -0.0,
            1.0 / 3.0,
            f64::MAX,
            f64::MIN_POSITIVE,
            123_456.789_012_345,
        ] {
            let rendered = to_string(&Value::from(n));
            let parsed = from_str(&rendered).unwrap().as_f64().unwrap();
            assert_eq!(parsed.to_bits(), n.to_bits(), "{rendered}");
        }
    }

    #[test]
    fn strings_escape_and_unescape() {
        let tricky = "a\"b\\c\nd\te\u{0001}f — ünïcode";
        let rendered = to_string(&Value::from(tricky));
        assert_eq!(from_str(&rendered).unwrap().as_str().unwrap(), tricky);
        assert_eq!(from_str(r#""A\/""#).unwrap().as_str().unwrap(), "A/");
    }

    #[test]
    fn accessors_work() {
        let value = obj(vec![
            ("n", Value::from(7u64)),
            ("s", Value::from("x")),
            ("a", Value::from(vec![Value::from(false)])),
        ]);
        assert_eq!(value.get("n").and_then(Value::as_u64), Some(7));
        assert_eq!(value.get("n").and_then(Value::as_i64), Some(7));
        assert_eq!(value.get("n").and_then(Value::as_f64), Some(7.0));
        assert_eq!(value.get("s").and_then(Value::as_str), Some("x"));
        assert_eq!(
            value.get("a").and_then(Value::as_array).map(Vec::len),
            Some(1)
        );
        assert_eq!(
            value.get("a").unwrap().as_array().unwrap()[0].as_bool(),
            Some(false)
        );
        assert_eq!(value.get("missing"), None);
        assert_eq!(Value::Null.get("n"), None);
        assert_eq!(Value::from(1.5).as_u64(), None);
        assert_eq!(Value::from(-1.0).as_u64(), None);
        assert!(value.as_object().is_some());
    }

    #[test]
    fn parse_errors_carry_offsets() {
        for bad in ["", "{", "[1,]", "\"unterminated", "nul", "{\"a\" 1}", "1 2"] {
            let err = from_str(bad).unwrap_err();
            assert!(!err.to_string().is_empty(), "{bad:?}");
        }
        // Numbers: bare minus sign fails.
        assert!(from_str("-").is_err());
        assert!(from_str("1e309").is_ok(), "overflow parses to infinity");
        // Integers beyond u64 fall back to floats rather than failing.
        assert!(from_str("18446744073709551616").unwrap().as_u64().is_none());
    }

    #[test]
    fn whitespace_and_nesting_parse() {
        let parsed = from_str(" { \"a\" : [ 1 , { \"b\" : null } ] } ").unwrap();
        assert_eq!(
            parsed,
            obj(vec![(
                "a",
                Value::from(vec![Value::from(1u64), obj(vec![("b", Value::Null)])])
            )])
        );
    }
}
