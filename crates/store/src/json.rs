//! A strict, std-only JSON parser and writer.
//!
//! The build environment is offline, so `serde` is not available; this
//! module implements the subset of JSON the serving protocol and the
//! artifact store need — which
//! is all of RFC 8259, minus nothing — in plain `std`:
//!
//! * [`Json::parse`] is a recursive-descent parser over the input bytes
//!   that reports every error with its **byte position** ([`JsonError`]),
//!   enforces strict JSON grammar (no trailing commas, no leading zeros,
//!   no bare `NaN`/`Infinity`), decodes `\uXXXX` escapes including
//!   surrogate pairs, and bounds nesting depth so malformed input cannot
//!   overflow the stack;
//! * [`Json::write`] emits compact JSON with round-trippable float
//!   formatting (Rust's shortest-representation `{:?}`, so `-0.0` and
//!   exponent forms survive a parse/write cycle bit-exactly) and rejects
//!   non-finite numbers, which JSON cannot represent;
//! * object members keep **insertion order**, so serialised responses are
//!   deterministic byte-for-byte — the property the serving layer's exact
//!   result cache is built on.

use std::fmt::{self, Write as _};

/// Maximum nesting depth the parser accepts.  Deeper documents error
/// (`json.depth`) instead of risking stack exhaustion on adversarial
/// input.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number (always finite: the parser rejects overflow and the writer
    /// rejects non-finite values).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; members keep insertion order (duplicates keep the last
    /// occurrence on lookup but are preserved verbatim on write).
    Obj(Vec<(String, Json)>),
}

/// A JSON syntax or encoding error, with the byte position at which it was
/// detected.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// Zero-based byte offset into the input (for parse errors) or the
    /// already-written output length (for write errors).
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Convenience constructor for a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// A number, mapping non-finite values (which JSON cannot represent)
    /// to `null` — the convention every numeric field of the serving
    /// protocol uses for `NaN`/`±∞` statistics.
    pub fn num_or_null(x: f64) -> Json {
        if x.is_finite() {
            Json::Num(x)
        } else {
            Json::Null
        }
    }

    /// Member lookup on an object (last duplicate wins); `None` on
    /// non-objects and missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The numeric value as a non-negative integer, if this is a number
    /// that is one (integral, in `[0, 2^53]` so exactly representable).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(x) if x.fract() == 0.0 && (0.0..=9.007_199_254_740_992e15).contains(x) => {
                Some(*x as u64)
            }
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parses a JSON document.  Exactly one value, with nothing but
    /// whitespace after it.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] naming the byte position of the first
    /// syntax error; the parser never panics on any input.
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after the JSON document"));
        }
        Ok(value)
    }

    /// Serialises the value as compact JSON.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] if the value contains a non-finite number,
    /// which JSON cannot represent (use [`Json::num_or_null`] to map those
    /// to `null` up front).
    pub fn write(&self) -> Result<String, JsonError> {
        let mut out = String::new();
        self.write_into(&mut out)?;
        Ok(out)
    }

    fn write_into(&self, out: &mut String) -> Result<(), JsonError> {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(x) => {
                if !x.is_finite() {
                    return Err(JsonError {
                        offset: out.len(),
                        message: format!("JSON cannot represent the non-finite number {x}"),
                    });
                }
                // Exactly-representable integers print without a trailing
                // `.0` (counts and seeds read as integers on the wire);
                // negative zero keeps the fractional form so its sign bit
                // survives the round trip.  Everything else uses Rust's
                // shortest round-trippable `{:?}` representation, always a
                // valid JSON number for finite values (`1.5`, `1e300`).
                if x.fract() == 0.0
                    && x.abs() <= 9.007_199_254_740_992e15
                    && x.to_bits() != (-0.0f64).to_bits()
                {
                    let _ = write!(out, "{}", *x as i64);
                } else {
                    let _ = write!(out, "{x:?}");
                }
            }
            Json::Str(s) => write_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_into(out)?;
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
                    value.write_into(out)?;
                }
                out.push('}');
            }
        }
        Ok(())
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{0008}' => out.push_str("\\b"),
            '\u{000C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
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
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
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
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected '{word}'")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(self.err(format!(
                "unexpected character '{}'",
                (other as char).escape_default()
            ))),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
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
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.err("expected a string object key"));
            }
            let key = self.string()?;
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(self.err("expected ':' after object key"));
            }
            self.pos += 1;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escaped = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match escaped {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => out.push(self.unicode_escape()?),
                        other => {
                            self.pos -= 1;
                            return Err(self.err(format!(
                                "invalid escape '\\{}'",
                                (other as char).escape_default()
                            )));
                        }
                    }
                }
                Some(b) if b < 0x20 => {
                    return Err(self.err("unescaped control character in string"));
                }
                Some(_) => {
                    // Consume one full UTF-8 scalar (the input is a &str,
                    // so the byte stream is valid UTF-8 by construction).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).expect("input is a &str");
                    let c = s.chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let b = self
                .peek()
                .ok_or_else(|| self.err("unterminated \\u escape"))?;
            let digit = match b {
                b'0'..=b'9' => (b - b'0') as u32,
                b'a'..=b'f' => (b - b'a') as u32 + 10,
                b'A'..=b'F' => (b - b'A') as u32 + 10,
                _ => return Err(self.err("invalid hex digit in \\u escape")),
            };
            v = v * 16 + digit;
            self.pos += 1;
        }
        Ok(v)
    }

    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let start = self.pos - 2;
        let high = self.hex4()?;
        if (0xD800..=0xDBFF).contains(&high) {
            // A high surrogate must be followed by `\uDC00`–`\uDFFF`.
            if self.peek() == Some(b'\\') && self.bytes.get(self.pos + 1) == Some(&b'u') {
                self.pos += 2;
                let low = self.hex4()?;
                if (0xDC00..=0xDFFF).contains(&low) {
                    let c = 0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00);
                    return char::from_u32(c).ok_or_else(|| JsonError {
                        offset: start,
                        message: "invalid surrogate pair".into(),
                    });
                }
            }
            return Err(JsonError {
                offset: start,
                message: "unpaired high surrogate in \\u escape".into(),
            });
        }
        if (0xDC00..=0xDFFF).contains(&high) {
            return Err(JsonError {
                offset: start,
                message: "unpaired low surrogate in \\u escape".into(),
            });
        }
        char::from_u32(high).ok_or_else(|| JsonError {
            offset: start,
            message: "invalid \\u escape".into(),
        })
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: `0` alone, or a non-zero digit followed by digits
        // (strict JSON rejects leading zeros).
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("expected a digit")),
        }
        if matches!(self.peek(), Some(b'0'..=b'9')) {
            return Err(self.err("leading zeros are not allowed"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("expected a digit after the decimal point"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("expected a digit in the exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII number");
        let x: f64 = text.parse().map_err(|_| JsonError {
            offset: start,
            message: format!("invalid number '{text}'"),
        })?;
        if !x.is_finite() {
            return Err(JsonError {
                offset: start,
                message: format!("number '{text}' overflows an IEEE double"),
            });
        }
        Ok(Json::Num(x))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_full_grammar() {
        let doc = r#" { "a": [1, -2.5, 1e3, 0.0, -0.0], "b": {"nested": true},
                       "s": "q\"\\\/\b\f\n\r\tA😀", "n": null } "#;
        let v = Json::parse(doc).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[2], Json::Num(1000.0));
        assert_eq!(
            v.get("b").unwrap().get("nested").unwrap(),
            &Json::Bool(true)
        );
        assert_eq!(
            v.get("s").unwrap().as_str().unwrap(),
            "q\"\\/\u{8}\u{c}\n\r\tA😀"
        );
        assert_eq!(v.get("n").unwrap(), &Json::Null);
    }

    #[test]
    fn writes_round_trippable_compact_json() {
        let v = Json::Obj(vec![
            ("x".into(), Json::Num(-0.0)),
            ("big".into(), Json::Num(1e300)),
            ("s".into(), Json::str("a\"b\\c\nd\u{1}")),
            ("arr".into(), Json::Arr(vec![Json::Null, Json::Bool(false)])),
        ]);
        let text = v.write().unwrap();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back, v);
        // -0.0 survives bit-exactly.
        assert_eq!(
            back.get("x").unwrap().as_f64().unwrap().to_bits(),
            (-0.0f64).to_bits()
        );
    }

    #[test]
    fn writer_rejects_non_finite_numbers() {
        assert!(Json::Num(f64::NAN).write().is_err());
        assert!(Json::Num(f64::INFINITY).write().is_err());
        assert_eq!(Json::num_or_null(f64::NAN), Json::Null);
        assert_eq!(Json::num_or_null(1.5), Json::Num(1.5));
    }

    #[test]
    fn errors_carry_byte_positions() {
        let err = Json::parse("{\"a\": 01}").unwrap_err();
        assert_eq!(err.offset, 7, "{err}");
        let err = Json::parse("[1, ]").unwrap_err();
        assert_eq!(err.offset, 4, "{err}");
        let err = Json::parse("nul").unwrap_err();
        assert_eq!(err.offset, 0);
        assert!(err.to_string().starts_with("byte 0:"));
    }
}
