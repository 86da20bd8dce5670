//! A minimal JSON value model, parser and writer.
//!
//! The driver's tuning checkpoints and the harness's partial shard
//! reports both need to read *and* write JSON; like [`crate::rng`] (for
//! `rand`) and [`crate::pool`] (for `rayon`), this module is the in-repo
//! stand-in for the external dependency (`serde_json`) the build
//! deliberately avoids.
//!
//! Two properties matter for the resumability contract and are tested
//! here:
//!
//! * **Integers round-trip exactly.** Numbers without a fraction or
//!   exponent parse into [`Value::Int`] (`i64`) or [`Value::UInt`]
//!   (`u64`) — a 64-bit search seed must not pass through an `f64` and
//!   lose its low bits.
//! * **Floats round-trip bit-exactly.** Floats are written with Rust's
//!   `{:?}` formatting (the shortest representation that parses back to
//!   the same value, always containing `.`, `e` or a non-finite name), so
//!   `parse(write(x)) == x` for every finite `f64`.
//!
//! ```
//! use lift_tuner::json::Value;
//!
//! let v = Value::parse(r#"{"seed": 2018, "best": [1.5, -2.0], "done": false}"#).unwrap();
//! assert_eq!(v.get("seed").and_then(Value::as_u64), Some(2018));
//! assert_eq!(Value::parse(&v.to_json()).unwrap(), v);
//! ```

use std::fmt::Write as _;

/// The deepest nesting of arrays and objects [`Value::parse`] accepts.
/// The documents this repo writes nest a handful of levels.
const MAX_DEPTH: usize = 256;

/// A JSON value. Object member order is preserved (members are a vector of
/// pairs, not a map), so writing is deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number that fits `i64` (no fraction, no exponent).
    Int(i64),
    /// A non-negative number above `i64::MAX` that fits `u64`.
    UInt(u64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in member order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Parses a complete JSON document (trailing garbage is an error).
    ///
    /// # Errors
    ///
    /// A human-readable message with the byte offset of the first problem,
    /// including arrays and objects nested deeper than 256 levels —
    /// recursion that deep would overflow the stack instead.
    pub fn parse(text: &str) -> Result<Value, String> {
        let mut pos = 0usize;
        let v = parse_value(text, &mut pos, 0)?;
        skip_ws(text.as_bytes(), &mut pos);
        if pos != text.len() {
            return Err(format!("trailing characters at byte {pos}"));
        }
        Ok(v)
    }

    /// Writes the value as compact JSON (no insignificant whitespace).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        write_value(self, &mut out);
        out
    }

    /// Object member lookup (`None` for non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements of an array (`None` for non-arrays).
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The boolean payload (`None` for non-booleans).
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The string payload (`None` for non-strings).
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric value as `i64` (integral numbers only).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::UInt(u) => i64::try_from(*u).ok(),
            _ => None,
        }
    }

    /// Numeric value as `u64` (non-negative integral numbers only).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Int(i) => u64::try_from(*i).ok(),
            Value::UInt(u) => Some(*u),
            _ => None,
        }
    }

    /// Numeric value as `f64` (any number; integers convert).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::UInt(u) => Some(*u as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }
}

fn write_value(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Int(i) => {
            let _ = write!(out, "{i}");
        }
        Value::UInt(u) => {
            let _ = write!(out, "{u}");
        }
        Value::Float(f) => {
            if f.is_finite() {
                // `{:?}` is the shortest round-tripping form and always
                // contains `.` or `e`, so the parser reads it back as a
                // float, not an integer.
                let _ = write!(out, "{f:?}");
            } else {
                // JSON has no NaN/inf; none should reach a checkpoint
                // (failed evaluations carry no score), but never emit an
                // unparseable document.
                out.push_str("null");
            }
        }
        Value::Str(s) => write_string(s, out),
        Value::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(item, out);
            }
            out.push(']');
        }
        Value::Obj(members) => {
            out.push('{');
            for (i, (k, item)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(k, out);
                out.push(':');
                write_value(item, out);
            }
            out.push('}');
        }
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
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, token: &str) -> Result<(), String> {
    if bytes[*pos..].starts_with(token.as_bytes()) {
        *pos += token.len();
        Ok(())
    } else {
        Err(format!("expected `{token}` at byte {pos}", pos = *pos))
    }
}

/// Parses one value whose enclosing arrays and objects number `depth`.
fn parse_value(text: &str, pos: &mut usize, depth: usize) -> Result<Value, String> {
    let bytes = text.as_bytes();
    skip_ws(bytes, pos);
    if depth == MAX_DEPTH && matches!(bytes.get(*pos), Some(b'[' | b'{')) {
        return Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {}",
            *pos
        ));
    }
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'n') => expect(bytes, pos, "null").map(|()| Value::Null),
        Some(b't') => expect(bytes, pos, "true").map(|()| Value::Bool(true)),
        Some(b'f') => expect(bytes, pos, "false").map(|()| Value::Bool(false)),
        Some(b'"') => parse_string(text, pos).map(Value::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            loop {
                items.push(parse_value(text, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut members = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Obj(members));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(text, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, ":")?;
                let val = parse_value(text, pos, depth + 1)?;
                members.push((key, val));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Obj(members));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_string(text: &str, pos: &mut usize) -> Result<String, String> {
    let bytes = text.as_bytes();
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected a string at byte {pos}", pos = *pos));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        // Exactly four hex digits, no sign.
                        let code = hex
                            .iter()
                            .try_fold(0, |code, &b| Some(code * 16 + char::from(b).to_digit(16)?))
                            .ok_or("bad \\u escape digits")?;
                        // Surrogate pairs are not needed for the ASCII
                        // identifiers this repo writes; reject them loudly
                        // instead of silently mangling.
                        let c = char::from_u32(code)
                            .ok_or(format!("\\u{code:04x} is not a scalar value"))?;
                        out.push(c);
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}", pos = *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the run up to the next quote or backslash in one
                // step. Both are ASCII, so the run ends on a character
                // boundary, and each byte is visited once.
                let end = bytes[*pos..]
                    .iter()
                    .position(|&b| b == b'"' || b == b'\\')
                    .map_or(bytes.len(), |n| *pos + n);
                out.push_str(text.get(*pos..end).ok_or("string splits a character")?);
                *pos = end;
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut is_float = false;
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                is_float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    if text.is_empty() || text == "-" {
        return Err(format!("expected a number at byte {start}"));
    }
    if !is_float {
        if let Ok(i) = text.parse::<i64>() {
            return Ok(Value::Int(i));
        }
        if let Ok(u) = text.parse::<u64>() {
            return Ok(Value::UInt(u));
        }
    }
    text.parse::<f64>()
        .map(Value::Float)
        .map_err(|_| format!("invalid number `{text}` at byte {start}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn document_round_trips() {
        let text = r#"{"a": [1, -2, 3.5], "b": {"c": null, "d": true}, "e": "x\"y\\z\n"}"#;
        let v = Value::parse(text).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[1], Value::Int(-2));
        assert_eq!(v.get("b").unwrap().get("d"), Some(&Value::Bool(true)));
        assert_eq!(v.get("e").unwrap().as_str(), Some("x\"y\\z\n"));
        let rewritten = v.to_json();
        assert_eq!(Value::parse(&rewritten).unwrap(), v);
    }

    #[test]
    fn u64_integers_survive_without_precision_loss() {
        // An RNG state near u64::MAX must not pass through f64.
        let big = u64::MAX - 3;
        let text = Value::Obj(vec![("rng".into(), Value::UInt(big))]).to_json();
        let v = Value::parse(&text).unwrap();
        assert_eq!(v.get("rng").unwrap().as_u64(), Some(big));
        // And i64::MIN parses as Int.
        let v = Value::parse("-9223372036854775808").unwrap();
        assert_eq!(v, Value::Int(i64::MIN));
    }

    #[test]
    fn floats_round_trip_bit_exactly() {
        for f in [0.1, 1.0, -0.0, 1e300, 4.9e-324, std::f64::consts::PI] {
            let text = Value::Float(f).to_json();
            let back = Value::parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), f.to_bits(), "{f} → {text} → {back}");
        }
        // Whole floats keep their float-ness through the round trip.
        assert_eq!(Value::parse("1.0").unwrap(), Value::Float(1.0));
    }

    #[test]
    fn errors_are_loud_not_panics() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "tru",
            "1.2.3",
            "\"\\q\"",
            "[] []",
            "\"\\u+041\"",
            "\"\\u-041\"",
            "\"\\u04g1\"",
        ] {
            assert!(Value::parse(bad).is_err(), "`{bad}` must not parse");
        }
        // Nesting past the cap is an error naming where, not a stack
        // overflow; nesting up to it still parses.
        let deep = "[".repeat(200_000);
        let err = Value::parse(&deep).unwrap_err();
        assert!(err.contains(&format!("at byte {MAX_DEPTH}")), "{err}");
        let objects = "{\"k\":".repeat(MAX_DEPTH + 1);
        assert!(Value::parse(&objects).unwrap_err().contains("nesting"));
        let at_cap = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Value::parse(&at_cap).is_ok());
    }

    #[test]
    fn multi_byte_strings_round_trip() {
        for s in [
            "café — ünïcode",
            "日本語 \"quoted\" and \\ slashes",
            "emoji 🦀 tab\t newline\n bell\u{7}",
            "",
            "ends with é",
        ] {
            let text = Value::Str(s.into()).to_json();
            assert_eq!(Value::parse(&text).unwrap().as_str(), Some(s), "{text}");
            let doc = Value::Obj(vec![(s.into(), Value::Arr(vec![Value::Str(s.into())]))]);
            assert_eq!(Value::parse(&doc.to_json()).unwrap(), doc);
        }
        let v = Value::parse(r#"{"ключ": "значение\u00e9\n"}"#).unwrap();
        assert_eq!(v.get("ключ").unwrap().as_str(), Some("значениеé\n"));
    }

    #[test]
    fn unicode_and_escapes() {
        let v = Value::parse(r#""caf\u00e9 — ünïcode""#).unwrap();
        assert_eq!(v.as_str(), Some("café — ünïcode"));
        let control = Value::Str("a\u{1}b".into()).to_json();
        assert_eq!(control, r#""a\u0001b""#);
        assert_eq!(Value::parse(&control).unwrap().as_str(), Some("a\u{1}b"));
    }
}
