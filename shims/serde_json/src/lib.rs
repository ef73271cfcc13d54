//! Offline stand-in for `serde_json`.
//!
//! [`Value`] is the JSON tree, with the accessor and indexing API of
//! `serde_json::Value`; callers build and read it explicitly. Text goes
//! out through [`to_string`] / [`to_string_pretty`] (or `Display`, the
//! compact form) and comes back through [`from_str`]. A non-finite
//! float prints as `null`, as the real crate writes it.

use std::fmt;

/// A JSON value. Maps keep their keys in insertion order, so a value
/// built field by field prints its fields in that order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Unsigned integer (wide enough for `u128` byte counters).
    U64(u128),
    /// Signed integer.
    I64(i128),
    /// Floating-point number. A non-finite one prints as `null`, as
    /// `serde_json` writes it.
    F64(f64),
    /// String.
    Str(String),
    /// Sequence.
    Seq(Vec<Value>),
    /// Map with insertion-ordered string keys.
    Map(Vec<(String, Value)>),
}

static NULL: Value = Value::Null;

impl Value {
    /// Look up a key in a map; `None` for missing keys or non-maps.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Map(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Whether this is `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// As a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// As a `u64`, if it is an in-range integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::U64(v) => (*v).try_into().ok(),
            Value::I64(v) => (*v).try_into().ok(),
            _ => None,
        }
    }

    /// As a `u128`, if it is a non-negative integer.
    pub fn as_u128(&self) -> Option<u128> {
        match self {
            Value::U64(v) => Some(*v),
            Value::I64(v) => (*v).try_into().ok(),
            _ => None,
        }
    }

    /// As an `i64`, if it is an in-range integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::U64(v) => (*v).try_into().ok(),
            Value::I64(v) => (*v).try_into().ok(),
            _ => None,
        }
    }

    /// As an `f64` (integers convert), if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::F64(v) => Some(*v),
            Value::U64(v) => Some(*v as f64),
            Value::I64(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// As a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// As a sequence, if it is one.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Seq(items) => Some(items),
            _ => None,
        }
    }

    /// As ordered key/value pairs, if it is a map.
    pub fn as_object(&self) -> Option<&Vec<(String, Value)>> {
        match self {
            Value::Map(pairs) => Some(pairs),
            _ => None,
        }
    }
}

impl std::ops::Index<&str> for Value {
    type Output = Value;

    /// Map lookup; missing keys and non-maps index to `Null`, like
    /// `serde_json::Value`.
    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&NULL)
    }
}

impl std::ops::IndexMut<&str> for Value {
    /// Mutable map lookup, inserting `Null` for a missing key. A
    /// `Null` value silently becomes an empty map first (the
    /// `serde_json` behaviour); any other non-map panics.
    fn index_mut(&mut self, key: &str) -> &mut Value {
        if self.is_null() {
            *self = Value::Map(Vec::new());
        }
        let Value::Map(pairs) = self else {
            panic!("cannot index non-object value with a string key");
        };
        if let Some(pos) = pairs.iter().position(|(k, _)| k == key) {
            return &mut pairs[pos].1;
        }
        pairs.push((key.to_owned(), Value::Null));
        &mut pairs.last_mut().expect("just pushed").1
    }
}

impl std::ops::Index<usize> for Value {
    type Output = Value;

    /// Sequence lookup; out-of-range and non-sequences index to `Null`.
    fn index(&self, idx: usize) -> &Value {
        match self {
            Value::Seq(items) => items.get(idx).unwrap_or(&NULL),
            _ => &NULL,
        }
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

impl fmt::Display for Value {
    /// Compact JSON: no whitespace between tokens.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::U64(v) => write!(f, "{v}"),
            Value::I64(v) => write!(f, "{v}"),
            Value::F64(v) if v.is_finite() => write!(f, "{v}"),
            Value::F64(_) => f.write_str("null"),
            Value::Str(s) => write_escaped(f, s),
            Value::Seq(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Value::Map(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    f.write_str(":")?;
                    write!(f, "{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Error for a JSON parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl Error {
    fn new(msg: impl Into<String>) -> Self {
        Error(msg.into())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// Compact JSON text (the `Display` form).
pub fn to_string(value: &Value) -> Result<String, Error> {
    Ok(value.to_string())
}

/// Human-readable two-space-indented JSON text.
pub fn to_string_pretty(value: &Value) -> Result<String, Error> {
    let mut out = String::new();
    write_pretty(value, 0, &mut out);
    Ok(out)
}

fn write_pretty(v: &Value, indent: usize, out: &mut String) {
    let pad = "  ".repeat(indent);
    let inner = "  ".repeat(indent + 1);
    match v {
        Value::Seq(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                out.push_str(&inner);
                write_pretty(item, indent + 1, out);
                if i + 1 < items.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            out.push_str(&pad);
            out.push(']');
        }
        Value::Map(pairs) if !pairs.is_empty() => {
            out.push_str("{\n");
            for (i, (k, val)) in pairs.iter().enumerate() {
                out.push_str(&inner);
                out.push_str(&Value::Str(k.clone()).to_string());
                out.push_str(": ");
                write_pretty(val, indent + 1, out);
                if i + 1 < pairs.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            out.push_str(&pad);
            out.push('}');
        }
        // Scalars, empty containers: compact form.
        other => out.push_str(&other.to_string()),
    }
}

/// Parse JSON text.
pub fn from_str(s: &str) -> Result<Value, Error> {
    let bytes = s.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(Error::new(format!("trailing characters at byte {pos}")));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), Error> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(Error::new(format!("expected `{lit}` at byte {pos}", pos = *pos)))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Value, Error> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err(Error::new("unexpected end of input")),
        Some(b'n') => expect(b, pos, "null").map(|()| Value::Null),
        Some(b't') => expect(b, pos, "true").map(|()| Value::Bool(true)),
        Some(b'f') => expect(b, pos, "false").map(|()| Value::Bool(false)),
        Some(b'"') => parse_string(b, pos).map(Value::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Seq(items));
            }
            loop {
                items.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Seq(items));
                    }
                    _ => return Err(Error::new(format!("expected `,` or `]` at byte {pos}", pos = *pos))),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Map(pairs));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                expect(b, pos, ":")?;
                let value = parse_value(b, pos)?;
                pairs.push((key, value));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Map(pairs));
                    }
                    _ => return Err(Error::new(format!("expected `,` or `}}` at byte {pos}", pos = *pos))),
                }
            }
        }
        Some(_) => parse_number(b, pos),
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, Error> {
    if b.get(*pos) != Some(&b'"') {
        return Err(Error::new(format!("expected string at byte {pos}", pos = *pos)));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err(Error::new("unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                let esc = b.get(*pos).ok_or_else(|| Error::new("unterminated escape"))?;
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'b' => out.push('\u{0008}'),
                    b'f' => out.push('\u{000c}'),
                    b'u' => {
                        let hex = b
                            .get(*pos..*pos + 4)
                            .ok_or_else(|| Error::new("truncated \\u escape"))?;
                        *pos += 4;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|_| Error::new("bad \\u escape"))?,
                            16,
                        )
                        .map_err(|_| Error::new("bad \\u escape"))?;
                        // Surrogate pairs are not produced by this shim's
                        // writer; reject rather than mis-decode them.
                        let c = char::from_u32(code)
                            .ok_or_else(|| Error::new("unsupported \\u escape (surrogate)"))?;
                        out.push(c);
                    }
                    other => return Err(Error::new(format!("bad escape `\\{}`", *other as char))),
                }
            }
            Some(_) => {
                // The whole run up to the next `"` or `\` in one pass:
                // both are ASCII, so the run ends on a char boundary.
                let end = b[*pos..]
                    .iter()
                    .position(|&c| c == b'"' || c == b'\\')
                    .map_or(b.len(), |i| *pos + i);
                let run = std::str::from_utf8(&b[*pos..end])
                    .map_err(|_| Error::new("invalid UTF-8 in string"))?;
                out.push_str(run);
                *pos = end;
            }
        }
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Value, Error> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut is_float = false;
    while let Some(&c) = b.get(*pos) {
        match c {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                is_float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(&b[start..*pos]).expect("ascii number");
    if text.is_empty() || text == "-" {
        return Err(Error::new(format!("expected value at byte {start}")));
    }
    if is_float {
        text.parse::<f64>()
            .map(Value::F64)
            .map_err(|_| Error::new(format!("bad number `{text}`")))
    } else if let Some(stripped) = text.strip_prefix('-') {
        stripped
            .parse::<i128>()
            .map(|v| Value::I64(-v))
            .map_err(|_| Error::new(format!("bad number `{text}`")))
    } else {
        text.parse::<u128>()
            .map(Value::U64)
            .map_err(|_| Error::new(format!("bad number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrips_compact_output() {
        let v = Value::Map(vec![
            ("s".into(), Value::Str("a\n\"b\\c".into())),
            ("big".into(), Value::U64(u128::MAX)),
            ("neg".into(), Value::I64(-42)),
            ("f".into(), Value::F64(2.5)),
            ("seq".into(), Value::Seq(vec![Value::Bool(true), Value::Null])),
            ("empty".into(), Value::Map(vec![])),
        ]);
        let text = v.to_string();
        let back: Value = from_str(&text).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn parse_handles_whitespace_and_unicode() {
        let v: Value = from_str(" { \"k\" : [ 1 , -2.5e1 , \"\\u00e9π\" ] } ").unwrap();
        assert_eq!(v["k"][0].as_u64(), Some(1));
        assert_eq!(v["k"][1].as_f64(), Some(-25.0));
        assert_eq!(v["k"][2].as_str(), Some("éπ"));
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(from_str("{} extra").is_err());
        assert!(from_str("[1,]").is_err());
    }

    #[test]
    fn pretty_printer_is_parseable() {
        let v = Value::Map(vec![
            ("a".into(), Value::Seq(vec![Value::U64(1), Value::U64(2)])),
            ("b".into(), Value::Map(vec![("c".into(), Value::Null)])),
        ]);
        let pretty = to_string_pretty(&v).unwrap();
        assert!(pretty.contains("\n  \"a\": ["));
        let back: Value = from_str(&pretty).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn display_is_compact_json() {
        let v = Value::Map(vec![
            ("name".into(), Value::Str("a\"b".into())),
            ("xs".into(), Value::Seq(vec![Value::U64(1), Value::Null])),
            ("ok".into(), Value::Bool(true)),
        ]);
        assert_eq!(v.to_string(), r#"{"name":"a\"b","xs":[1,null],"ok":true}"#);
    }

    #[test]
    fn non_finite_floats_render_null() {
        assert_eq!(Value::F64(f64::INFINITY).to_string(), "null");
        assert_eq!(Value::F64(f64::NAN).to_string(), "null");
    }

    #[test]
    fn index_mut_overwrites_and_inserts() {
        let mut v = Value::Map(vec![("value".into(), Value::F64(1.0))]);
        v["value"] = Value::Null;
        assert!(v["value"].is_null());
        v["new"] = Value::Bool(false);
        assert_eq!(v["new"], Value::Bool(false));
        assert!(v["missing"].is_null());
    }

    #[test]
    fn parses_a_multi_mib_string_in_one_pass() {
        // Multibyte UTF-8 between every kind of escape the writer emits;
        // a parser that re-validates the rest of the input per character
        // takes minutes here.
        let unit = "aé€😀\"\\\n\r\t\u{1}/";
        let s = unit.repeat((4 << 20) / unit.len());
        let text = Value::Seq(vec![Value::Str(s.clone()), Value::U64(7)]).to_string();
        assert!(text.len() > 4 << 20);
        let back = from_str(&text).unwrap();
        assert_eq!(back[0].as_str(), Some(s.as_str()));
        assert_eq!(back[1].as_u64(), Some(7));
    }
}
