//! Minimal in-tree JSON support: a push-style writer used by the JSONL
//! trace and the flight recorder, plus a small recursive-descent parser
//! used by round-trip tests and external tooling.
//!
//! No serde: the trace layer must stay dependency-free and its output
//! byte-deterministic. Numbers are written with Rust's shortest
//! round-trip float formatting, which is platform-independent.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Appends a JSON string literal (with escaping) to `out`.
pub fn write_escaped(out: &mut String, s: &str) {
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

/// Appends a JSON number for `v`; non-finite values become `null` (JSON
/// has no NaN/Inf).
pub fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// Writes `items` as one JSON array: `[`, then each item through
/// `write_item` with a `,` between two items, then `]`.
pub fn array<T>(
    items: impl IntoIterator<Item = T>,
    mut write_item: impl FnMut(&mut String, T),
) -> String {
    let mut out = String::from("[");
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_item(&mut out, item);
    }
    out.push(']');
    out
}

/// A push-style writer for one JSON object: `{"k":v,…}` with insertion
/// order preserved, so output is deterministic.
#[derive(Debug, Default)]
pub struct ObjectWriter {
    buf: String,
    any: bool,
}

impl ObjectWriter {
    /// Starts an empty object.
    #[must_use]
    pub fn new() -> Self {
        Self {
            buf: String::from("{"),
            any: false,
        }
    }

    fn key(&mut self, k: &str) {
        if self.any {
            self.buf.push(',');
        }
        self.any = true;
        write_escaped(&mut self.buf, k);
        self.buf.push(':');
    }

    /// Adds a string field.
    pub fn str(&mut self, k: &str, v: &str) -> &mut Self {
        self.key(k);
        write_escaped(&mut self.buf, v);
        self
    }

    /// Adds an unsigned integer field.
    pub fn u64(&mut self, k: &str, v: u64) -> &mut Self {
        self.key(k);
        let _ = write!(self.buf, "{v}");
        self
    }

    /// Adds a float field (non-finite → `null`).
    pub fn f64(&mut self, k: &str, v: f64) -> &mut Self {
        self.key(k);
        write_f64(&mut self.buf, v);
        self
    }

    /// Adds a raw, pre-serialised JSON value.
    pub fn raw(&mut self, k: &str, v: &str) -> &mut Self {
        self.key(k);
        self.buf.push_str(v);
        self
    }

    /// Closes the object and returns the JSON text.
    #[must_use]
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

/// A parsed JSON value (for tests and tooling; the writer never goes
/// through this type).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true`/`false`
    Bool(bool),
    /// Any number (parsed as f64).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object (key order normalised).
    Object(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// Object field access.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(m) => m.get(key),
            _ => None,
        }
    }

    /// The number value, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(v) => Some(v),
            _ => None,
        }
    }

    /// The fields, if this is an object.
    #[must_use]
    pub fn as_object(&self) -> Option<&BTreeMap<String, JsonValue>> {
        match self {
            JsonValue::Object(m) => Some(m),
            _ => None,
        }
    }
}

/// Parses one JSON document. Returns `None` on any syntax error or
/// trailing garbage.
#[must_use]
pub fn parse(input: &str) -> Option<JsonValue> {
    let mut p = Parser {
        text: input,
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos == p.bytes.len() {
        Some(v)
    } else {
        None
    }
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Option<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Some(())
        } else {
            None
        }
    }

    fn lit(&mut self, s: &str, v: JsonValue) -> Option<JsonValue> {
        if self.bytes[self.pos..].starts_with(s.as_bytes()) {
            self.pos += s.len();
            Some(v)
        } else {
            None
        }
    }

    fn value(&mut self) -> Option<JsonValue> {
        self.skip_ws();
        match self.peek()? {
            b'n' => self.lit("null", JsonValue::Null),
            b't' => self.lit("true", JsonValue::Bool(true)),
            b'f' => self.lit("false", JsonValue::Bool(false)),
            b'"' => self.string().map(JsonValue::String),
            b'[' => self.array(),
            b'{' => self.object(),
            _ => self.number(),
        }
    }

    fn string(&mut self) -> Option<String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run of plain characters up to the next quote or
            // backslash as one slice. Both are ASCII, so the cut always
            // falls on a character boundary of the (valid UTF-8) input.
            let run = self.bytes[self.pos..]
                .iter()
                .position(|b| matches!(b, b'"' | b'\\'))?;
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run;
            if self.eat(b'"').is_some() {
                return Some(out);
            }
            // A backslash: decode one escape.
            self.pos += 1;
            match self.peek()? {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                b'b' => out.push('\u{8}'),
                b'f' => out.push('\u{c}'),
                b'u' => {
                    let hex = self.bytes.get(self.pos + 1..self.pos + 5)?;
                    let code = u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?;
                    out.push(char::from_u32(code)?);
                    self.pos += 4;
                }
                _ => return None,
            }
            self.pos += 1;
        }
    }

    fn number(&mut self) -> Option<JsonValue> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()?
            .parse()
            .ok()
            .map(JsonValue::Number)
    }

    fn array(&mut self) -> Option<JsonValue> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Some(JsonValue::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Some(JsonValue::Array(items));
                }
                _ => return None,
            }
        }
    }

    fn object(&mut self) -> Option<JsonValue> {
        self.eat(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Some(JsonValue::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Some(JsonValue::Object(map));
                }
                _ => return None,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_escapes_specials() {
        let mut s = String::new();
        write_escaped(&mut s, "a\"b\\c\nd\te\u{1}");
        assert_eq!(s, r#""a\"b\\c\nd\te\u0001""#);
    }

    #[test]
    fn object_writer_builds_deterministic_objects() {
        let mut o = ObjectWriter::new();
        o.str("type", "X").u64("n", 3).f64("v", 1.5);
        assert_eq!(o.finish(), r#"{"type":"X","n":3,"v":1.5}"#);
    }

    #[test]
    fn array_separates_items_with_commas() {
        assert_eq!(array(Vec::<u8>::new(), |_, _| ()), "[]");
        assert_eq!(array(["a"], write_escaped), r#"["a"]"#);
        assert_eq!(array([1.5, f64::NAN, 2.0], write_f64), "[1.5,null,2]");
    }

    #[test]
    fn parser_round_trips_writer_output() {
        let mut o = ObjectWriter::new();
        o.str("s", "hi\n\"there\"")
            .u64("u", 42)
            .f64("f", -2.25)
            .raw("a", "[1,2,3]");
        let text = o.finish();
        let v = parse(&text).expect("parses");
        assert_eq!(v.get("s").unwrap().as_str(), Some("hi\n\"there\""));
        assert_eq!(v.get("u").unwrap().as_f64(), Some(42.0));
        assert_eq!(v.get("f").unwrap().as_f64(), Some(-2.25));
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
    }

    #[test]
    fn parser_rejects_garbage() {
        assert_eq!(parse("{"), None);
        assert_eq!(parse("{} trailing"), None);
        assert_eq!(parse("nope"), None);
        assert_eq!(parse(r#"{"a":}"#), None);
    }

    #[test]
    fn non_finite_floats_become_null() {
        let mut o = ObjectWriter::new();
        o.f64("x", f64::NAN).f64("y", f64::INFINITY);
        assert_eq!(o.finish(), r#"{"x":null,"y":null}"#);
    }

    #[test]
    fn parses_escapes_and_multibyte_text() {
        let v = parse(r#"["a\"b\\c\/d\n\r\t\b\f\u00e9\u0041", "ümlaut → ✓", ""]"#).expect("parses");
        let items = v.as_array().unwrap();
        assert_eq!(items[0].as_str(), Some("a\"b\\c/d\n\r\t\u{8}\u{c}éA"));
        assert_eq!(items[1].as_str(), Some("ümlaut → ✓"));
        assert_eq!(items[2].as_str(), Some(""));
        assert_eq!(parse(r#""unterminated"#), None);
        assert_eq!(parse(r#""bad \q escape""#), None);
        assert_eq!(parse(r#""short \u12""#), None);
    }

    /// Parsing is linear in the input: a multi-megabyte string, plain
    /// runs broken by escapes and multi-byte characters, parses well
    /// within a bound that a per-character rescan of the rest of the
    /// input (quadratic, minutes at this size) could not meet.
    #[test]
    fn parses_a_multi_megabyte_string_in_linear_time() {
        let chunk = r#"exec-1234 → slot-7 \"ok\"\\ "#;
        let want_chunk = r#"exec-1234 → slot-7 "ok"\ "#;
        let repeats = (4 << 20) / chunk.len();
        let mut text = String::from("{\"decision\":\"");
        let mut want = String::new();
        for _ in 0..repeats {
            text.push_str(chunk);
            want.push_str(want_chunk);
        }
        text.push_str("\"}");
        let start = std::time::Instant::now();
        let v = parse(&text).expect("parses");
        let elapsed = start.elapsed();
        assert_eq!(v.get("decision").and_then(JsonValue::as_str), Some(&*want));
        assert!(
            elapsed < std::time::Duration::from_secs(5),
            "{} MB took {elapsed:?}",
            text.len() >> 20
        );
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a":{"b":[1,{"c":null},true]},"d":"e"}"#).expect("parses");
        let b = v.get("a").unwrap().get("b").unwrap().as_array().unwrap();
        assert_eq!(b[0].as_f64(), Some(1.0));
        assert_eq!(b[1].get("c"), Some(&JsonValue::Null));
        assert_eq!(b[2], JsonValue::Bool(true));
    }
}
