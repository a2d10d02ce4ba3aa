//! A minimal JSON value, parser and renderer for the compile-server wire
//! protocol.
//!
//! The workspace is offline (no serde), so `fsc-serve`'s line-delimited
//! request/response protocol uses this deliberately small implementation:
//! a recursive-descent parser (depth-capped, tolerant of whitespace and
//! key order) and a stable renderer. Objects are backed by a `BTreeMap`,
//! so rendering is deterministic — important for golden protocol tests.

use std::collections::BTreeMap;

/// A JSON value (just enough for the protocol format).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (stored as f64, like JavaScript).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with deterministic (sorted) key order.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Parse a complete JSON document (trailing garbage is an error).
    pub fn parse(text: &str) -> Result<Json, String> {
        JsonParser::new(text).parse()
    }

    /// The value as an object, if it is one.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_array(&self) -> Option<&Vec<Json>> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a float, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an integer, if it is a number with no fractional part
    /// inside the exactly-representable range.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Num(n) if n.fract() == 0.0 && n.abs() < 9e15 => Some(*n as i64),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Fetch `key` from an object value (`None` for non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_object()?.get(key)
    }

    /// Render compactly on one line (objects in sorted key order) — the
    /// form the line-delimited server protocol requires.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => out.push_str(&render_number(*n)),
            Json::Str(s) => out.push_str(&escape_string(s)),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&escape_string(k));
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// Render a number the way the cache/protocol formats expect: integers
/// without a decimal point, everything else via the shortest round-trip
/// float formatting. Non-finite values degrade to `null`-safe `0`.
fn render_number(n: f64) -> String {
    if !n.is_finite() {
        return "0".to_string();
    }
    if n.fract() == 0.0 && n.abs() < 9e15 {
        format!("{}", n as i64)
    } else {
        format!("{n}")
    }
}

/// Escape a string into a quoted JSON literal.
pub fn escape_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A small recursive-descent JSON parser (no external deps; depth-capped).
struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> JsonParser<'a> {
    fn new(text: &'a str) -> Self {
        Self {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn parse(mut self) -> Result<Json, String> {
        let v = self.value(0)?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(format!("trailing garbage at byte {}", self.pos));
        }
        Ok(v)
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b.is_ascii_whitespace() {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > 32 {
            return Err("nesting too deep".into());
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected end or byte at {}", self.pos)),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        self.skip_ws();
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        self.skip_ws();
        let start = self.pos;
        while let Some(&b) = self.bytes.get(self.pos) {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .filter(|n| n.is_finite())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos).copied() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos).copied() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or("bad \\u escape")?;
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                            self.pos += 4;
                        }
                        _ => return Err("bad escape".into()),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x80 => {
                    out.push(b as char);
                    self.pos += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8: copy the whole char.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "invalid utf-8 in string")?;
                    let c = rest.chars().next().ok_or("unterminated string")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut out = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(out));
        }
        loop {
            out.push(self.value(depth + 1)?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(out));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut out = BTreeMap::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(out));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            let val = self.value(depth + 1)?;
            out.insert(key, val);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(out));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

/// Convenience builder for object values (keeps protocol code readable).
#[derive(Debug, Default)]
pub struct ObjBuilder {
    map: BTreeMap<String, Json>,
}

impl ObjBuilder {
    /// A fresh, empty object.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set `key` to a value.
    pub fn set(mut self, key: &str, value: Json) -> Self {
        self.map.insert(key.to_string(), value);
        self
    }

    /// Set `key` to a string.
    pub fn str(self, key: &str, value: &str) -> Self {
        self.set(key, Json::Str(value.to_string()))
    }

    /// Set `key` to a number.
    pub fn num(self, key: &str, value: f64) -> Self {
        self.set(key, Json::Num(value))
    }

    /// Set `key` to a bool.
    pub fn bool(self, key: &str, value: bool) -> Self {
        self.set(key, Json::Bool(value))
    }

    /// Finish into a [`Json::Obj`].
    pub fn build(self) -> Json {
        Json::Obj(self.map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_handles_escapes_and_unicode() {
        let v = Json::parse(r#"{"a": "x\"\\\nAé", "b": [1, -2.5e1]}"#).unwrap();
        let obj = v.as_object().unwrap();
        assert_eq!(obj.get("a").unwrap().as_str().unwrap(), "x\"\\\nAé");
        let arr = obj.get("b").unwrap().as_array().unwrap();
        assert_eq!(arr[1].as_f64().unwrap(), -25.0);
    }

    #[test]
    fn render_parse_round_trip() {
        let v = ObjBuilder::new()
            .str("op", "compile_run")
            .num("id", 7.0)
            .bool("ok", true)
            .set("xs", Json::Arr(vec![Json::Num(1.5), Json::Null]))
            .build();
        let text = v.render();
        assert_eq!(Json::parse(&text).unwrap(), v);
        // One line, sorted keys: stable for the line-delimited protocol.
        assert!(!text.contains('\n'));
        assert!(text.find("\"id\"").unwrap() < text.find("\"ok\"").unwrap());
    }

    #[test]
    fn integers_render_without_fraction() {
        assert_eq!(Json::Num(3.0).render(), "3");
        assert_eq!(Json::Num(3.25).render(), "3.25");
        assert_eq!(Json::Num(f64::NAN).render(), "0");
    }

    #[test]
    fn trailing_garbage_and_depth_are_rejected() {
        assert!(Json::parse("{} x").is_err());
        let deep = "[".repeat(40) + &"]".repeat(40);
        assert!(Json::parse(&deep).is_err());
    }

    #[test]
    fn get_traverses_objects_only() {
        let v = Json::parse(r#"{"a": {"b": 2}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().get("b").unwrap().as_i64(), Some(2));
        assert!(v.get("missing").is_none());
        assert!(Json::Num(1.0).get("a").is_none());
    }
}
