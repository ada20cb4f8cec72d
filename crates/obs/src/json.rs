//! A small hand-rolled JSON value, serializer, and parser.
//!
//! Built for machine-readable run artifacts (JSONL: one record per
//! line), deliberately dependency-free. Two properties the report
//! pipeline relies on:
//!
//! - **Integers stay exact.** `u64`/`i64` are distinct variants and are
//!   serialized digit-for-digit, so counters and node ids round-trip.
//! - **Non-finite floats are rejected, not smuggled.** `NaN`/`±Inf`
//!   have no JSON spelling; [`Json::write`] returns [`JsonError`]
//!   instead of inventing one. Report serializers must map undefined
//!   statistics (e.g. an empty histogram's quantile) to `null`
//!   explicitly.

use std::fmt;

/// A JSON value. Object fields keep insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Non-negative integer, serialized exactly.
    U64(u64),
    /// Negative integer, serialized exactly.
    I64(i64),
    /// Finite float (non-finite values fail to serialize).
    F64(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object as ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

/// Serialization or parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError(pub String);

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.0)
    }
}

impl std::error::Error for JsonError {}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::U64(v)
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::U64(v as u64)
    }
}
impl From<u32> for Json {
    fn from(v: u32) -> Json {
        Json::U64(u64::from(v))
    }
}
impl From<i64> for Json {
    fn from(v: i64) -> Json {
        if v >= 0 {
            Json::U64(v as u64)
        } else {
            Json::I64(v)
        }
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::F64(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn obj<'a>(fields: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Builds an array.
    pub fn arr(items: impl IntoIterator<Item = Json>) -> Json {
        Json::Arr(items.into_iter().collect())
    }

    /// A float that serializes as `null` when not finite (for optional
    /// statistics like quantiles of an empty histogram).
    pub fn f64_or_null(v: f64) -> Json {
        if v.is_finite() {
            Json::F64(v)
        } else {
            Json::Null
        }
    }

    /// A whole count of time units (`d.as_millis()`, `d.as_micros()`),
    /// saturated at `u64::MAX`.
    pub fn whole(units: u128) -> Json {
        Json::U64(u64::try_from(units).unwrap_or(u64::MAX))
    }

    /// This object with `key: value` appended.
    ///
    /// # Panics
    /// Panics when `self` is not an object.
    pub fn with(self, key: &str, value: Json) -> Json {
        let Json::Obj(mut fields) = self else {
            panic!("Json::with({key:?}) on a non-object")
        };
        fields.push((key.to_string(), value));
        Json::Obj(fields)
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `u64` (accepts `U64` and integral non-negative `F64`).
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::U64(v) => Some(v),
            Json::F64(v) if v >= 0.0 && v.fract() == 0.0 && v <= u64::MAX as f64 => Some(v as u64),
            _ => None,
        }
    }

    /// The value as `f64` (accepts any numeric variant).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::U64(v) => Some(v as f64),
            Json::I64(v) => Some(v as f64),
            Json::F64(v) => Some(v),
            _ => None,
        }
    }

    /// The value as `&str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as `bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Whether the value is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Serializes into `out`. Fails on non-finite floats.
    pub fn write(&self, out: &mut String) -> Result<(), JsonError> {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(v) => {
                let _ = fmt::Write::write_fmt(out, format_args!("{v}"));
            }
            Json::I64(v) => {
                let _ = fmt::Write::write_fmt(out, format_args!("{v}"));
            }
            Json::F64(v) => {
                if !v.is_finite() {
                    return Err(JsonError(format!(
                        "non-finite float {v} has no JSON representation; \
                         use Json::f64_or_null for optional statistics"
                    )));
                }
                // `{:?}` is the shortest representation that round-trips
                // the f64 exactly, and is valid JSON for finite values.
                let _ = fmt::Write::write_fmt(out, format_args!("{v:?}"));
            }
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out)?;
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out)?;
                }
                out.push('}');
            }
        }
        Ok(())
    }

    /// Serializes to a `String`. Fails on non-finite floats.
    #[allow(clippy::inherent_to_string)]
    pub fn to_string(&self) -> Result<String, JsonError> {
        let mut out = String::new();
        self.write(&mut out)?;
        Ok(out)
    }

    /// Parses one JSON value from `text` (must consume all non-space input).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(JsonError(format!("trailing input at byte {}", p.pos)));
        }
        Ok(v)
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = fmt::Write::write_fmt(out, format_args!("\\u{:04x}", c as u32));
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
            Err(JsonError(format!(
                "expected {:?} at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(JsonError(format!("bad literal at byte {}", self.pos)))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(JsonError(format!(
                "unexpected {:?} at byte {}",
                other.map(|b| b as char),
                self.pos
            ))),
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| JsonError("non-utf8 number".into()))?;
        let is_float = text.contains(['.', 'e', 'E']);
        if !is_float {
            if let Some(stripped) = text.strip_prefix('-') {
                if let Ok(v) = stripped.parse::<u64>() {
                    return if v == 0 {
                        Ok(Json::U64(0))
                    } else if v <= i64::MAX as u64 + 1 {
                        Ok(Json::I64((v as i128).wrapping_neg() as i64))
                    } else {
                        Err(JsonError(format!("integer {text} out of i64 range")))
                    };
                }
            } else if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::U64(v));
            }
        }
        let v: f64 = text
            .parse()
            .map_err(|_| JsonError(format!("bad number {text:?} at byte {start}")))?;
        if !v.is_finite() {
            return Err(JsonError(format!("number {text:?} overflows f64")));
        }
        Ok(Json::F64(v))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast-forward over the unescaped run.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| JsonError("invalid utf8 in string".into()))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| JsonError("unterminated escape".into()))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair.
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                0x10000 + ((hi - 0xD800) << 10) + (lo.wrapping_sub(0xDC00) & 0x3FF)
                            } else {
                                hi
                            };
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        other => {
                            return Err(JsonError(format!("bad escape \\{}", other as char)));
                        }
                    }
                }
                _ => return Err(JsonError("unterminated string".into())),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let chunk = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| JsonError("truncated \\u escape".into()))?;
        let s = std::str::from_utf8(chunk).map_err(|_| JsonError("bad \\u escape".into()))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| JsonError("bad \\u escape".into()))?;
        self.pos += 4;
        Ok(v)
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(JsonError(format!("expected , or ] at byte {}", self.pos))),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(JsonError(format!("expected , or }} at byte {}", self.pos))),
            }
        }
    }
}

/// Writes records as JSONL (one JSON value per line), creating parent
/// directories. Fails (without writing) on non-finite floats.
pub fn write_jsonl(path: &std::path::Path, records: &[Json]) -> std::io::Result<()> {
    let mut body = String::new();
    for r in records {
        r.write(&mut body)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        body.push('\n');
    }
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    std::fs::write(path, body)
}

/// Parses JSONL text into records, skipping blank lines.
pub fn parse_jsonl(text: &str) -> Result<Vec<Json>, JsonError> {
    text.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, l)| Json::parse(l).map_err(|e| JsonError(format!("line {}: {}", i + 1, e.0))))
        .collect()
}

/// Reads and parses a JSONL file.
pub fn read_jsonl(path: &std::path::Path) -> Result<Vec<Json>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse_jsonl(&text).map_err(|e| format!("{}: {e}", path.display()))
}
