//! A minimal JSON value model for the line-delimited job protocol.
//!
//! The workspace is offline (no serde), so the wire format gets the
//! same treatment as every other artifact: a hand-rolled, deterministic
//! encoder plus a strict recursive-descent parser. Objects preserve
//! insertion order (they are key/value vectors, not maps), so encoding
//! is byte-deterministic — the property the whole service layer leans
//! on. The parser is strict where it matters for corruption rejection:
//! unbalanced structure, trailing garbage, bad escapes, truncated
//! input, and nesting deeper than 128 levels are all errors, never
//! best-effort guesses.

/// Deepest array/object nesting [`Json::parse`] accepts. The parser
/// recurses once per level, and its input comes off the wire, so
/// without a cap one line of `[`s overflows the stack of the thread
/// parsing it and aborts the whole daemon. Every document the workspace
/// writes nests fewer than ten levels deep.
const MAX_DEPTH: usize = 128;

/// One JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number. Stored as `f64`: integers are exact up to 2^53, which
    /// covers every count the protocol carries (job ids, cell counts,
    /// row numbers). Seeds ride inside spec *text*, never as JSON
    /// numbers, so they keep full 64-bit range.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object: insertion-ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Builds a number value from anything convertible to `f64`.
    pub fn num(v: impl Into<f64>) -> Json {
        Json::Num(v.into())
    }

    /// Looks up `key` in an object; `None` for missing keys and
    /// non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
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

    /// The value as an `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is a number with no
    /// fractional part in `u64` range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= 9e15 => Some(*v as u64),
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

    /// Encodes compactly (no insignificant whitespace). Deterministic:
    /// same value, same bytes.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.encode_into(&mut out);
        out
    }

    fn encode_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => encode_num(*v, out),
            Json::Str(s) => encode_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.encode_into(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    encode_str(k, out);
                    out.push(':');
                    v.encode_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses exactly one JSON value spanning the whole input
    /// (surrounding whitespace allowed), nested at most 128 arrays and
    /// objects deep.
    ///
    /// # Errors
    ///
    /// Returns a one-line description of the first syntax error,
    /// including truncation, trailing garbage and excess nesting.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        skip_ws(bytes, &mut pos);
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(value)
    }
}

/// Numbers print as integers when they are one (`3`, not `3.0`) and
/// otherwise via Rust's shortest-round-trip `f64` formatting. Non-
/// finite values have no JSON spelling; they encode as `null`.
fn encode_num(v: f64, out: &mut String) {
    if !v.is_finite() {
        out.push_str("null");
    } else if v.fract() == 0.0 && v.abs() <= 9e15 {
        out.push_str(&format!("{}", v as i64));
    } else {
        out.push_str(&format!("{v}"));
    }
}

fn encode_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
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

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&b) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected `{}` at byte {} (found {:?})",
            b as char,
            *pos,
            bytes.get(*pos).map(|&c| c as char)
        ))
    }
}

/// Parses the value at `pos`, which sits inside `depth` open arrays
/// and objects.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    match bytes.get(*pos) {
        Some(b'[' | b'{') if depth == MAX_DEPTH => Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {pos}",
            pos = *pos
        )),
        None => Err("unexpected end of input".to_string()),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'"') => parse_str(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                skip_ws(bytes, pos);
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_str(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                skip_ws(bytes, pos);
                let value = parse_value(bytes, pos, depth + 1)?;
                pairs.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(pairs));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_num(bytes, pos),
        Some(c) => Err(format!("unexpected byte `{}` at {}", *c as char, *pos)),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("bad literal at byte {} (want `{lit}`)", *pos))
    }
}

fn parse_num(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("bad number `{text}` at byte {start}"))
}

fn parse_str(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
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
                        let first = parse_hex4(bytes, pos)?;
                        // Surrogate pairs: a high surrogate must be
                        // followed by an escaped low surrogate.
                        if (0xD800..0xDC00).contains(&first) {
                            if bytes.get(*pos + 1) != Some(&b'\\')
                                || bytes.get(*pos + 2) != Some(&b'u')
                            {
                                return Err("lone high surrogate".to_string());
                            }
                            *pos += 2;
                            let second = parse_hex4(bytes, pos)?;
                            if !(0xDC00..0xE000).contains(&second) {
                                return Err("bad low surrogate".to_string());
                            }
                            let c = 0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00);
                            out.push(char::from_u32(c).ok_or("bad surrogate pair")?);
                        } else {
                            out.push(char::from_u32(first).ok_or("bad \\u escape")?);
                        }
                    }
                    other => return Err(format!("bad escape {other:?}")),
                }
                *pos += 1;
            }
            Some(&c) if c < 0x20 => return Err("raw control byte in string".to_string()),
            Some(_) => {
                // Copy one UTF-8 scalar (input is &str, so boundaries
                // are valid).
                let s = std::str::from_utf8(&bytes[*pos..]).map_err(|e| e.to_string())?;
                let c = s.chars().next().expect("non-empty by match");
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

/// Parses the 4 hex digits after `\u`, leaving `pos` on the last one.
fn parse_hex4(bytes: &[u8], pos: &mut usize) -> Result<u32, String> {
    let start = *pos + 1;
    let end = start + 4;
    if end > bytes.len() {
        return Err("truncated \\u escape".to_string());
    }
    let text = std::str::from_utf8(&bytes[start..end]).map_err(|e| e.to_string())?;
    let v = u32::from_str_radix(text, 16).map_err(|_| format!("bad \\u escape `{text}`"))?;
    *pos = end - 1;
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_value_kind() {
        let value = Json::Obj(vec![
            ("null".into(), Json::Null),
            ("yes".into(), Json::Bool(true)),
            ("int".into(), Json::num(42.0)),
            ("neg".into(), Json::num(-7.0)),
            ("frac".into(), Json::num(0.125)),
            (
                "text".into(),
                Json::str("spec\nline two\t\"quoted\" \\ back"),
            ),
            (
                "arr".into(),
                Json::Arr(vec![Json::num(1.0), Json::str("x"), Json::Null]),
            ),
            ("obj".into(), Json::Obj(vec![("k".into(), Json::num(3.0))])),
        ]);
        let text = value.encode();
        assert_eq!(Json::parse(&text).unwrap(), value);
        // encoding is deterministic
        assert_eq!(Json::parse(&text).unwrap().encode(), text);
    }

    #[test]
    fn integers_encode_without_fraction() {
        assert_eq!(Json::num(3.0).encode(), "3");
        assert_eq!(Json::num(-3.0).encode(), "-3");
        assert_eq!(Json::num(0.5).encode(), "0.5");
        assert_eq!(Json::Num(f64::NAN).encode(), "null");
    }

    #[test]
    fn accessors_extract_typed_fields() {
        let obj = Json::parse(r#"{"job": 7, "name": "smoke", "ok": true, "x": null}"#).unwrap();
        assert_eq!(obj.get("job").and_then(Json::as_u64), Some(7));
        assert_eq!(obj.get("name").and_then(Json::as_str), Some("smoke"));
        assert_eq!(obj.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(obj.get("x"), Some(&Json::Null));
        assert_eq!(obj.get("missing"), None);
        assert_eq!(Json::num(1.5).as_u64(), None);
    }

    #[test]
    fn unicode_escapes_parse() {
        assert_eq!(Json::parse(r#""a\u00e9b""#).unwrap(), Json::str("a\u{e9}b"));
        // raw UTF-8 passes through untouched
        assert_eq!(Json::parse("\"a\u{e9}b\"").unwrap(), Json::str("a\u{e9}b"));
        // surrogate pair (U+1F41C, an ant)
        assert_eq!(Json::parse(r#""🐜""#).unwrap(), Json::str("\u{1F41C}"));
        assert!(Json::parse(r#""\ud83d""#).is_err());
    }

    #[test]
    fn rejects_corruption() {
        for bad in [
            "",
            "{",
            "[1,2",
            "{\"a\": }",
            "{\"a\": 1,}",
            "tru",
            "\"unterminated",
            "\"bad \\q escape\"",
            "{\"a\": 1} trailing",
            "1e",
            "{\"a\" 1}",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn nesting_is_capped_without_recursing_past_the_cap() {
        let nested = |open: &str, close: &str, depth: usize| {
            format!("{}1{}", open.repeat(depth), close.repeat(depth))
        };
        let deepest = Json::parse(&nested("[", "]", MAX_DEPTH)).unwrap();
        assert_eq!(deepest.encode(), nested("[", "]", MAX_DEPTH));
        assert!(Json::parse(&nested("{\"k\":", "}", MAX_DEPTH)).is_ok());
        for text in [
            nested("[", "]", MAX_DEPTH + 1),
            nested("{\"k\":", "}", MAX_DEPTH + 1),
            // an unterminated line of a million opens: rejected at the
            // cap, long before the stack runs out
            "[".repeat(1_000_000),
            "[{\"a\":".repeat(500_000),
        ] {
            let err = Json::parse(&text).unwrap_err();
            assert!(err.contains("nesting deeper than 128"), "got: {err}");
        }
    }

    #[test]
    fn every_single_byte_truncation_is_rejected() {
        let text = Json::Obj(vec![
            ("op".into(), Json::str("submit")),
            ("spec".into(), Json::str("name = s\ntrials = 1")),
            ("quick".into(), Json::Bool(true)),
        ])
        .encode();
        for cut in 1..text.len() {
            assert!(
                Json::parse(&text[..cut]).is_err(),
                "accepted truncation at {cut}"
            );
        }
    }
}
