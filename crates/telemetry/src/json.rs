//! The workspace's one JSON value model. Every document it writes or
//! reads (`SWEEP_<name>.json`, `METRICS_<name>.json`,
//! `BENCH_engine.json`, the Chrome trace, the serve wire) is built as a
//! [`Json`] and encoded here, or parsed here and decoded from a
//! [`Json`].
//!
//! The workspace is offline (no serde), so this is a small exact
//! encoder plus a strict recursive-descent parser. Objects preserve
//! insertion order (they are key/value vectors, not maps), so encoding
//! is byte-deterministic. The parser rejects unbalanced structure,
//! trailing garbage, bad escapes, numbers outside the RFC 8259 grammar,
//! truncated input and nesting deeper than 128 levels; it never
//! guesses.

use std::borrow::Cow;
use std::fmt::Write as _;

/// Deepest array/object nesting [`Json::parse`] accepts. The parser
/// recurses once per level, and its input comes off the wire, so
/// without a cap one line of `[`s overflows the stack of the thread
/// parsing it and aborts the whole daemon. Every document the workspace
/// writes nests fewer than ten levels deep.
const MAX_DEPTH: usize = 128;

/// Containers nested fewer than this many levels deep print one member
/// per line in [`Json::encode_pretty`]; deeper ones print inline.
const PRETTY_LEVELS: usize = 2;

/// 2^53: every integer up to here is exact in an `f64`.
const EXACT_F64_INT: f64 = 9_007_199_254_740_992.0;

/// One JSON value.
///
/// Each value has one representation, so the derived `PartialEq` is
/// value equality: integers above 2^53 that fit a `u64` are
/// [`Json::U64`], every other number is [`Json::Num`]. The
/// constructors, the `From` conversions and [`Json::parse`] keep to
/// that rule.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number that is not an integer above 2^53. Integers up to 2^53
    /// are exact here, which covers every count the documents carry.
    Num(f64),
    /// An integer above 2^53, where `f64` would round (a seed, a
    /// counter), encoded with every digit.
    U64(u64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object: insertion-ordered key/value pairs. A key the code
    /// spells as a literal is borrowed, not copied.
    Obj(Vec<(Cow<'static, str>, Json)>),
}

macro_rules! from_impls {
    ($($t:ty => $make:expr),* $(,)?) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Json {
                $make(v)
            }
        }
    )*};
}

from_impls!(
    bool => Json::Bool,
    f64 => Json::num,
    u64 => Json::u64,
    usize => |v: usize| Json::u64(v as u64),
    &str => Json::str,
    String => Json::Str,
);

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

impl Json {
    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Builds a number value from anything convertible to `f64`. An
    /// integral value above 2^53 that fits a `u64` becomes
    /// [`Json::U64`] holding the digits `format!("{v}")` prints, so it
    /// encodes exactly as that would.
    pub fn num(v: impl Into<f64>) -> Json {
        let v = v.into();
        if v.fract() == 0.0 && v > EXACT_F64_INT && v < 18_446_744_073_709_551_616.0 {
            if let Ok(n) = v.to_string().parse() {
                return Json::U64(n);
            }
        }
        Json::Num(v)
    }

    /// Builds an exact non-negative integer value.
    pub fn u64(v: u64) -> Json {
        if v <= 1 << 53 {
            Json::Num(v as f64)
        } else {
            Json::U64(v)
        }
    }

    /// Builds `v` rounded to `decimals` places, the value
    /// `format!("{v:.decimals$}")` prints, which then encodes without
    /// trailing zeros (`1.5`, not `1.500`).
    pub fn rounded(v: f64, decimals: usize) -> Json {
        Json::num(format!("{v:.decimals$}").parse::<f64>().unwrap_or(v))
    }

    /// Builds an object from `(key, value)` pairs, in order.
    pub fn obj<K: Into<Cow<'static, str>>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
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
            Json::U64(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is a number with no
    /// fractional part in `u64` range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= EXACT_F64_INT => Some(*v as u64),
            Json::U64(v) => Some(*v),
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
        self.write(&mut out, None);
        out
    }

    /// Encodes for a file a person reads. Arrays and objects nested
    /// fewer than two levels deep print one member per line, indented
    /// two spaces per level (an empty one prints its brackets on two
    /// lines); deeper ones print inline with `", "` and `": "`. Ends
    /// with a newline. Deterministic like [`Json::encode`].
    pub fn encode_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    /// Appends the encoding: compact when `level` is `None`, else the
    /// pretty layout for a value nested `level` containers deep.
    fn write(&self, out: &mut String, level: Option<usize>) {
        match self {
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            // Shortest round-trip formatting: no exponent, and no
            // fraction on an integer (`3`, not `3.0`).
            Json::Num(v) if v.is_finite() => {
                let _ = write!(out, "{v}");
            }
            Json::U64(v) => {
                let _ = write!(out, "{v}");
            }
            // Non-finite numbers have no JSON spelling.
            Json::Null | Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => write_members(out, level, "[]", items.iter().map(|v| (None, v))),
            Json::Obj(pairs) => {
                let members = pairs.iter().map(|(k, v)| (Some(k.as_ref()), v));
                write_members(out, level, "{}", members);
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

/// Appends an array's or object's members between the two `brackets`;
/// object members carry their key.
fn write_members<'a>(
    out: &mut String,
    level: Option<usize>,
    brackets: &str,
    members: impl Iterator<Item = (Option<&'a str>, &'a Json)>,
) {
    let broken = level.filter(|&l| l < PRETTY_LEVELS);
    let newline = |out: &mut String, l: usize| {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', 2 * l));
    };
    let (comma, colon) = match (level, broken) {
        (None, _) => (",", ":"),
        (Some(_), None) => (", ", ": "),
        (Some(_), Some(_)) => (",", ": "),
    };
    out.push_str(&brackets[..1]);
    for (i, (key, value)) in members.enumerate() {
        if i > 0 {
            out.push_str(comma);
        }
        if let Some(l) = broken {
            newline(out, l + 1);
        }
        if let Some(key) = key {
            write_str(key, out);
            out.push_str(colon);
        }
        value.write(out, level.map(|l| l + 1));
    }
    if let Some(l) = broken {
        newline(out, l);
    }
    out.push_str(&brackets[1..]);
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    let mut rest = s;
    // Copy each run of bytes that need no escape in one go; the bytes
    // that do are ASCII, so every split lands on a char boundary.
    while let Some(at) = rest
        .bytes()
        .position(|b| b == b'"' || b == b'\\' || b < 0x20)
    {
        out.push_str(&rest[..at]);
        match rest.as_bytes()[at] {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            b => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        rest = &rest[at + 1..];
    }
    out.push_str(rest);
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
        Some(&open @ (b'[' | b'{')) => {
            let (is_obj, close) = (open == b'{', if open == b'{' { b'}' } else { b']' });
            let (mut items, mut pairs) = (Vec::new(), Vec::new());
            *pos += 1;
            skip_ws(bytes, pos);
            let mut more = bytes.get(*pos) != Some(&close);
            while more {
                skip_ws(bytes, pos);
                if is_obj {
                    let key = parse_str(bytes, pos)?;
                    skip_ws(bytes, pos);
                    expect(bytes, pos, b':')?;
                    skip_ws(bytes, pos);
                    pairs.push((key.into(), parse_value(bytes, pos, depth + 1)?));
                } else {
                    items.push(parse_value(bytes, pos, depth + 1)?);
                }
                skip_ws(bytes, pos);
                more = bytes.get(*pos) == Some(&b',');
                if !more && bytes.get(*pos) != Some(&close) {
                    return Err(format!(
                        "expected `,` or `{}` at byte {}",
                        close as char, *pos
                    ));
                }
                *pos += usize::from(more);
            }
            *pos += 1;
            Ok(if is_obj {
                Json::Obj(pairs)
            } else {
                Json::Arr(items)
            })
        }
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_num(bytes, pos),
        Some(c) => Err(format!(
            "unexpected byte `{}` at {}: not a number, string, literal, array or object",
            *c as char, *pos
        )),
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

/// Parses a number per the RFC 8259 grammar: an optional minus, an
/// integer part without leading zeros, then an optional fraction and an
/// optional exponent, each with at least one digit. A non-negative
/// integer that fits a `u64` parses exactly.
fn parse_num(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    // Consumes one byte if it is in `set`.
    let eat = |pos: &mut usize, set: &[u8]| {
        let hit = bytes.get(*pos).is_some_and(|b| set.contains(b));
        *pos += usize::from(hit);
        hit
    };
    let digits = |pos: &mut usize| {
        let from = *pos;
        while eat(pos, b"0123456789") {}
        *pos > from
    };
    let negative = eat(pos, b"-");
    // A leading `0` is the whole integer part; any digit after it is
    // left over and fails the caller.
    let mut ok = eat(pos, b"0") || digits(pos);
    let integral = !matches!(bytes.get(*pos), Some(b'.' | b'e' | b'E'));
    if eat(pos, b".") {
        ok &= digits(pos);
    }
    if eat(pos, b"eE") {
        eat(pos, b"+-");
        ok &= digits(pos);
    }
    // The scanned bytes are ASCII, so this cannot fail.
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    let bad = || format!("bad number `{text}` at byte {start}");
    if !ok {
        return Err(bad());
    }
    match text.parse::<u64>() {
        Ok(v) if integral && !negative => Ok(Json::u64(v)),
        _ => text.parse::<f64>().map(Json::num).map_err(|_| bad()),
    }
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
                // Copy the run up to the next quote, backslash or
                // control byte. Those are ASCII and the input is &str,
                // so the run ends on a UTF-8 boundary.
                let from = *pos;
                while bytes
                    .get(*pos)
                    .is_some_and(|&c| c >= 0x20 && c != b'"' && c != b'\\')
                {
                    *pos += 1;
                }
                out.push_str(std::str::from_utf8(&bytes[from..*pos]).map_err(|e| e.to_string())?);
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
    fn integers_above_2_pow_53_stay_exact() {
        for v in [(1u64 << 53) + 1, 18_446_744_073_709_551_615] {
            let text = Json::u64(v).encode();
            assert_eq!(text, v.to_string());
            assert_eq!(Json::parse(&text).unwrap(), Json::U64(v));
            assert_eq!(Json::parse(&text).unwrap().as_u64(), Some(v));
        }
        // one representation per value: small integers stay `Num`
        assert_eq!(Json::u64(1 << 53), Json::Num(9_007_199_254_740_992.0));
        assert_eq!(Json::parse("42").unwrap(), Json::Num(42.0));
        assert_eq!(Json::num(1e17), Json::U64(100_000_000_000_000_000));
        // integers past u64 and negative ones fall back to `f64`
        assert_eq!(
            Json::parse("18446744073709551616").unwrap(),
            Json::Num(18_446_744_073_709_551_616.0)
        );
        assert_eq!(Json::parse("-12").unwrap().as_u64(), None);
    }

    #[test]
    fn pretty_layout_breaks_two_levels_and_inlines_deeper() {
        let value = Json::obj([
            ("name", Json::str("s")),
            ("empty", Json::Arr(vec![])),
            (
                "rows",
                Json::Arr(vec![
                    Json::obj([("a", Json::num(1.5)), ("b", Json::Arr(vec![Json::Null]))]),
                    Json::Obj(vec![]),
                ]),
            ),
            ("map", Json::obj([("k", Json::Bool(true))])),
        ]);
        assert_eq!(
            value.encode_pretty(),
            "{\n  \"name\": \"s\",\n  \"empty\": [\n  ],\n  \"rows\": [\n    \
             {\"a\": 1.5, \"b\": [null]},\n    {}\n  ],\n  \"map\": {\n    \"k\": true\n  }\n}\n"
        );
        assert_eq!(Json::parse(&value.encode_pretty()).unwrap(), value);
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
            "01",
            "00",
            "-.5",
            "1.",
            "1.e5",
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
