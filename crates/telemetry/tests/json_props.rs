//! Properties of the workspace's one JSON value model: every value
//! survives both encodings, and a corrupted document is an error, never
//! a panic. The vendored proptest seeds each property from its name and
//! keeps no corpus, so every run draws the same cases.

use antdensity_telemetry::Json;
use proptest::prelude::*;
use proptest::test_runner::TestRng;

/// Generates values nested at most `depth` containers deep, with
/// integers near 2^53 and `u64::MAX`, arbitrary finite `f64`s, and
/// strings full of control characters and non-ASCII text.
#[derive(Debug, Clone, Copy)]
struct AnyJson {
    depth: u32,
}

impl Strategy for AnyJson {
    type Value = Json;

    fn sample(&self, rng: &mut TestRng) -> Json {
        let kinds = if self.depth == 0 { 4 } else { 6 };
        let inner = AnyJson {
            depth: self.depth.saturating_sub(1),
        };
        match (0u32..kinds).sample(rng) {
            0 => Json::Null,
            1 => Json::Bool(prop::bool::ANY.sample(rng)),
            2 => number(rng),
            3 => Json::Str(text(rng)),
            4 => Json::Arr(
                (0..(0usize..5).sample(rng))
                    .map(|_| inner.sample(rng))
                    .collect(),
            ),
            _ => Json::Obj(
                (0..(0usize..5).sample(rng))
                    .map(|_| (text(rng).into(), inner.sample(rng)))
                    .collect(),
            ),
        }
    }
}

fn number(rng: &mut TestRng) -> Json {
    match (0u32..6).sample(rng) {
        0 => Json::u64((1u64 << 53) - 4 + (0u64..8).sample(rng)),
        1 => Json::u64(u64::MAX - (0u64..4).sample(rng)),
        2 => Json::u64(any::<u64>().sample(rng)),
        3 => Json::num((-1e6..1e6f64).sample(rng)),
        4 => Json::num(-((0u64..1 << 60).sample(rng) as f64)),
        _ => {
            let v = f64::from_bits(any::<u64>().sample(rng));
            Json::num(if v.is_finite() { v } else { 0.5 })
        }
    }
}

fn text(rng: &mut TestRng) -> String {
    const WIDE: [char; 6] = ['\u{e9}', '\u{7f}', '\u{2028}', '\u{fffd}', '\u{1F41C}', '"'];
    (0..(0usize..8).sample(rng))
        .map(|_| match (0u32..4).sample(rng) {
            0 => char::from_u32((0u32..0x20).sample(rng)).expect("ASCII control"),
            1 => WIDE[(0usize..WIDE.len()).sample(rng)],
            _ => char::from_u32((0x20u32..0x7f).sample(rng)).expect("printable ASCII"),
        })
        .collect()
}

/// A document: an array at the top, so no proper prefix of its
/// compact encoding is itself a document.
#[derive(Debug, Clone, Copy)]
struct Document;

impl Strategy for Document {
    type Value = Json;

    fn sample(&self, rng: &mut TestRng) -> Json {
        let items = (1usize..4).sample(rng);
        Json::Arr(
            (0..items)
                .map(|_| AnyJson { depth: 3 }.sample(rng))
                .collect(),
        )
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn encode_then_parse_is_identity(v in AnyJson { depth: 3 }) {
        let compact = v.encode();
        prop_assert_eq!(Json::parse(&compact), Ok(v.clone()));
        let pretty = v.encode_pretty();
        prop_assert_eq!(Json::parse(&pretty), Ok(v.clone()));
        // one spelling per value: re-encoding a parsed value is stable
        prop_assert_eq!(Json::parse(&compact).unwrap().encode(), compact);
    }

    #[test]
    fn every_truncation_is_an_error(doc in Document, cut in 0.0..1.0f64) {
        for text in [doc.encode(), doc.encode_pretty().trim_end().to_string()] {
            let mut at = (cut * text.len() as f64) as usize;
            while !text.is_char_boundary(at) {
                at -= 1;
            }
            prop_assert!(Json::parse(&text[..at]).is_err(), "accepted {:?}", &text[..at]);
        }
    }

    #[test]
    fn byte_edits_never_panic(doc in Document, at in 0.0..1.0f64, byte in any::<u8>()) {
        let mut bytes = doc.encode_pretty().into_bytes();
        let at = (at * bytes.len() as f64) as usize;
        let original = bytes[at];
        bytes[at] = byte;
        if let Ok(text) = String::from_utf8(bytes.clone()) {
            // Any outcome but a panic is fine for an arbitrary byte...
            let parsed = Json::parse(&text);
            // ...but a raw control byte is never valid JSON, wherever
            // it lands.
            if byte < 0x20 && !matches!(byte, b'\t' | b'\n' | b'\r') {
                prop_assert!(parsed.is_err(), "accepted control byte {} at {}", byte, at);
            }
        }
        // Flipping one bit of the byte is just as safe.
        bytes[at] = original ^ (1 << (byte % 8));
        if let Ok(text) = String::from_utf8(bytes) {
            let _ = Json::parse(&text);
        }
    }
}
