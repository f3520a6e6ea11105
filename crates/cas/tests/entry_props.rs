//! Property suite for CAS entries: whatever a `put` wrote comes back
//! from `get`, and whatever damage an entry file takes (truncation at
//! any offset, any single bit flip, absurd header lengths, bytes that
//! are not UTF-8) comes back as `Corrupt` or `Miss`, never as `Hit` and
//! never as a panic. The measured-λ memo and the shard cache both read
//! through these entries.

use antdensity_cas::{fnv1a64, Lookup, Store};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;

/// Characters keys and payloads draw from: ASCII, the header's own
/// separators, control characters and multi-byte UTF-8.
const ALPHABET: &[char] = &[
    'a', 'f', 'z', 'A', 'F', '0', '9', ' ', '=', '.', ':', '\t', '\r', '\n', 'é', 'λ', '√', '🐜',
];

/// A string of `len` characters from [`ALPHABET`], with newlines only
/// when `newlines` is set.
fn text(rng: &mut SmallRng, len: usize, newlines: bool) -> String {
    (0..len)
        .map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())])
        .map(|c| if c == '\n' && !newlines { '_' } else { c })
        .collect()
}

/// A fresh store under the system temp directory, unique per test.
fn store(tag: &str) -> (PathBuf, Store) {
    let root =
        std::env::temp_dir().join(format!("antdensity_cas_props_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let store = Store::open(&root, "props v1").expect("open store");
    (root, store)
}

fn entry_path(store: &Store, key: &str) -> PathBuf {
    store
        .dir()
        .join(format!("{:016x}.cas", fnv1a64(key.as_bytes())))
}

/// Writes `bytes` as `key`'s entry file and reads it back.
fn lookup_of(store: &Store, key: &str, bytes: &[u8]) -> Lookup {
    std::fs::write(entry_path(store, key), bytes).expect("write entry");
    store.get(key)
}

fn never_hit(lookup: &Lookup) -> bool {
    matches!(lookup, Lookup::Corrupt | Lookup::Miss)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn put_then_get_round_trips(seed in any::<u64>(), key_len in 0usize..24, payload_len in 0usize..200) {
        let (root, store) = store("roundtrip");
        let mut rng = SmallRng::seed_from_u64(seed);
        let key = text(&mut rng, key_len, false);
        let payload = text(&mut rng, payload_len, true);
        let size = store.put(&key, &payload).expect("put");
        prop_assert_eq!(size, std::fs::metadata(entry_path(&store, &key)).unwrap().len());
        prop_assert_eq!(store.get(&key), Lookup::Hit(payload));
        std::fs::remove_dir_all(&root).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn truncated_and_bit_flipped_entries_never_hit(seed in any::<u64>(), key_len in 0usize..10, payload_len in 0usize..40) {
        let (root, store) = store("damage");
        let mut rng = SmallRng::seed_from_u64(seed);
        let key = text(&mut rng, key_len, false);
        let payload = text(&mut rng, payload_len, true);
        store.put(&key, &payload).expect("put");
        let good = std::fs::read(entry_path(&store, &key)).unwrap();
        for end in 0..good.len() {
            let got = lookup_of(&store, &key, &good[..end]);
            prop_assert!(never_hit(&got), "truncated to {} of {} bytes: {:?}", end, good.len(), got);
        }
        for at in 0..good.len() {
            for bit in 0..8 {
                let mut bad = good.clone();
                bad[at] ^= 1 << bit;
                let got = lookup_of(&store, &key, &bad);
                prop_assert!(never_hit(&got), "bit {} of byte {} flipped in {:?}: {:?}",
                    bit, at, String::from_utf8_lossy(&good), got);
            }
        }
        // the undamaged bytes still verify
        prop_assert_eq!(lookup_of(&store, &key, &good), Lookup::Hit(payload));
        std::fs::remove_dir_all(&root).unwrap();
    }
}

#[test]
fn oversized_lengths_and_non_utf8_entries_are_corrupt() {
    let (root, store) = store("oversized");
    store.put("k", "payload").unwrap();
    let good = std::fs::read_to_string(entry_path(&store, "k")).unwrap();
    for (field, value) in [("key_len", "1"), ("payload_len", "7")] {
        let at = format!("{field}={value} ");
        assert!(good.contains(&at), "{good:?}");
        for huge in [
            u64::MAX.to_string(),
            usize::MAX.to_string(),
            "340282366920938463463374607431768211456".to_string(),
            "9".repeat(400),
        ] {
            let bad = good.replace(&at, &format!("{field}={huge} "));
            let got = lookup_of(&store, "k", bad.as_bytes());
            assert_eq!(got, Lookup::Corrupt, "{field}={huge}");
        }
    }
    let mut bytes = good.clone().into_bytes();
    let last = bytes.len() - 1;
    for bad in [0xff, 0xc3, 0x80] {
        bytes[last] = bad;
        assert_eq!(
            lookup_of(&store, "k", &bytes),
            Lookup::Corrupt,
            "byte {bad:#x}"
        );
    }
    assert_eq!(lookup_of(&store, "k", &[0xff; 64]), Lookup::Corrupt);
    std::fs::remove_dir_all(&root).unwrap();
}
