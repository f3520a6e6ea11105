//! `antdensity-cas` — a small content-addressed on-disk store.
//!
//! The workspace's determinism contract makes every expensive artifact
//! a *pure function* of a short key: a fused shard's aggregate blob is
//! a function of `(resolved-spec fingerprint, shard id)`, a measured
//! spectral gap a function of the topology token. This crate is the
//! shared persistence layer that turns that purity into reuse: sweeps,
//! the serve daemon, distributed workers, and the theory layer all
//! memoize through one [`Store`].
//!
//! Design constraints, in order:
//!
//! 1. **Never trust the disk.** Every entry carries its namespace, its
//!    full key, its payload length, and an FNV-1a checksum; a read that
//!    fails any check is reported as [`Lookup::Corrupt`] and the caller
//!    recomputes. A cache can therefore only ever cost time, not
//!    correctness.
//! 2. **Safe under concurrent writers.** Entries are written to a
//!    unique temporary name and atomically renamed into place. Two
//!    processes racing on one key both write the identical bytes (the
//!    value is a pure function of the key), so last-rename-wins is
//!    benign; readers never observe a torn file.
//! 3. **No dependencies.** The build environment is offline; this
//!    crate is `std` only so every workspace layer (including the
//!    bottom of the dependency graph) can use it.
//!
//! Entries live under `root/<namespace-slug>/<fnv64(key)>.cas`; the
//! full key is stored and compared on read, so a (vanishingly
//! unlikely) filename-hash collision degrades to a miss, never to a
//! wrong payload.

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::SystemTime;

/// Magic first token of every entry file. Bumping it orphans all
/// existing entries on purpose (they fail verification and are
/// recomputed).
pub const ENTRY_MAGIC: &str = "antdensity-cas v1";

/// FNV-1a 64-bit hash — the checksum and filename hash. Not
/// cryptographic; the store defends against corruption and truncation,
/// not an adversary with write access to the cache directory.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The outcome of a [`Store::get`]: the caller's counters distinguish
/// a clean miss from an entry that existed but failed verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Lookup {
    /// Verified payload.
    Hit(String),
    /// No entry for the key.
    Miss,
    /// An entry existed but was truncated, corrupt, or answered for a
    /// different key/namespace — the caller must recompute. The entry
    /// is left in place; the next `put` overwrites it.
    Corrupt,
}

/// What an eviction pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Eviction {
    /// Entries removed.
    pub evicted: u64,
    /// Bytes freed.
    pub bytes_freed: u64,
    /// Bytes remaining in the namespace after the pass.
    pub bytes_kept: u64,
}

/// One namespace of a content-addressed store rooted at a directory.
///
/// Opening is cheap (one `create_dir_all`); all state lives on disk,
/// so any number of processes can share one root.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    namespace: String,
}

/// Unique-per-call suffix for temporary files: pid plus a process-wide
/// counter, so concurrent writers (threads *and* processes) never
/// collide on a tmp name.
fn tmp_suffix() -> String {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    format!(
        "{}.{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    )
}

impl Store {
    /// Opens (creating if needed) the `namespace` slice of the store
    /// rooted at `root`. The namespace names the *format contract* of
    /// the payloads (it should embed a version, e.g.
    /// `antdensity-shard-cache v1`); entries verify it on read, so two
    /// namespaces can never serve each other's bytes.
    ///
    /// # Errors
    ///
    /// Returns the error text if the directory cannot be created.
    pub fn open(root: &Path, namespace: &str) -> Result<Store, String> {
        let slug: String = namespace
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
            .collect();
        let dir = root.join(slug);
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create cache dir {}: {e}", dir.display()))?;
        Ok(Store {
            dir,
            namespace: namespace.to_string(),
        })
    }

    /// The directory this namespace's entries live in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn entry_path(&self, key: &str) -> PathBuf {
        self.dir
            .join(format!("{:016x}.cas", fnv1a64(key.as_bytes())))
    }

    /// The header line of `key`'s entry holding `payload`.
    fn header(&self, key: &str, payload: &str) -> String {
        format!(
            "{ENTRY_MAGIC} ns={:016x} key_len={} payload_len={} checksum={:016x}",
            fnv1a64(self.namespace.as_bytes()),
            key.len(),
            payload.len(),
            fnv1a64(payload.as_bytes()),
        )
    }

    /// Verified read: the entry file must be byte for byte what
    /// [`Store::put`] writes for `key` and the payload it carries. So any
    /// failure — a missing or non-canonical header field, wrong
    /// namespace, wrong key, short payload, checksum mismatch, bytes that
    /// are not UTF-8 — comes back as [`Lookup::Corrupt`] (or
    /// [`Lookup::Miss`] if there is no entry at all); the payload is
    /// returned only when every check passes. A hit also bumps the
    /// entry's modification time so the LRU eviction pass sees it as
    /// recently used.
    pub fn get(&self, key: &str) -> Lookup {
        let path = self.entry_path(key);
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Lookup::Miss,
            Err(_) => return Lookup::Corrupt,
        };
        let Some((header, rest)) = text.split_once('\n') else {
            return Lookup::Corrupt;
        };
        let Some((stored_key, payload)) = rest.split_once('\n') else {
            return Lookup::Corrupt;
        };
        if stored_key != key || header != self.header(key, payload) {
            return Lookup::Corrupt;
        }
        // Touch for LRU; best-effort (a read-only cache still serves).
        if let Ok(f) = std::fs::File::options().append(true).open(&path) {
            let _ = f.set_modified(SystemTime::now());
        }
        Lookup::Hit(payload.to_string())
    }

    /// Atomic write: the entry is rendered into a unique temporary
    /// file and renamed over the final name. Concurrent writers of one
    /// key race benignly (both wrote identical bytes). Returns the
    /// entry's on-disk size.
    ///
    /// # Errors
    ///
    /// Returns the error text on I/O failure, or if `key` contains a
    /// newline (the entry format is line-framed).
    pub fn put(&self, key: &str, payload: &str) -> Result<u64, String> {
        if key.contains('\n') {
            return Err(format!("cache key contains a newline: {key:?}"));
        }
        let text = format!("{}\n{key}\n{payload}", self.header(key, payload));
        let path = self.entry_path(key);
        let tmp = self.dir.join(format!("tmp.{}", tmp_suffix()));
        let write = (|| -> std::io::Result<()> {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(text.as_bytes())?;
            f.sync_all()?;
            std::fs::rename(&tmp, &path)
        })();
        if let Err(e) = write {
            let _ = std::fs::remove_file(&tmp);
            return Err(format!("cache write {} failed: {e}", path.display()));
        }
        Ok(text.len() as u64)
    }

    /// Total bytes of entries in this namespace.
    pub fn total_bytes(&self) -> u64 {
        self.entries().into_iter().map(|(_, len, _)| len).sum()
    }

    /// `(path, len, mtime)` for every entry file, unordered.
    fn entries(&self) -> Vec<(PathBuf, u64, SystemTime)> {
        let Ok(read) = std::fs::read_dir(&self.dir) else {
            return Vec::new();
        };
        read.flatten()
            .filter(|e| e.path().extension().is_some_and(|x| x == "cas"))
            .filter_map(|e| {
                let meta = e.metadata().ok()?;
                let mtime = meta.modified().unwrap_or(SystemTime::UNIX_EPOCH);
                Some((e.path(), meta.len(), mtime))
            })
            .collect()
    }

    /// Size-capped LRU eviction pass: while the namespace holds more
    /// than `max_bytes`, remove the least-recently-used entry (oldest
    /// modification time; [`Store::get`] hits refresh it). Failed
    /// removals are skipped — another process may have evicted first.
    pub fn evict_to(&self, max_bytes: u64) -> Eviction {
        let mut entries = self.entries();
        entries.sort_by_key(|&(_, _, mtime)| mtime);
        let mut total: u64 = entries.iter().map(|&(_, len, _)| len).sum();
        let mut out = Eviction::default();
        for (path, len, _) in entries {
            if total <= max_bytes {
                break;
            }
            if std::fs::remove_file(&path).is_ok() {
                out.evicted += 1;
                out.bytes_freed += len;
            }
            total -= len;
        }
        out.bytes_kept = total;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("antdensity_cas_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn put_get_round_trips_and_misses_cleanly() {
        let root = scratch("roundtrip");
        let store = Store::open(&root, "test v1").unwrap();
        assert_eq!(store.get("absent"), Lookup::Miss);
        store.put("k1", "payload\nwith lines\n").unwrap();
        assert_eq!(store.get("k1"), Lookup::Hit("payload\nwith lines\n".into()));
        // overwrite wins
        store.put("k1", "second").unwrap();
        assert_eq!(store.get("k1"), Lookup::Hit("second".into()));
        // empty payloads are representable
        store.put("k2", "").unwrap();
        assert_eq!(store.get("k2"), Lookup::Hit(String::new()));
        assert!(store.put("bad\nkey", "x").is_err());
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn corrupt_entries_are_never_served() {
        let root = scratch("corrupt");
        let store = Store::open(&root, "test v1").unwrap();
        store.put("k", "the payload bytes").unwrap();
        let path = store.entry_path("k");
        let good = std::fs::read_to_string(&path).unwrap();

        // truncation
        std::fs::write(&path, &good[..good.len() - 4]).unwrap();
        assert_eq!(store.get("k"), Lookup::Corrupt);
        // bit flip in the payload
        let flipped = good.replace("payload", "paYload");
        std::fs::write(&path, flipped).unwrap();
        assert_eq!(store.get("k"), Lookup::Corrupt);
        // garbage header
        std::fs::write(&path, "not a cas entry\nk\nx").unwrap();
        assert_eq!(store.get("k"), Lookup::Corrupt);
        // a fresh put repairs the slot
        store.put("k", "the payload bytes").unwrap();
        assert_eq!(store.get("k"), Lookup::Hit("the payload bytes".into()));
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn wrong_namespace_and_wrong_key_are_corrupt() {
        let root = scratch("ns");
        let a = Store::open(&root, "ns-a v1").unwrap();
        let b = Store::open(&root, "ns-b v1").unwrap();
        a.put("k", "from a").unwrap();
        // different namespace → different directory → clean miss
        assert_eq!(b.get("k"), Lookup::Miss);
        // an entry renamed onto another key's filename answers for the
        // wrong key and is rejected
        a.put("other", "from other").unwrap();
        std::fs::rename(a.entry_path("other"), a.entry_path("k")).unwrap();
        assert_eq!(a.get("k"), Lookup::Corrupt);
        // an entry copied across namespaces (same filename hash) is
        // rejected by the namespace check
        b.put("k", "from b").unwrap();
        std::fs::copy(b.entry_path("k"), a.entry_path("k")).unwrap();
        assert_eq!(a.get("k"), Lookup::Corrupt);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn concurrent_writers_on_one_key_never_tear() {
        let root = scratch("race");
        let store = Store::open(&root, "race v1").unwrap();
        let payload: String = "deterministic bytes ".repeat(512);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let store = Store::open(&root, "race v1").unwrap();
                let payload = payload.clone();
                scope.spawn(move || {
                    for _ in 0..50 {
                        store.put("contended", &payload).unwrap();
                        match store.get("contended") {
                            Lookup::Hit(p) => assert_eq!(p, payload),
                            other => panic!("reader saw {other:?}"),
                        }
                    }
                });
            }
        });
        assert_eq!(store.get("contended"), Lookup::Hit(payload));
        // no tmp litter survives the race
        let litter = std::fs::read_dir(store.dir())
            .unwrap()
            .flatten()
            .filter(|e| e.path().extension().is_none_or(|x| x != "cas"))
            .count();
        assert_eq!(litter, 0, "temporary files left behind");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn eviction_is_lru_and_size_capped() {
        let root = scratch("evict");
        let store = Store::open(&root, "evict v1").unwrap();
        let mut sizes = Vec::new();
        for i in 0..4 {
            sizes.push(store.put(&format!("k{i}"), &"x".repeat(100)).unwrap());
            // mtime granularity: ensure a strict order between entries
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        let total = store.total_bytes();
        assert_eq!(total, sizes.iter().sum::<u64>());
        // a recent get refreshes k0 — k1 becomes the LRU victim
        assert!(matches!(store.get("k0"), Lookup::Hit(_)));
        std::thread::sleep(std::time::Duration::from_millis(20));
        let pass = store.evict_to(total - 1);
        assert_eq!(pass.evicted, 1);
        assert_eq!(store.get("k1"), Lookup::Miss, "LRU entry evicted");
        assert!(
            matches!(store.get("k0"), Lookup::Hit(_)),
            "refreshed entry kept"
        );
        // cap 0 clears the namespace
        let pass = store.evict_to(0);
        assert_eq!(pass.bytes_kept, 0);
        assert_eq!(store.total_bytes(), 0);
        std::fs::remove_dir_all(&root).unwrap();
    }
}
