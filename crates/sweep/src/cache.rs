//! The shard result cache: sweep-layer semantics over the
//! content-addressed store in `crates/cas`.
//!
//! A fused shard's aggregate blob is a pure function of
//! `(resolved-spec fingerprint, shard index)` — the determinism the
//! checkpoint/resume and distributed layers are already built on. This
//! module memoizes that function on disk so warm reruns of a sweep
//! (same spec, or a different sweep whose grid overlaps cell-for-cell)
//! skip simulation entirely and still render byte-identical reports:
//! the report is computed from the merged aggregates, and a cached
//! blob *is* the checkpoint text the shard would have produced.
//!
//! Correctness is inherited, not engineered: every entry is verified
//! on read twice — once structurally by the store (length + checksum +
//! key match), once semantically here ([`crate::dist::parse_blob`]
//! re-checks the fingerprint and cell count). Anything that fails
//! either check counts as a miss and the shard is recomputed; a cache
//! can cost time, never bytes.
//!
//! One [`ShardCache`] may be shared by any number of threads and
//! processes (sweep runner waves, serve executors, dist workers): the
//! store's tmp+rename writes make racing writers benign, and hit/miss
//! accounting is atomic.

use crate::dist;
use crate::schema::SHARD_CACHE_V1;
use crate::spec::ResolvedSweep;
use antdensity_cas as cas;
use antdensity_telemetry as telemetry;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

// Process-global mirrors of the per-cache counters, so cache traffic
// shows up in `--metrics` counter dumps and CI can grep for it.
static TM_HITS: telemetry::LazyCounter = telemetry::LazyCounter::new("sweep.cache.hits");
static TM_MISSES: telemetry::LazyCounter = telemetry::LazyCounter::new("sweep.cache.misses");
static TM_STORES: telemetry::LazyCounter = telemetry::LazyCounter::new("sweep.cache.stores");
static TM_CORRUPT: telemetry::LazyCounter = telemetry::LazyCounter::new("sweep.cache.corrupt");
static TM_EVICTIONS: telemetry::LazyCounter = telemetry::LazyCounter::new("sweep.cache.evictions");
static TM_VERIFY_FAILURES: telemetry::LazyCounter =
    telemetry::LazyCounter::new("sweep.cache.verify_failures");

/// Counters one cache instance accumulated; surfaced in the METRICS
/// schema v3 `cache` section.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Entries served after full verification.
    pub hits: u64,
    /// Lookups that found no entry.
    pub misses: u64,
    /// Blobs published to the store.
    pub stores: u64,
    /// Entries that existed but failed structural or semantic
    /// verification (truncated, bit-flipped, wrong fingerprint, …) and
    /// were recomputed instead.
    pub corrupt: u64,
    /// Payload bytes served by hits.
    pub bytes_read: u64,
    /// On-disk bytes written by stores.
    pub bytes_written: u64,
    /// Entries removed by LRU eviction passes.
    pub evictions: u64,
    /// `--cache-verify` recomputations that did **not** byte-match the
    /// cached blob. Always zero in a healthy run; a nonzero count
    /// aborts the sweep loudly.
    pub verify_failures: u64,
}

/// A process-shared, on-disk cache of fused shard result blobs, keyed
/// by `(shard-cache schema version, spec fingerprint, shard index)`.
///
/// The schema version is the store namespace
/// ([`SHARD_CACHE_V1`]); the fingerprint already folds
/// in the canonical spec description *and* the sharding scheme
/// ([`crate::schema::FINGERPRINT_CANONICAL`]), so any change to what a
/// shard means invalidates entries automatically — stale entries are
/// simply never looked up again.
#[derive(Debug)]
pub struct ShardCache {
    store: cas::Store,
    root: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
    stores: AtomicU64,
    corrupt: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
    evictions: AtomicU64,
    verify_failures: AtomicU64,
}

impl ShardCache {
    /// Opens (creating if needed) the shard cache rooted at `dir`.
    /// Sweeps, serve executors, and dist workers pointed at the same
    /// directory share one cache.
    ///
    /// # Errors
    ///
    /// Returns the error text if the directory cannot be created.
    pub fn open(dir: &Path) -> Result<ShardCache, String> {
        Ok(ShardCache {
            store: cas::Store::open(dir, SHARD_CACHE_V1)?,
            root: dir.to_path_buf(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            stores: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
            bytes_read: AtomicU64::new(0),
            bytes_written: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            verify_failures: AtomicU64::new(0),
        })
    }

    /// The directory entries live in (the namespaced subdirectory, not
    /// the root passed to [`ShardCache::open`]).
    pub fn dir(&self) -> PathBuf {
        self.store.dir().to_path_buf()
    }

    /// The root directory passed to [`ShardCache::open`] — what a
    /// sibling process should open to share this cache (the
    /// coordinator forwards it to spawned dist workers as
    /// `--cache ROOT`).
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn key(resolved: &ResolvedSweep, index: usize) -> String {
        format!("{:016x}/shard{index}", resolved.fingerprint)
    }

    /// Looks up the blob for shard `index` of `resolved`. Returns the
    /// verified checkpoint-text blob, or `None` (counted as a miss or,
    /// when an entry existed but failed verification, as corrupt) —
    /// the caller recomputes either way.
    pub fn blob_get(&self, resolved: &ResolvedSweep, index: usize) -> Option<String> {
        match self.store.get(&Self::key(resolved, index)) {
            cas::Lookup::Hit(blob) => {
                // Semantic check on top of the store's structural one:
                // the blob must answer for this spec. `parse_blob`
                // validates fingerprint and cell count.
                if dist::parse_blob(resolved, &blob).is_ok() {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    TM_HITS.incr();
                    self.bytes_read
                        .fetch_add(blob.len() as u64, Ordering::Relaxed);
                    Some(blob)
                } else {
                    self.corrupt.fetch_add(1, Ordering::Relaxed);
                    TM_CORRUPT.incr();
                    None
                }
            }
            cas::Lookup::Miss => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                TM_MISSES.incr();
                None
            }
            cas::Lookup::Corrupt => {
                self.corrupt.fetch_add(1, Ordering::Relaxed);
                TM_CORRUPT.incr();
                None
            }
        }
    }

    /// Publishes a freshly computed blob for shard `index`. Best
    /// effort: a full disk or permission error costs the entry, not
    /// the sweep.
    pub fn blob_put(&self, resolved: &ResolvedSweep, index: usize, blob: &str) {
        if let Ok(written) = self.store.put(&Self::key(resolved, index), blob) {
            self.stores.fetch_add(1, Ordering::Relaxed);
            TM_STORES.incr();
            self.bytes_written.fetch_add(written, Ordering::Relaxed);
        }
    }

    /// Records a `--cache-verify` byte-mismatch (the caller aborts the
    /// run after calling this).
    pub fn note_verify_failure(&self) {
        self.verify_failures.fetch_add(1, Ordering::Relaxed);
        TM_VERIFY_FAILURES.incr();
    }

    /// LRU eviction pass: shrinks the namespace to at most `max_bytes`
    /// (hits refresh recency). Runs at the end of a sweep, after
    /// publishing.
    pub fn evict_to(&self, max_bytes: u64) -> cas::Eviction {
        let pass = self.store.evict_to(max_bytes);
        self.evictions.fetch_add(pass.evicted, Ordering::Relaxed);
        TM_EVICTIONS.add(pass.evicted);
        pass
    }

    /// Total on-disk bytes of cached blobs.
    pub fn total_bytes(&self) -> u64 {
        self.store.total_bytes()
    }

    /// Snapshot of this instance's counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            stores: self.stores.load(Ordering::Relaxed),
            corrupt: self.corrupt.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            verify_failures: self.verify_failures.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SweepSpec;

    fn resolved() -> ResolvedSweep {
        let spec = SweepSpec::parse(
            "name = cache_unit\nseed = 7\ntrials = 2\ntopology = complete:16\ndensity = 0.2\nrounds = 4\nestimator = alg1\n",
        )
        .unwrap();
        spec.resolve(true).unwrap()
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "antdensity_shardcache_{tag}_{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn round_trip_counts_and_serves_verbatim() {
        let root = scratch("roundtrip");
        let cache = ShardCache::open(&root).unwrap();
        let r = resolved();
        assert_eq!(cache.blob_get(&r, 0), None);
        let blob = dist::shard_blob(&r, 0);
        cache.blob_put(&r, 0, &blob);
        assert_eq!(cache.blob_get(&r, 0).as_deref(), Some(blob.as_str()));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.stores), (1, 1, 1));
        assert_eq!(stats.bytes_read, blob.len() as u64);
        assert!(
            stats.bytes_written > blob.len() as u64,
            "entry carries a header"
        );
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn blob_for_another_spec_is_rejected_as_corrupt() {
        let root = scratch("wrongspec");
        let cache = ShardCache::open(&root).unwrap();
        let r = resolved();
        let other = SweepSpec::parse(
            "name = cache_unit_b\nseed = 8\ntrials = 2\ntopology = complete:16\ndensity = 0.2\nrounds = 4\nestimator = alg1\n",
        )
        .unwrap()
        .resolve(true)
        .unwrap();
        // Force a wrong-fingerprint entry under shard 0's key by
        // writing the other spec's blob through the raw store.
        let store = cas::Store::open(&root, SHARD_CACHE_V1).unwrap();
        let key = format!("{:016x}/shard0", r.fingerprint);
        store.put(&key, &dist::shard_blob(&other, 0)).unwrap();
        assert_eq!(cache.blob_get(&r, 0), None);
        assert_eq!(cache.stats().corrupt, 1);
        std::fs::remove_dir_all(&root).unwrap();
    }
}
