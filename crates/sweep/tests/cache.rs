//! Result-cache robustness: every way a cache entry can be wrong must
//! degrade to a silent recompute, never to wrong report bytes.
//!
//! The cache's correctness story is *inherited*, not engineered: a
//! shard blob is a pure function of (fingerprint, shard index), so the
//! only thing these tests have to pin is that damaged or foreign
//! entries are never served. Each scenario corrupts the store a
//! different way — truncation, a flipped bit, a blob for a different
//! spec planted under this spec's key, concurrent writers racing one
//! key — and asserts the sweep still produces bytes identical to a
//! cache-off run.

use antdensity_sweep::{
    build_report, run_sweep, DistOptions, FaultPlan, ShardCache, SweepOptions, SweepSpec,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;

const SPEC: &str = "
    name = cache_robustness
    seed = 11
    trials = 2
    topology = torus2d:8, complete:64
    density = 0.1
    rounds = 8, 16
    estimator = alg1
    ";

/// A second spec with a different fingerprint (different seed), used
/// to plant foreign blobs.
const OTHER_SPEC: &str = "
    name = cache_robustness
    seed = 12
    trials = 2
    topology = torus2d:8, complete:64
    density = 0.1
    rounds = 8, 16
    estimator = alg1
    ";

fn tmp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("antdensity_cache_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Report bytes of a cache-off run — the reference every scenario's
/// output must match exactly.
fn reference_bytes(spec: &SweepSpec) -> (String, String) {
    let outcome = run_sweep(spec, &SweepOptions::default()).expect("reference sweep runs");
    let report = build_report(&outcome);
    (report.to_json(), report.to_csv())
}

fn run_with_cache(spec: &SweepSpec, cache: &Arc<ShardCache>) -> (String, String) {
    let opts = SweepOptions {
        cache: Some(Arc::clone(cache)),
        ..SweepOptions::default()
    };
    let outcome = run_sweep(spec, &opts).expect("cached sweep runs");
    let report = build_report(&outcome);
    (report.to_json(), report.to_csv())
}

/// Every `.cas` entry file currently in the store.
fn entry_files(cache: &ShardCache) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(cache.dir())
        .expect("cache dir exists")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "cas"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "populated cache has entry files");
    files
}

/// Populates a fresh cache at `root` by running the sweep once, then
/// hands each entry file to `damage`, reruns, and asserts the rerun
/// recomputed (no hits served from the damaged entries) with bytes
/// identical to the cache-off reference.
fn corruption_falls_back(tag: &str, damage: impl Fn(&Path)) {
    let spec = SweepSpec::parse(SPEC).expect("spec parses");
    let reference = reference_bytes(&spec);
    let root = tmp_root(tag);

    let cache = Arc::new(ShardCache::open(&root).expect("cache opens"));
    assert_eq!(run_with_cache(&spec, &cache), reference);
    let stats = cache.stats();
    assert_eq!(stats.hits, 0);
    assert!(stats.stores > 0, "cold run publishes its shards");

    for file in entry_files(&cache) {
        damage(&file);
    }

    // A fresh handle: counters start at zero, the store is the damaged
    // directory.
    let cache = Arc::new(ShardCache::open(&root).expect("cache reopens"));
    assert_eq!(run_with_cache(&spec, &cache), reference);
    let stats = cache.stats();
    assert_eq!(stats.hits, 0, "damaged entries must never be served");
    assert!(
        stats.corrupt > 0 || stats.misses > 0,
        "damage surfaces as corrupt or miss, never as a hit"
    );

    // The recompute republished; a third run is all hits.
    let cache = Arc::new(ShardCache::open(&root).expect("cache reopens"));
    assert_eq!(run_with_cache(&spec, &cache), reference);
    let stats = cache.stats();
    assert_eq!(stats.misses + stats.corrupt, 0);
    assert!(stats.hits > 0, "repaired store serves every shard");

    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn truncated_blob_falls_back_to_recompute() {
    corruption_falls_back("truncated", |file| {
        let text = std::fs::read(file).expect("entry readable");
        std::fs::write(file, &text[..text.len() / 2]).expect("truncate");
    });
}

#[test]
fn bit_flipped_blob_falls_back_to_recompute() {
    corruption_falls_back("bitflip", |file| {
        let mut bytes = std::fs::read(file).expect("entry readable");
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01; // payload tail: caught by the checksum
        std::fs::write(file, bytes).expect("rewrite");
    });
}

#[test]
fn wrong_fingerprint_entry_is_rejected_not_served() {
    // Plant, under this spec's entry files, blobs computed for a
    // *different* spec (same shape, different seed). The stored
    // checksums are made internally consistent — `repair`ing the entry
    // is not what saves us; the blob's embedded fingerprint is.
    let other = SweepSpec::parse(OTHER_SPEC).expect("other spec parses");
    let other_root = tmp_root("wrongfp_other");
    let other_cache = Arc::new(ShardCache::open(&other_root).expect("cache opens"));
    run_with_cache(&other, &other_cache);
    let foreign = entry_files(&other_cache);

    corruption_falls_back("wrongfp", |file| {
        // Overwrite the whole entry with a (valid, self-consistent)
        // entry belonging to the other spec: the CAS layer's key check
        // flags it as corrupt before the blob is ever parsed.
        std::fs::copy(&foreign[0], file).expect("plant foreign entry");
    });

    let _ = std::fs::remove_dir_all(&other_root);
}

#[test]
fn concurrent_writers_racing_one_key_never_tear() {
    let spec = SweepSpec::parse(SPEC).expect("spec parses");
    let reference = reference_bytes(&spec);
    let root = tmp_root("race");

    // Eight threads run the identical sweep against one shared store
    // simultaneously: every shard key is raced by every thread, mixing
    // hits, misses, and concurrent puts of the same entry.
    std::thread::scope(|scope| {
        for _ in 0..8 {
            let spec = &spec;
            let reference = &reference;
            let root = &root;
            scope.spawn(move || {
                let cache = Arc::new(ShardCache::open(root).expect("cache opens"));
                for _ in 0..3 {
                    assert_eq!(&run_with_cache(spec, &cache), reference);
                }
            });
        }
    });

    // No temp-file litter and a now-fully-warm store.
    let cache = Arc::new(ShardCache::open(&root).expect("cache reopens"));
    for entry in std::fs::read_dir(cache.dir()).expect("cache dir exists") {
        let path = entry.expect("dir entry").path();
        assert!(
            path.extension().is_some_and(|x| x == "cas"),
            "unexpected file in cache dir: {}",
            path.display()
        );
    }
    assert_eq!(run_with_cache(&spec, &cache), reference);
    let stats = cache.stats();
    assert!(stats.hits > 0);
    assert_eq!(stats.misses + stats.corrupt, 0);

    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn warm_rerun_is_byte_identical_and_all_hits() {
    let spec = SweepSpec::parse(SPEC).expect("spec parses");
    let reference = reference_bytes(&spec);
    let root = tmp_root("warm");

    let cache = Arc::new(ShardCache::open(&root).expect("cache opens"));
    assert_eq!(run_with_cache(&spec, &cache), reference);
    let cold = cache.stats();
    assert_eq!(cold.hits, 0);
    assert_eq!(
        cold.stores as usize,
        spec.resolve(false).unwrap().fused.len()
    );

    let cache = Arc::new(ShardCache::open(&root).expect("cache reopens"));
    assert_eq!(run_with_cache(&spec, &cache), reference);
    let warm = cache.stats();
    assert_eq!(warm.misses, 0);
    assert_eq!(warm.hits, cold.stores, "every shard served from disk");

    // --cache-verify on a healthy store: recomputes, byte-compares,
    // still succeeds, still counts the hits.
    let cache = Arc::new(ShardCache::open(&root).expect("cache reopens"));
    let opts = SweepOptions {
        cache: Some(Arc::clone(&cache)),
        cache_verify: true,
        ..SweepOptions::default()
    };
    let outcome = run_sweep(&spec, &opts).expect("verify sweep runs");
    let report = build_report(&outcome);
    assert_eq!((report.to_json(), report.to_csv()), reference);
    let verified = cache.stats();
    assert_eq!(verified.hits, cold.stores);
    assert_eq!(verified.verify_failures, 0);

    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn cache_verify_aborts_on_a_forged_consistent_entry() {
    // Forge an entry that passes every CAS-layer check (we rewrite it
    // through the store itself) but whose payload is a doctored blob.
    // Plain reads would serve it if the blob still parses under the
    // right fingerprint — `--cache-verify` is the mode that catches
    // exactly this, by recomputing and byte-comparing.
    let spec = SweepSpec::parse(SPEC).expect("spec parses");
    let root = tmp_root("forge");
    let cache = Arc::new(ShardCache::open(&root).expect("cache opens"));
    run_with_cache(&spec, &cache);

    // Doctor one stored blob via the text layer: flip the last mantissa
    // digit of an `est` line's mean (floats are stored as f64 hex bits)
    // so the blob still parses cleanly with the correct fingerprint,
    // cell count, and histogram invariants — only the statistics lie.
    let file = entry_files(&cache).remove(0);
    let text = std::fs::read_to_string(&file).expect("entry readable");
    let est = text.find("\nest ").expect("blob has an est line") + 1;
    let mean_end = est
        + text[est..]
            .splitn(4, ' ')
            .take(3)
            .map(|f| f.len() + 1)
            .sum::<usize>()
        - 1;
    let mut forged: Vec<u8> = text.into_bytes();
    forged[mean_end - 1] = if forged[mean_end - 1] == b'7' {
        b'8'
    } else {
        b'7'
    };
    // Re-store the doctored entry through the CAS rules: read the
    // original key from line 2, then re-put the doctored payload.
    let forged = String::from_utf8(forged).expect("still utf-8");
    let mut lines = forged.splitn(3, '\n');
    let _header = lines.next().expect("header line");
    let key = lines.next().expect("key line").to_string();
    let payload = lines.next().expect("payload").to_string();
    let store =
        antdensity_cas::Store::open(&root, antdensity_sweep::schema::SHARD_CACHE_V1).unwrap();
    store.put(&key, &payload).expect("forged put");

    let opts = SweepOptions {
        cache: Some(Arc::new(ShardCache::open(&root).expect("cache reopens"))),
        cache_verify: true,
        ..SweepOptions::default()
    };
    let err = run_sweep(&spec, &opts).expect_err("verify must refuse the forged entry");
    assert!(err.contains("cache-verify"), "{err}");

    let _ = std::fs::remove_dir_all(&root);
}

/// `cache_cap` is the driver's, so it holds on every executor: a
/// 1-byte cap evicts every entry the run published, whether the pool
/// or the simulated transport's virtual workers (which share the
/// coordinator's cache, as spawned children do) ran the shards.
#[test]
fn one_byte_cap_evicts_on_the_sim_transport_as_in_process() {
    let spec = SweepSpec::parse(SPEC).expect("spec parses");
    let reference = reference_bytes(&spec);
    let shards = spec.resolve(false).unwrap().fused.len() as u64;
    let mut runs = Vec::new();
    for (tag, dist) in [
        ("cap_inproc", None),
        ("cap_sim", Some(DistOptions::sim(2, FaultPlan::none()))),
    ] {
        let root = tmp_root(tag);
        let cache = Arc::new(ShardCache::open(&root).expect("cache opens"));
        let opts = SweepOptions {
            cache: Some(Arc::clone(&cache)),
            cache_cap: Some(1),
            dist,
            ..SweepOptions::default()
        };
        let outcome = run_sweep(&spec, &opts).expect("capped sweep runs");
        let report = build_report(&outcome);
        assert_eq!((report.to_json(), report.to_csv()), reference, "{tag}");
        let stats = cache.stats();
        assert_eq!(stats.stores, shards, "{tag}: every shard published");
        assert_eq!(stats.evictions, shards, "{tag}: the cap evicts them all");
        assert_eq!(cache.total_bytes(), 0, "{tag}");
        runs.push(stats);
        let _ = std::fs::remove_dir_all(&root);
    }
    assert_eq!(runs[0], runs[1]);
}
