//! The process-global metric registry: named counters and log-bucketed
//! duration histograms.
//!
//! Registration (first use of a name) takes a `Mutex` over a `BTreeMap`
//! and leaks the metric's storage, handing back `&'static` atomics;
//! everything after that — increments, histogram records, reads — is
//! lock-free. [`snapshot`] re-takes the mutex to walk the maps, so
//! snapshots are cheap but not free; they are meant for end-of-run
//! metrics files and progress lines, not per-agent loops.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Number of log₂ nanosecond buckets per duration histogram. Bucket
/// `i` holds durations in `[2^i, 2^{i+1})` ns (bucket 0 also takes 0),
/// so 64 buckets cover every representable `u64` duration — about 584
/// years at the top end.
pub const HISTOGRAM_BUCKETS: usize = 64;

struct HistoStorage {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
}

static COUNTERS: Mutex<BTreeMap<&'static str, &'static AtomicU64>> = Mutex::new(BTreeMap::new());
static HISTOGRAMS: Mutex<BTreeMap<&'static str, &'static HistoStorage>> =
    Mutex::new(BTreeMap::new());

/// A handle to a named monotonic counter.
///
/// Copyable and `'static`; increments are a single relaxed `fetch_add`
/// when telemetry is enabled and a single relaxed flag load when it is
/// not.
#[derive(Debug, Clone, Copy)]
pub struct Counter(&'static AtomicU64);

impl Counter {
    /// Adds `v` if telemetry is enabled; otherwise a no-op.
    #[inline]
    pub fn add(&self, v: u64) {
        if crate::enabled() {
            self.add_unconditional(v);
        }
    }

    /// Adds 1 if telemetry is enabled; otherwise a no-op.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Adds `v` without re-checking the global enable flag — for call
    /// sites that already branched on [`crate::enabled`] once for a
    /// whole batch of records.
    #[inline]
    pub fn add_unconditional(&self, v: u64) {
        self.0.fetch_add(v, Ordering::Relaxed);
    }

    /// Current value (relaxed load). Per-location coherence makes
    /// repeated `get`s on one counter monotone non-decreasing.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Looks up or registers the counter named `name`.
pub fn counter(name: &'static str) -> Counter {
    let mut map = COUNTERS.lock().expect("counter registry poisoned");
    let cell = map
        .entry(name)
        .or_insert_with(|| Box::leak(Box::new(AtomicU64::new(0))));
    Counter(cell)
}

/// A call-site cache for [`counter`]: `static C: LazyCounter =
/// LazyCounter::new("name");` resolves the registry entry on first use
/// and never touches the mutex again.
#[derive(Debug)]
pub struct LazyCounter {
    name: &'static str,
    cell: OnceLock<Counter>,
}

impl LazyCounter {
    /// Creates the (unresolved) handle; `const` so it can live in a
    /// `static` at the instrumentation site.
    pub const fn new(name: &'static str) -> Self {
        Self {
            name,
            cell: OnceLock::new(),
        }
    }

    /// The resolved registry-backed counter.
    #[inline]
    pub fn handle(&self) -> Counter {
        *self.cell.get_or_init(|| counter(self.name))
    }

    /// Adds `v` if telemetry is enabled; otherwise one relaxed load.
    #[inline]
    pub fn add(&self, v: u64) {
        if crate::enabled() {
            self.handle().add_unconditional(v);
        }
    }

    /// Adds 1 if telemetry is enabled.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value (0 if never touched).
    pub fn get(&self) -> u64 {
        self.handle().get()
    }
}

/// A handle to a named log₂-bucketed duration histogram.
#[derive(Debug, Clone, Copy)]
pub struct DurationHistogram(&'static HistoStorage);

impl std::fmt::Debug for HistoStorage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HistoStorage")
            .field("count", &self.count.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

#[inline]
fn bucket_index(ns: u64) -> usize {
    if ns == 0 {
        0
    } else {
        ns.ilog2() as usize
    }
}

impl DurationHistogram {
    /// Records one duration of `ns` nanoseconds (three relaxed RMWs).
    /// Does **not** check the enable flag: span guards only exist when
    /// telemetry was enabled at their creation.
    #[inline]
    pub fn record_ns(&self, ns: u64) {
        self.0.buckets[bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Adds every duration `tally` holds: one relaxed RMW per non-empty
    /// bucket, then the count and the sum. Like [`Self::record_ns`] it
    /// does not check the enable flag.
    pub fn merge(&self, tally: &HistogramTally) {
        for (cell, &n) in self.0.buckets.iter().zip(&tally.buckets) {
            if n > 0 {
                cell.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.0.count.fetch_add(tally.count, Ordering::Relaxed);
        self.0.sum_ns.fetch_add(tally.sum_ns, Ordering::Relaxed);
    }
}

/// A single-owner duration histogram with the registry's log₂ buckets,
/// recorded with plain adds. A hot loop that records many durations
/// keeps one of these and folds it into the shared histogram once with
/// [`crate::SpanMetric::merge`], instead of paying three RMWs on shared
/// cache lines per record.
#[derive(Debug)]
pub struct HistogramTally {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum_ns: u64,
}

impl Default for HistogramTally {
    fn default() -> Self {
        Self::new()
    }
}

impl HistogramTally {
    /// An empty tally.
    pub const fn new() -> Self {
        Self {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum_ns: 0,
        }
    }

    /// Records one duration of `ns` nanoseconds.
    #[inline]
    pub fn record_ns(&mut self, ns: u64) {
        self.record_weighted_ns(ns, 1);
    }

    /// Records a duration of `ns` nanoseconds that stands for `weight`
    /// durations: a sampled measurement that represents the unmeasured
    /// intervals beside it. Adds `weight` to the count and to `ns`'s
    /// bucket, and `ns · weight` to the sum.
    #[inline]
    pub fn record_weighted_ns(&mut self, ns: u64, weight: u64) {
        self.buckets[bucket_index(ns)] += weight;
        self.count += weight;
        self.sum_ns = self.sum_ns.wrapping_add(ns.wrapping_mul(weight));
    }

    /// Durations recorded so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of the durations recorded so far, nanoseconds.
    pub fn sum_ns(&self) -> u64 {
        self.sum_ns
    }
}

/// Looks up or registers the duration histogram named `name`.
pub fn duration_histogram(name: &'static str) -> DurationHistogram {
    let mut map = HISTOGRAMS.lock().expect("histogram registry poisoned");
    let cell = map.entry(name).or_insert_with(|| {
        Box::leak(Box::new(HistoStorage {
            buckets: [const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS],
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
        }))
    });
    DurationHistogram(cell)
}

/// A point-in-time copy of one duration histogram.
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    /// Total recorded durations.
    pub count: u64,
    /// Sum of all recorded durations, nanoseconds.
    pub sum_ns: u64,
    /// Per-bucket counts; bucket `i` covers `[2^i, 2^{i+1})` ns.
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Mean recorded duration in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64
        }
    }

    /// Approximate `q`-quantile in nanoseconds, `0.0 <= q <= 1.0`,
    /// linearly interpolated inside the containing log₂ bucket.
    /// Returns 0 for an empty histogram.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target observation, 1-based, in [1, count].
        let rank = (q * self.count as f64).max(1.0).min(self.count as f64);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let next = seen + c;
            if rank <= next as f64 {
                let lo = if i == 0 { 0.0 } else { (1u64 << i) as f64 };
                let hi = (1u128 << (i + 1)) as f64;
                let frac = (rank - seen as f64) / c as f64;
                return lo + (hi - lo) * frac;
            }
            seen = next;
        }
        // Unreachable when count == sum(buckets); defensive fallback.
        (1u128 << HISTOGRAM_BUCKETS) as f64
    }
}

/// A point-in-time copy of every registered metric, names sorted.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// `(name, value)` for every registered counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, histogram)` for every registered duration histogram.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl Snapshot {
    /// Value of the named counter in this snapshot (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// The named histogram in this snapshot, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }
}

/// Copies every registered metric. Counter values are monotone across
/// successive snapshots (each cell is only ever `fetch_add`ed), which
/// the property tests pin down under concurrent writers.
pub fn snapshot() -> Snapshot {
    let counters = COUNTERS
        .lock()
        .expect("counter registry poisoned")
        .iter()
        .map(|(name, cell)| (name.to_string(), cell.load(Ordering::Relaxed)))
        .collect();
    let histograms = HISTOGRAMS
        .lock()
        .expect("histogram registry poisoned")
        .iter()
        .map(|(name, h)| {
            // Read `count` last: it was bumped after the bucket on the
            // write side, so `sum(buckets) >= count` can transiently
            // fail but never by more than in-flight writers.
            let buckets: Vec<u64> = h
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect();
            let snap = HistogramSnapshot {
                count: h.count.load(Ordering::Relaxed),
                sum_ns: h.sum_ns.load(Ordering::Relaxed),
                buckets,
            };
            (name.to_string(), snap)
        })
        .collect();
    Snapshot {
        counters,
        histograms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(1024), 10);
        assert_eq!(bucket_index(u64::MAX), 63);
    }

    #[test]
    fn same_name_same_cell() {
        let _g = crate::TEST_FLAG_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        crate::set_enabled(true);
        let a = counter("test.registry.same");
        let b = counter("test.registry.same");
        a.add(2);
        b.add(3);
        assert_eq!(a.get(), 5);
        assert_eq!(b.get(), 5);
        crate::set_enabled(false);
    }

    #[test]
    fn histogram_quantiles_interpolate() {
        let h = duration_histogram("test.registry.quant");
        for _ in 0..100 {
            h.record_ns(1000); // bucket 9: [512, 1024)
        }
        let snap = snapshot();
        let hs = snap.histogram("test.registry.quant").unwrap();
        assert_eq!(hs.count, 100);
        assert_eq!(hs.sum_ns, 100_000);
        let p50 = hs.quantile_ns(0.5);
        assert!((512.0..1024.0).contains(&p50), "p50 = {p50}");
        assert!(hs.quantile_ns(0.0) <= hs.quantile_ns(1.0));
        assert!((hs.mean_ns() - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn merged_tally_equals_direct_records() {
        let durations = [0u64, 1, 3, 700, 700, 1 << 40, u64::MAX];
        let direct = duration_histogram("test.registry.direct");
        let merged = duration_histogram("test.registry.merged");
        let mut tally = HistogramTally::new();
        for &ns in &durations {
            direct.record_ns(ns);
            tally.record_ns(ns);
        }
        assert_eq!(tally.count(), durations.len() as u64);
        merged.merge(&tally);
        merged.merge(&HistogramTally::new());
        let snap = snapshot();
        let (a, b) = (
            snap.histogram("test.registry.direct").unwrap(),
            snap.histogram("test.registry.merged").unwrap(),
        );
        assert_eq!((a.count, a.sum_ns), (b.count, b.sum_ns));
        assert_eq!(a.buckets, b.buckets);
    }

    #[test]
    fn weighted_record_equals_repeated_records() {
        let repeated = duration_histogram("test.registry.repeated");
        let weighted = duration_histogram("test.registry.weighted");
        let mut tally = HistogramTally::new();
        for (ns, weight) in [(700u64, 16u64), (3, 1), (1 << 40, 8)] {
            for _ in 0..weight {
                repeated.record_ns(ns);
            }
            tally.record_weighted_ns(ns, weight);
        }
        assert_eq!(tally.count(), 25);
        assert_eq!(tally.sum_ns(), 700 * 16 + 3 + (1 << 40) * 8);
        weighted.merge(&tally);
        let snap = snapshot();
        let (a, b) = (
            snap.histogram("test.registry.repeated").unwrap(),
            snap.histogram("test.registry.weighted").unwrap(),
        );
        assert_eq!((a.count, a.sum_ns), (b.count, b.sum_ns));
        assert_eq!(a.buckets, b.buckets);
    }

    #[test]
    fn empty_histogram_quantile_is_zero() {
        let _ = duration_histogram("test.registry.empty");
        let snap = snapshot();
        let hs = snap.histogram("test.registry.empty").unwrap();
        assert_eq!(hs.quantile_ns(0.5), 0.0);
        assert_eq!(hs.mean_ns(), 0.0);
    }
}
