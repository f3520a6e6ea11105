//! `antdensity-telemetry` — the workspace's hand-rolled instrumentation
//! core (vendored-deps-style: std-only, offline-friendly).
//!
//! Three primitives, all registered by `&'static str` name in a
//! process-global [`Registry`](registry):
//!
//! * **Counters** ([`Counter`], [`LazyCounter`]) — monotonic `u64`s
//!   bumped with one relaxed `fetch_add`.
//! * **Duration histograms** — 64 log₂-spaced nanosecond buckets per
//!   metric, each an `AtomicU64`; recording is three relaxed RMWs and
//!   never locks. A [`HistogramTally`] is the same histogram held by
//!   one owner with plain adds, merged in with one RMW per non-empty
//!   bucket ([`SpanMetric::merge`]).
//! * **Spans** ([`SpanMetric`], [`Span`]) — RAII timers that feed the
//!   same-named histogram on drop and, when tracing is on, push a
//!   [`TraceEvent`] for Chrome/Perfetto export
//!   ([`chrome_trace_json`]).
//!
//! It also holds [`Json`], the one value model every document in the
//! workspace is written and read through (std-only, so any crate can).
//!
//! ## Cost model
//!
//! The registry mutex is touched only on first use of a name and on
//! [`snapshot`]; the hot path sees leaked `&'static` atomics. When
//! telemetry is **disabled** (the default) every entry point degrades
//! to a single `Relaxed` load of one global flag — instrumented code
//! is expected to hoist that check to coarse granularity (the engine
//! checks once per *round*, never inside the per-agent loop). Code that
//! records many times a second keeps a [`HistogramTally`] and merges it
//! at a coarse boundary: the engine tallies its rounds per engine and
//! merges once, when the engine drops. It also times only one round in
//! 16 and records it with [`HistogramTally::record_weighted_ns`], so
//! counts stay exact while a clock read is paid once per 16 rounds.
//!
//! ## Determinism guarantee
//!
//! Telemetry observes, never influences: no function here returns a
//! value that simulation code consumes, touches an RNG stream, or
//! reorders work. The golden-vector and sweep kill/resume bit-identity
//! suites run with telemetry (and tracing) fully enabled to enforce
//! this.

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod json;
pub mod registry;
pub mod span;
pub mod trace;

pub use json::Json;
pub use registry::{
    counter, duration_histogram, snapshot, Counter, HistogramSnapshot, HistogramTally, LazyCounter,
    Snapshot,
};
pub use span::{Span, SpanMetric};
pub use trace::{chrome_trace_json, set_tracing, take_trace, tracing, TraceEvent};

use std::sync::atomic::{AtomicBool, Ordering};

/// The single global on/off switch. `Relaxed` is sufficient: readers
/// only ever use it to decide whether to *observe*, never to
/// synchronize data.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns telemetry collection on or off process-wide.
///
/// Disabled is the default; in that state every instrumentation entry
/// point is a single relaxed atomic load. Metrics accumulated while
/// enabled are retained (counters are monotonic for the process
/// lifetime), so toggling never loses data.
pub fn set_enabled(enabled: bool) {
    ENABLED.store(enabled, Ordering::Relaxed);
}

/// Whether telemetry collection is currently enabled.
///
/// This is the one relaxed atomic load instrumented hot paths pay per
/// round when telemetry is off.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Unit tests in this crate toggle the process-global enable flag, so
/// every test that touches it serializes on this lock.
#[cfg(test)]
pub(crate) static TEST_FLAG_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_counter_does_not_count() {
        let _g = TEST_FLAG_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(false);
        let c = counter("test.lib.disabled");
        c.add(5);
        assert_eq!(c.get(), 0);
        set_enabled(true);
        c.add(5);
        assert_eq!(c.get(), 5);
        set_enabled(false);
    }

    #[test]
    fn span_records_into_same_named_histogram() {
        let _g = TEST_FLAG_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(true);
        static SPAN: SpanMetric = SpanMetric::new("test.lib.span");
        {
            let _s = SPAN.start();
            std::hint::black_box(1 + 1);
        }
        let snap = snapshot();
        let (_, h) = snap
            .histograms
            .iter()
            .find(|(n, _)| n == "test.lib.span")
            .expect("histogram registered");
        assert_eq!(h.count, 1);
        assert!(h.sum_ns > 0);
        set_enabled(false);
    }
}
