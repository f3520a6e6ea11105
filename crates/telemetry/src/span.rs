//! RAII span timers.
//!
//! A [`SpanMetric`] is declared once per instrumentation site as a
//! `static`; [`SpanMetric::start`] returns a [`Span`] guard that, on
//! drop, records the elapsed nanoseconds into the same-named duration
//! histogram and — when tracing is active — pushes a complete
//! (`"ph": "X"`) Chrome trace event on the calling thread's lane.
//!
//! When telemetry is disabled `start` costs one relaxed load and the
//! guard is inert (no `Instant::now`, no drop work).

use crate::registry::{duration_histogram, DurationHistogram};
use crate::trace;
use std::sync::OnceLock;
use std::time::Instant;

/// A named span declared at an instrumentation site.
#[derive(Debug)]
pub struct SpanMetric {
    name: &'static str,
    histo: OnceLock<DurationHistogram>,
}

impl SpanMetric {
    /// Creates the (unresolved) metric; `const` so it can live in a
    /// `static`.
    pub const fn new(name: &'static str) -> Self {
        Self {
            name,
            histo: OnceLock::new(),
        }
    }

    /// The metric's name, as it appears in snapshots and traces.
    pub fn name(&self) -> &'static str {
        self.name
    }

    fn histogram(&self) -> DurationHistogram {
        *self.histo.get_or_init(|| duration_histogram(self.name))
    }

    /// Starts a timed span. Inert (one relaxed load, no clock read)
    /// when telemetry is disabled.
    #[inline]
    pub fn start(&'static self) -> Span {
        if crate::enabled() {
            Span {
                live: Some(LiveSpan {
                    metric: self,
                    start: Instant::now(),
                    args: Vec::new(),
                }),
            }
        } else {
            Span { live: None }
        }
    }

    /// Records an externally measured duration into this span's
    /// histogram only — no trace event even when tracing is active.
    /// For high-frequency metrics (e.g. pool queue wait) where a trace
    /// event per record would swamp the viewer. No-op when telemetry
    /// is disabled.
    pub fn record_duration_ns(&'static self, ns: u64) {
        if crate::enabled() {
            self.histogram().record_ns(ns);
        }
    }

    /// Records an externally measured interval: `dur_ns` into the
    /// histogram and, when tracing, a trace event laid `offset_ns`
    /// after `anchor` with the given viewer arguments. Used for
    /// accumulated sub-phase totals (e.g. RNG-draw vs `apply_moves`
    /// time within one round) that are not single contiguous
    /// intervals, and for spans whose arguments are only known at the
    /// end. No-op when telemetry is disabled.
    pub fn record_interval_at(
        &'static self,
        anchor: Instant,
        offset_ns: u64,
        dur_ns: u64,
        args: &[(&'static str, f64)],
    ) {
        if !crate::enabled() {
            return;
        }
        self.histogram().record_ns(dur_ns);
        if trace::tracing() {
            trace::push_event(self.name, anchor, offset_ns, dur_ns, args);
        }
    }
}

#[derive(Debug)]
struct LiveSpan {
    metric: &'static SpanMetric,
    start: Instant,
    args: Vec<(&'static str, f64)>,
}

/// The RAII guard returned by [`SpanMetric::start`].
#[derive(Debug)]
#[must_use = "a span measures the scope it is bound to; binding to _ drops it immediately"]
pub struct Span {
    live: Option<LiveSpan>,
}

impl Span {
    /// Attaches a numeric argument shown in the trace viewer (ignored
    /// by the histogram). No-op on an inert span.
    pub fn arg(&mut self, key: &'static str, value: f64) {
        if let Some(live) = &mut self.live {
            live.args.push((key, value));
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(live) = self.live.take() else {
            return;
        };
        let ns = u64::try_from(live.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        live.metric.histogram().record_ns(ns);
        if trace::tracing() {
            trace::push_event(live.metric.name, live.start, 0, ns, &live.args);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_span_is_inert() {
        let _g = crate::TEST_FLAG_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        crate::set_enabled(false);
        static SPAN: SpanMetric = SpanMetric::new("test.span.inert");
        {
            let mut s = SPAN.start();
            s.arg("ignored", 1.0);
        }
        let snap = crate::snapshot();
        // Either never registered, or registered with zero records.
        if let Some(h) = snap.histogram("test.span.inert") {
            assert_eq!(h.count, 0);
        }
    }

    #[test]
    fn accumulated_record_feeds_histogram() {
        let _g = crate::TEST_FLAG_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        crate::set_enabled(true);
        static SPAN: SpanMetric = SpanMetric::new("test.span.accum");
        SPAN.record_duration_ns(1234);
        SPAN.record_interval_at(Instant::now(), 10, 56, &[("k", 1.0)]);
        let snap = crate::snapshot();
        let h = snap.histogram("test.span.accum").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.sum_ns, 1234 + 56);
        crate::set_enabled(false);
    }
}
