//! Engine-owned round telemetry.
//!
//! A round of a small population takes about a microsecond, so
//! recording it straight into the process-global registry (three
//! relaxed RMWs per histogram on cache lines every pool worker writes)
//! would cost as much as the round. Each engine instead keeps a
//! [`RoundTally`]: plain counters and [`HistogramTally`]s, recorded
//! with ordinary adds, merged into the registry once when the engine
//! drops — once per trial in [`crate::Scenario`]. A cloned engine
//! starts with an empty tally, so no round is counted twice.

use antdensity_telemetry::{HistogramTally, LazyCounter, SpanMetric};

/// The registry metrics one engine kind merges its tally into: two
/// counters and `N` span histograms.
#[derive(Debug)]
pub(crate) struct RoundMetrics<const N: usize> {
    /// Rounds stepped while telemetry was on.
    pub rounds: LazyCounter,
    /// Agent-steps of those rounds.
    pub agent_steps: LazyCounter,
    /// One span per timed phase of a round.
    pub spans: [SpanMetric; N],
}

/// Plain per-engine accumulators for [`RoundMetrics`], merged on drop.
pub(crate) struct RoundTally<const N: usize> {
    metrics: &'static RoundMetrics<N>,
    rounds: u64,
    agent_steps: u64,
    spans: [HistogramTally; N],
}

impl<const N: usize> RoundTally<N> {
    /// An empty tally that merges into `metrics`. With telemetry on,
    /// the metrics are registered now, while the engine's buffers are
    /// live: registering them at the first merge put the registry's
    /// leaked entries in the heap after the engine had freed its
    /// buffers, which left about 1 MiB more resident on a 65,536-agent
    /// sweep.
    pub fn new(metrics: &'static RoundMetrics<N>) -> Self {
        if antdensity_telemetry::enabled() {
            metrics.rounds.handle();
            metrics.agent_steps.handle();
            for span in &metrics.spans {
                span.handle();
            }
        }
        Self {
            metrics,
            rounds: 0,
            agent_steps: 0,
            spans: [const { HistogramTally::new() }; N],
        }
    }

    /// Counts one round of `agents` agent-steps.
    #[inline]
    pub fn count_round(&mut self, agents: u64) {
        self.rounds += 1;
        self.agent_steps += agents;
    }

    /// Records `ns` into span `span`.
    #[inline]
    pub fn record_ns(&mut self, span: usize, ns: u64) {
        self.spans[span].record_ns(ns);
    }

    /// The registry span `span` merges into (and traces under).
    pub fn span(&self, span: usize) -> &'static SpanMetric {
        &self.metrics.spans[span]
    }
}

impl<const N: usize> Clone for RoundTally<N> {
    /// An empty tally: the rounds belong to the engine that stepped them.
    fn clone(&self) -> Self {
        Self::new(self.metrics)
    }
}

impl<const N: usize> Drop for RoundTally<N> {
    fn drop(&mut self) {
        if self.rounds == 0 {
            return;
        }
        let m = self.metrics;
        m.rounds.handle().add_unconditional(self.rounds);
        m.agent_steps.handle().add_unconditional(self.agent_steps);
        for (metric, tally) in m.spans.iter().zip(&self.spans) {
            metric.merge(tally);
        }
    }
}

impl<const N: usize> std::fmt::Debug for RoundTally<N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RoundTally")
            .field("rounds", &self.rounds)
            .field("agent_steps", &self.agent_steps)
            .finish_non_exhaustive()
    }
}

/// Nanoseconds from `from` to `to`, saturating.
#[inline]
pub(crate) fn ns_between(from: std::time::Instant, to: std::time::Instant) -> u64 {
    u64::try_from(to.saturating_duration_since(from).as_nanos()).unwrap_or(u64::MAX)
}

/// The throughput argument a round's trace event carries.
pub(crate) fn msteps_per_sec(agents: u64, ns: u64) -> f64 {
    if ns > 0 {
        agents as f64 * 1e3 / ns as f64
    } else {
        0.0
    }
}
