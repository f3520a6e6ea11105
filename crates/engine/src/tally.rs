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
//!
//! Reading the clock costs ~30–40 ns, a fifth of a 20-agent round, so
//! the tally also decides which rounds to time: the first round it
//! counts, then from the second round one in every [`SAMPLE_EVERY`] of
//! its own count. A timed round's phase durations stand for every round
//! up to the next timed one (or up to the merge), and are recorded with
//! that weight. The first round stands only for itself: it pays the
//! engine's one-time set-up (buffer growth, cold caches), ~70–90 ns
//! more than a later round, which at weight 16 read a 16-round,
//! 21-agent run's sum 26% high. Round and agent-step counters and every
//! span's record count stay exact; span sums and buckets are estimates
//! of what a timed round costs. A timed round pays the clock reads
//! inside its spans (about one per phase) and an untimed one does not,
//! so at 21 agents `engine.round`'s sum read 1.54–1.57x the wall time
//! of the same rounds, and within ~10% of it from 128 agents up. With
//! trace capture on, every round is timed, so each one gets its own
//! trace event.

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

/// From its second round on, a tally times one round in this many of
/// its own count. Rounds in between are counted, not timed.
const SAMPLE_EVERY: u64 = 16;

/// Plain per-engine accumulators for [`RoundMetrics`], merged on drop.
pub(crate) struct RoundTally<const N: usize> {
    metrics: &'static RoundMetrics<N>,
    rounds: u64,
    agent_steps: u64,
    spans: [HistogramTally; N],
    /// The phase durations of the last timed round, recorded into the
    /// spans only once its weight is known.
    sample: [u64; N],
    /// The phases `sample` holds: bit `i` for span `i`.
    phases: u32,
    /// Rounds `sample` stands for: its own and the untimed ones after
    /// it (0 before the first timed round).
    weight: u64,
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
            sample: [0; N],
            phases: 0,
            weight: 0,
        }
    }

    /// Whether to time the next round, whose phases are `phases` (bit
    /// `i` for span `i`): it is the tally's first or second round or its
    /// turn in [`SAMPLE_EVERY`] after that, its phases differ from the
    /// held sample's (so a sample never stands for a round with other
    /// phases), or trace capture is on.
    #[inline]
    pub fn times_next(&self, phases: u32) -> bool {
        self.rounds % SAMPLE_EVERY == 1
            || self.rounds == 0
            || phases != self.phases
            || antdensity_telemetry::tracing()
    }

    /// Counts one untimed round of `agents` agent-steps: the held
    /// sample stands for it.
    #[inline]
    pub fn count_round(&mut self, agents: u64) {
        self.rounds += 1;
        self.agent_steps += agents;
        self.weight += 1;
    }

    /// Counts one timed round of `agents` agent-steps and makes its
    /// durations the held sample: `ns[i]` for each span `i` in
    /// `phases` (the others are ignored). The previous sample is
    /// recorded with its weight first.
    pub fn record_round(&mut self, agents: u64, phases: u32, ns: [u64; N]) {
        self.flush();
        self.sample = ns;
        self.phases = phases;
        self.count_round(agents);
    }

    /// Records the held sample into its spans with its weight.
    fn flush(&mut self) {
        if self.weight == 0 {
            return;
        }
        for (i, (span, &ns)) in self.spans.iter_mut().zip(&self.sample).enumerate() {
            if self.phases & (1 << i) != 0 {
                span.record_weighted_ns(ns, self.weight);
            }
        }
        self.weight = 0;
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
        self.flush();
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

#[cfg(test)]
mod tests {
    use super::*;
    use antdensity_telemetry::LazyCounter;

    static METRICS: RoundMetrics<2> = RoundMetrics {
        rounds: LazyCounter::new("test.tally.rounds"),
        agent_steps: LazyCounter::new("test.tally.agent_steps"),
        spans: [
            SpanMetric::new("test.tally.round"),
            SpanMetric::new("test.tally.split"),
        ],
    };
    const BOTH: u32 = 0b11;
    const ROUND_ONLY: u32 = 0b01;

    /// Steps `tally` through rounds of the given phases, timing a round
    /// as an engine does; a round timed at count `r` lasts `1000 + r` ns
    /// in span 0 and `r` ns in span 1. Returns the counts it timed.
    fn drive(tally: &mut RoundTally<2>, phases: &[u32]) -> Vec<u64> {
        let mut timed = Vec::new();
        for &p in phases {
            let r = tally.rounds;
            if tally.times_next(p) {
                timed.push(r);
                tally.record_round(3, p, [1000 + r, r]);
            } else {
                tally.count_round(3);
            }
        }
        tally.flush();
        timed
    }

    #[test]
    fn timed_rounds_stand_for_the_rounds_after_them() {
        let mut tally = RoundTally::new(&METRICS);
        assert_eq!(drive(&mut tally, &[BOTH; 40]), [0, 1, 17, 33]);
        assert_eq!((tally.rounds, tally.agent_steps), (40, 120));
        // Weights 1, 16, 16 and 7.
        let [round, split] = &tally.spans;
        assert_eq!(round.count(), 40);
        assert_eq!(round.sum_ns(), 1000 + 1001 * 16 + 1017 * 16 + 1033 * 7);
        assert_eq!(split.count(), 40);
        assert_eq!(split.sum_ns(), 16 + 17 * 16 + 33 * 7);
    }

    #[test]
    fn a_change_of_phases_is_timed() {
        let mut tally = RoundTally::new(&METRICS);
        let phases = [[BOTH; 10], [ROUND_ONLY; 10]].concat();
        assert_eq!(drive(&mut tally, &phases), [0, 1, 10, 17]);
        let [round, split] = &tally.spans;
        assert_eq!(round.count(), 20);
        assert_eq!(split.count(), 10);
        assert_eq!(split.sum_ns(), 9);
        assert_eq!(round.sum_ns(), 1000 + 1001 * 9 + 1010 * 7 + 1017 * 3);
    }

    #[test]
    fn a_clone_times_its_first_two_rounds() {
        let mut tally = RoundTally::new(&METRICS);
        drive(&mut tally, &[BOTH; 5]);
        let mut copy = tally.clone();
        assert_eq!(drive(&mut copy, &[BOTH; 3]), [0, 1]);
        assert_eq!(copy.spans[0].count(), 3);
    }
}
