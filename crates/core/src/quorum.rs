//! Quorum sensing: density-threshold detection.
//!
//! Section 6.2 of the paper: "in many of the above biological
//! applications, such as in quorum sensing for decision making in ant
//! colonies, agents only need to detect when d is above some fixed
//! threshold." *Temnothorax* scouts commit to a nest site when the scout
//! density there crosses a quorum (Pratt 2005, the paper's \[Pra05\]).
//!
//! [`QuorumSensor`] implements an adaptive sequential test on top of
//! Algorithm 1: each agent keeps walking and accumulating collisions; at
//! geometrically spaced checkpoints `t = 2^k` it compares its running
//! estimate `d̃ = c/t` against the threshold with a Theorem-1-shaped
//! margin (with a union bound over checkpoints), and decides as soon as
//! the margin separates them. Agents near the threshold need more rounds;
//! agents far from it decide quickly — the behaviour the paper's future
//! work section anticipates.

use antdensity_engine::observer::{EncounterTallies, Observer, RoundEvents};
use antdensity_engine::{Engine, ScenarioOutcome};
use antdensity_graphs::Topology;
use antdensity_stats::rng::SeedSequence;

/// An agent's quorum decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuorumDecision {
    /// Confident the density is above the threshold.
    Above,
    /// Confident the density is below the threshold.
    Below,
    /// Could not separate density from threshold within the round budget.
    Undecided,
}

/// One agent's outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuorumOutcome {
    /// The decision reached.
    pub decision: QuorumDecision,
    /// Rounds consumed before deciding (the full budget if undecided).
    pub rounds_used: u64,
    /// The agent's final density estimate.
    pub estimate: f64,
}

/// Sequential threshold detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuorumSensor {
    threshold: f64,
    delta: f64,
    max_rounds: u64,
    // Theorem 1's `c₁` in the margin: 1.0 (a unit test narrows it).
    margin_constant: f64,
}

impl QuorumSensor {
    /// Detects whether the density is above or below `threshold` with
    /// failure probability target `delta`, giving up after `max_rounds`.
    ///
    /// # Panics
    ///
    /// Panics if `threshold <= 0`, `delta ∉ (0,1)`, or `max_rounds < 2`.
    pub fn new(threshold: f64, delta: f64, max_rounds: u64) -> Self {
        assert!(threshold > 0.0, "threshold must be positive");
        assert!(delta > 0.0 && delta < 1.0, "delta must lie in (0,1)");
        assert!(max_rounds >= 2, "need at least two rounds");
        Self {
            threshold,
            delta,
            max_rounds,
            margin_constant: 1.0,
        }
    }

    /// The decision margin at checkpoint `t`: an absolute band around the
    /// threshold of width `c₁·√(ln(K/δ)·θ/t)·ln(2t)` where `K` is the
    /// number of checkpoints (union bound) and `θ` the threshold scale.
    fn margin(&self, t: u64) -> f64 {
        let checkpoints = (self.max_rounds as f64).log2().ceil().max(1.0);
        let log_term = (checkpoints / self.delta).ln().max(1.0);
        self.margin_constant * (log_term * self.threshold / t as f64).sqrt() * (2.0 * t as f64).ln()
    }

    /// Runs the sensor for a whole population: `num_agents` agents walk on
    /// `topo`; each decides independently at the first checkpoint where
    /// its running estimate clears the margin. The round loop only
    /// emits encounter events — the stopping rule itself is the
    /// incremental [`SequentialQuorum`] observer.
    ///
    /// # Panics
    ///
    /// Panics if `num_agents == 0`.
    pub fn run<T: Topology>(&self, topo: &T, num_agents: usize, seed: u64) -> Vec<QuorumOutcome> {
        assert!(num_agents > 0, "need at least one agent");
        let seq = SeedSequence::new(seed);
        let mut rng = seq.rng(0);
        let mut engine = Engine::new(topo, num_agents);
        engine.place_uniform(&mut rng);
        let mut observer = SequentialQuorum::new(*self, num_agents);
        let mut counts = vec![0u32; num_agents];
        for round in 1..=self.max_rounds {
            engine.step_round(&mut rng);
            for (a, slot) in counts.iter_mut().enumerate() {
                *slot = engine.count(a);
            }
            observer.on_round(&RoundEvents {
                round,
                counts: &counts,
                raw_counts: &counts,
                group_counts: None,
            });
            if observer.all_decided() {
                break;
            }
        }
        observer.outcomes()
    }

    /// The threshold being tested.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// The failure-probability target.
    pub fn delta(&self) -> f64 {
        self.delta
    }
}

/// The quorum stopping rule as an incremental observer: per-agent
/// sequential-test state updated from each round's encounter events.
///
/// Counts accumulate only while an agent is undecided; at geometric
/// checkpoints (`t = 2^k`, plus the budget boundary) every undecided
/// agent compares its running estimate against the threshold with the
/// sensor's margin and freezes its outcome as soon as the margin
/// separates them. Feeding the same event stream always produces the
/// same outcomes — the observer is a pure fold.
///
/// Implements [`Observer`]; [`QuorumSensor::run`] drives it, feeding it
/// each round's counts from an [`Engine`] and stopping once
/// [`Self::all_decided`]. (A [`Scenario`](antdensity_engine::Scenario)
/// tap takes an `EstimatorSpec`, whose `Quorum` read-out is the fixed-round
/// `d̃ ≥ threshold` verdict, not this early-stopping rule.)
#[derive(Debug, Clone)]
pub struct SequentialQuorum {
    sensor: QuorumSensor,
    counts: Vec<u64>,
    decided: Vec<Option<QuorumOutcome>>,
    undecided: usize,
    next_checkpoint: u64,
    rounds_seen: u64,
}

impl SequentialQuorum {
    /// Fresh per-agent state for `num_agents` agents under `sensor`'s
    /// threshold, margin, and round budget.
    ///
    /// # Panics
    ///
    /// Panics if `num_agents == 0`.
    pub fn new(sensor: QuorumSensor, num_agents: usize) -> Self {
        assert!(num_agents > 0, "need at least one agent");
        Self {
            sensor,
            counts: vec![0; num_agents],
            decided: vec![None; num_agents],
            undecided: num_agents,
            next_checkpoint: 2,
            rounds_seen: 0,
        }
    }

    /// Whether every agent has frozen a decision (the driver may stop
    /// stepping).
    pub fn all_decided(&self) -> bool {
        self.undecided == 0
    }

    /// Rounds consumed so far.
    pub fn rounds_seen(&self) -> u64 {
        self.rounds_seen
    }

    /// Final per-agent outcomes: frozen decisions as recorded, agents
    /// still undecided report `Undecided` with their running estimate
    /// over the rounds actually observed (the full budget when the
    /// driver ran it out; fewer when a shorter fused pass fed the
    /// observer).
    pub fn outcomes(&self) -> Vec<QuorumOutcome> {
        let t_final = self.rounds_seen.max(1);
        self.decided
            .iter()
            .enumerate()
            .map(|(a, o)| {
                o.unwrap_or(QuorumOutcome {
                    decision: QuorumDecision::Undecided,
                    rounds_used: t_final,
                    estimate: self.counts[a] as f64 / t_final as f64,
                })
            })
            .collect()
    }
}

impl Observer for SequentialQuorum {
    fn on_round(&mut self, ev: &RoundEvents<'_>) {
        assert_eq!(ev.counts.len(), self.counts.len(), "agent count mismatch");
        if self.rounds_seen >= self.sensor.max_rounds {
            return; // budget exhausted: later events are not observed
        }
        assert_eq!(
            ev.round,
            self.rounds_seen + 1,
            "rounds must arrive in order"
        );
        self.rounds_seen = ev.round;
        let t = self.rounds_seen;
        for (a, c) in self.counts.iter_mut().enumerate() {
            if self.decided[a].is_none() {
                *c += u64::from(ev.counts[a]);
            }
        }
        if t == self.next_checkpoint || t == self.sensor.max_rounds {
            let margin = self.sensor.margin(t);
            for a in 0..self.counts.len() {
                if self.decided[a].is_some() {
                    continue;
                }
                let est = self.counts[a] as f64 / t as f64;
                let decision = if est > self.sensor.threshold + margin {
                    Some(QuorumDecision::Above)
                } else if est < self.sensor.threshold - margin {
                    Some(QuorumDecision::Below)
                } else {
                    None
                };
                if let Some(d) = decision {
                    self.decided[a] = Some(QuorumOutcome {
                        decision: d,
                        rounds_used: t,
                        estimate: est,
                    });
                    self.undecided -= 1;
                }
            }
            if self.undecided > 0 {
                self.next_checkpoint = self.next_checkpoint.saturating_mul(2);
            }
        }
    }

    /// Snapshot as a [`ScenarioOutcome`]: frozen agents report their
    /// decision-time estimate and `decision == Above` as the verdict;
    /// undecided agents report their running estimate and the verdict of
    /// a plain threshold read-out.
    fn snapshot(&self, _tallies: &EncounterTallies, true_density: f64) -> ScenarioOutcome {
        let t = self.rounds_seen.max(1) as f64;
        let estimates: Vec<f64> = self
            .decided
            .iter()
            .enumerate()
            .map(|(a, o)| o.map_or(self.counts[a] as f64 / t, |o| o.estimate))
            .collect();
        let decisions = self
            .decided
            .iter()
            .zip(&estimates)
            .map(|(o, &est)| match o {
                Some(o) => o.decision == QuorumDecision::Above,
                None => est >= self.sensor.threshold,
            })
            .collect();
        ScenarioOutcome {
            estimates,
            collision_counts: self.counts.clone(),
            property_estimates: None,
            quorum_decisions: Some(decisions),
            walking: None,
            rounds: self.rounds_seen,
            true_density,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use antdensity_graphs::{CompleteGraph, Torus2d};

    fn decisions(outcomes: &[QuorumOutcome]) -> (usize, usize, usize) {
        let above = outcomes
            .iter()
            .filter(|o| o.decision == QuorumDecision::Above)
            .count();
        let below = outcomes
            .iter()
            .filter(|o| o.decision == QuorumDecision::Below)
            .count();
        let undecided = outcomes.len() - above - below;
        (above, below, undecided)
    }

    #[test]
    fn detects_density_well_above_threshold() {
        // d = 255/512 ~ 0.5 against threshold 0.1: everyone should say
        // Above quickly.
        let topo = CompleteGraph::new(512);
        let sensor = QuorumSensor::new(0.1, 0.05, 1 << 12);
        let outcomes = sensor.run(&topo, 256, 1);
        let (above, below, _) = decisions(&outcomes);
        assert_eq!(below, 0, "no agent may vote Below");
        assert!(above >= 250, "above = {above}/256");
        // fast decisions: well under the budget
        let mean_rounds: f64 = outcomes.iter().map(|o| o.rounds_used as f64).sum::<f64>() / 256.0;
        assert!(mean_rounds < 512.0, "mean rounds {mean_rounds}");
    }

    #[test]
    fn detects_density_well_below_threshold() {
        // d = 15/512 ~ 0.03 against threshold 0.3.
        let topo = CompleteGraph::new(512);
        let sensor = QuorumSensor::new(0.3, 0.05, 1 << 12);
        let outcomes = sensor.run(&topo, 16, 2);
        let (above, below, _) = decisions(&outcomes);
        assert_eq!(above, 0);
        assert!(below >= 15, "below = {below}/16");
    }

    #[test]
    fn works_on_the_torus() {
        // d = 128/1024 = 0.125 against threshold 0.5 (far below).
        let topo = Torus2d::new(32);
        let sensor = QuorumSensor::new(0.5, 0.05, 1 << 13);
        let outcomes = sensor.run(&topo, 129, 3);
        let (above, below, undecided) = decisions(&outcomes);
        assert_eq!(above, 0);
        assert!(below > 120, "below {below}, undecided {undecided}");
    }

    #[test]
    fn near_threshold_density_tends_to_undecided_on_short_budget() {
        // d = 0.25 against threshold 0.25 with a tiny budget: margins
        // cannot separate.
        let topo = CompleteGraph::new(512);
        let sensor = QuorumSensor::new(0.25, 0.05, 64);
        let outcomes = sensor.run(&topo, 129, 4);
        let (_, _, undecided) = decisions(&outcomes);
        assert!(undecided > 64, "undecided = {undecided}/129");
    }

    #[test]
    fn far_threshold_decides_faster_than_near() {
        let topo = CompleteGraph::new(512);
        let budget = 1 << 12;
        let far = QuorumSensor::new(0.02, 0.05, budget).run(&topo, 256, 5);
        let near = QuorumSensor::new(0.35, 0.05, budget).run(&topo, 256, 5);
        let mean = |o: &[QuorumOutcome]| {
            o.iter().map(|x| x.rounds_used as f64).sum::<f64>() / o.len() as f64
        };
        assert!(
            mean(&far) < mean(&near),
            "far {} should beat near {}",
            mean(&far),
            mean(&near)
        );
    }

    #[test]
    fn outcome_estimates_are_reported() {
        let topo = CompleteGraph::new(128);
        let sensor = QuorumSensor::new(0.1, 0.1, 256);
        for o in sensor.run(&topo, 65, 6) {
            assert!(o.estimate >= 0.0);
            assert!(o.rounds_used >= 1 && o.rounds_used <= 256);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let topo = Torus2d::new(16);
        let sensor = QuorumSensor::new(0.2, 0.1, 128);
        assert_eq!(sensor.run(&topo, 20, 7), sensor.run(&topo, 20, 7));
    }

    #[test]
    #[should_panic(expected = "threshold must be positive")]
    fn rejects_zero_threshold() {
        let _ = QuorumSensor::new(0.0, 0.1, 100);
    }

    #[test]
    fn sequential_quorum_folds_events_incrementally() {
        use antdensity_engine::observer::EncounterTallies;
        // Agent 0 collides twice every round (estimate 2.0 ≫ 0.5),
        // agent 1 never (0.0 ≪ 0.5): both decide at the first
        // checkpoint; agent 2 hugs the threshold and stays undecided.
        let mut sensor = QuorumSensor::new(0.5, 0.1, 8);
        sensor.margin_constant = 0.2;
        let mut sq = SequentialQuorum::new(sensor, 3);
        let mut tallies = EncounterTallies::new(3, false);
        for round in 1..=8u64 {
            let row = [2u32, 0, u32::from(round % 2 == 0)];
            let ev = RoundEvents {
                round,
                counts: &row,
                raw_counts: &row,
                group_counts: None,
            };
            tallies.record(&ev);
            sq.on_round(&ev);
        }
        assert_eq!(sq.rounds_seen(), 8);
        let outcomes = sq.outcomes();
        assert_eq!(outcomes[0].decision, QuorumDecision::Above);
        assert_eq!(outcomes[1].decision, QuorumDecision::Below);
        assert_eq!(
            outcomes[0].rounds_used, 2,
            "decided at the first checkpoint"
        );
        assert_eq!(outcomes[2].decision, QuorumDecision::Undecided);
        // frozen counts: agent 0 stopped accumulating when it decided
        let snap = sq.snapshot(&tallies, 0.5);
        assert_eq!(snap.collision_counts[0], 4);
        assert_eq!(snap.quorum_decisions, Some(vec![true, false, true]));
        assert_eq!(snap.estimates[0], 2.0);
        // events past the budget are ignored, not a panic
        let row = [9u32, 9, 9];
        sq.on_round(&RoundEvents {
            round: 9,
            counts: &row,
            raw_counts: &row,
            group_counts: None,
        });
        assert_eq!(sq.rounds_seen(), 8);
    }

    #[test]
    fn sequential_quorum_outcomes_use_rounds_actually_observed() {
        // A fused pass may stop well short of the sensor's budget; the
        // undecided estimate must divide by the rounds the observer saw,
        // not the unconsumed budget.
        let sensor = QuorumSensor::new(0.5, 0.1, 512);
        let mut sq = SequentialQuorum::new(sensor, 1);
        for round in 1..=4u64 {
            let row = [1u32];
            sq.on_round(&RoundEvents {
                round,
                counts: &row,
                raw_counts: &row,
                group_counts: None,
            });
        }
        let outcomes = sq.outcomes();
        // estimate 1.0 sits inside the early wide margins: undecided
        assert_eq!(outcomes[0].decision, QuorumDecision::Undecided);
        assert_eq!(outcomes[0].rounds_used, 4);
        assert_eq!(outcomes[0].estimate, 1.0, "4 collisions / 4 rounds");
    }
}
