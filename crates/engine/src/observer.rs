//! The streaming observer pipeline: one simulation pass feeds every
//! estimator and every rounds-checkpoint.
//!
//! The paper's headline plots compare estimators (Algorithm 1,
//! Algorithm 4, quorum read-out, relative frequency) across round
//! budgets — axes that historically each cost a full re-simulation. The
//! observation that collapses them: every estimator in the paper is a
//! function of the *cumulative per-agent encounter tallies*, and a run
//! of `t` rounds is a strict prefix of a run of `t' > t` rounds (RNG
//! streams are derived per round, so shorter runs draw a prefix of
//! longer ones). So the engine emits each round's encounter events
//! **once** ([`RoundEvents`]), a single [`EncounterTallies`] accumulates
//! them, and any number of [`Observer`]s snapshot estimates at the
//! checkpoints of a [`Schedule`] — bit-identical to running each
//! `(estimator, rounds)` combination separately, which the golden-vector
//! and replay suites pin.
//!
//! Fusion rules ([`SimFamily`]): estimators sharing a *simulation
//! family* — identical movement configuration and RNG draw pattern — can
//! tap one pass. Algorithm 1, quorum, and relative frequency share the
//! standard family (group bookkeeping draws no randomness); Algorithm 4
//! is its own family (it flips role coins and replaces movement).
//! [`Scenario::run_streamed`](crate::scenario::Scenario::run_streamed)
//! is the driver; `antdensity-sweep` plans grid-wide fusion on top.

use crate::scenario::{EstimatorSpec, ScenarioOutcome};
pub use antdensity_stats::schedule::Schedule;

/// One round's encounter events, emitted once by the driver and shared
/// by every observer.
#[derive(Debug, Clone, Copy)]
pub struct RoundEvents<'a> {
    /// 1-based index of the round that just completed.
    pub round: u64,
    /// Per-agent observed collision counts this round (post-noise when a
    /// sensor model is active — the stream estimators actually see).
    pub counts: &'a [u32],
    /// Per-agent *true* collision counts this round (pre-noise;
    /// identical slice to `counts` under perfect sensing).
    pub raw_counts: &'a [u32],
    /// Per-agent encounter counts with each of `K` disjoint groups
    /// (Section 5.2), when the simulation tracks groups: group-major,
    /// `K · agents` entries, agent `a`'s count with group `g` at
    /// `g · agents + a` (so with one group it is one per-agent slice).
    pub group_counts: Option<&'a [u32]>,
}

/// Cumulative per-agent encounter tallies — the shared state every
/// standard observer snapshots from. The driver maintains exactly one,
/// no matter how many observers tap the stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncounterTallies {
    rounds: u64,
    totals: Vec<u64>,
    group_totals: Option<Vec<u64>>,
}

impl EncounterTallies {
    /// Empty tallies for `num_agents` agents, tracking encounters with
    /// each of `groups` disjoint groups (none at `0`).
    pub fn new(num_agents: usize, groups: usize) -> Self {
        Self {
            rounds: 0,
            totals: vec![0; num_agents],
            group_totals: (groups > 0).then(|| vec![0; groups * num_agents]),
        }
    }

    /// Accumulates one round of events.
    ///
    /// # Panics
    ///
    /// Panics if the event's agent or group count differs from the
    /// tallies', or if rounds arrive out of order.
    pub fn record(&mut self, ev: &RoundEvents<'_>) {
        assert_eq!(ev.counts.len(), self.totals.len(), "agent count mismatch");
        assert_eq!(ev.round, self.rounds + 1, "rounds must arrive in order");
        for (t, &c) in self.totals.iter_mut().zip(ev.counts) {
            *t += u64::from(c);
        }
        if let Some(gt) = &mut self.group_totals {
            let gc = ev
                .group_counts
                .expect("group tracking enabled but event has no group counts");
            assert_eq!(gc.len(), gt.len(), "group count mismatch");
            for (t, &c) in gt.iter_mut().zip(gc) {
                *t += u64::from(c);
            }
        }
        self.rounds = ev.round;
    }

    /// Rounds accumulated so far.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Cumulative per-agent observed collision counts.
    pub fn totals(&self) -> &[u64] {
        &self.totals
    }

    /// Cumulative per-agent group counts, when tracked, in the
    /// group-major layout of [`RoundEvents::group_counts`].
    pub fn group_totals(&self) -> Option<&[u64]> {
        self.group_totals.as_deref()
    }

    /// Per-agent running density estimates `d̃ = c/t`.
    ///
    /// # Panics
    ///
    /// Panics before the first round is recorded.
    pub fn density_estimates(&self) -> Vec<f64> {
        assert!(self.rounds > 0, "no rounds recorded yet");
        let t = self.rounds as f64;
        self.totals.iter().map(|&c| c as f64 / t).collect()
    }
}

/// An incremental estimator tapping the shared event stream.
///
/// Observers see every round once (`on_round`) and must be able to
/// produce a full [`ScenarioOutcome`] at any checkpoint (`snapshot`).
/// The standard estimators are pure functions of the shared
/// [`EncounterTallies`], so their `on_round` is a no-op; stateful
/// observers (sequential stopping rules, recorders) override it.
pub trait Observer {
    /// Consumes one round of encounter events (default: nothing — the
    /// shared tallies already accumulated them).
    fn on_round(&mut self, _ev: &RoundEvents<'_>) {}

    /// Whether the observer has seen enough: an early-stopping rule
    /// (the Section 6.2 quorum test) returns `true` once every agent
    /// has decided, and
    /// [`Scenario::run_observed`](crate::scenario::Scenario::run_observed)
    /// steps no further round. Default: never.
    fn done(&self) -> bool {
        false
    }

    /// Reads the estimator's outcome off the shared tallies at a
    /// checkpoint. Must equal the outcome of a dedicated
    /// `Scenario::run` of `tallies.rounds()` rounds, bit for bit.
    fn snapshot(&self, tallies: &EncounterTallies, true_density: f64) -> ScenarioOutcome;
}

/// Algorithm 1: `d̃ = c/t` per agent.
#[derive(Debug, Clone, Copy, Default)]
pub struct Alg1Observer;

impl Observer for Alg1Observer {
    fn snapshot(&self, tallies: &EncounterTallies, true_density: f64) -> ScenarioOutcome {
        ScenarioOutcome {
            estimates: tallies.density_estimates(),
            collision_counts: tallies.totals().to_vec(),
            property_estimates: None,
            quorum_decisions: None,
            walking: None,
            rounds: tallies.rounds(),
            true_density,
        }
    }
}

/// Algorithm 4 (Appendix A): the stationary/mobile correction
/// `d̃ = 2·(c mod t)/t`, with the per-agent walking flags drawn by the
/// driver's role coins.
#[derive(Debug, Clone)]
pub struct Alg4Observer {
    /// Which agents drift (`true`) vs stay stationary.
    pub walking: Vec<bool>,
}

impl Observer for Alg4Observer {
    fn snapshot(&self, tallies: &EncounterTallies, true_density: f64) -> ScenarioOutcome {
        let rounds = tallies.rounds();
        let t = rounds as f64;
        let corrected: Vec<u64> = tallies.totals().iter().map(|&c| c % rounds).collect();
        ScenarioOutcome {
            estimates: corrected.iter().map(|&c| 2.0 * c as f64 / t).collect(),
            collision_counts: corrected,
            property_estimates: None,
            quorum_decisions: None,
            walking: Some(self.walking.clone()),
            rounds,
            true_density,
        }
    }
}

/// Quorum read-out (Section 6.2): Algorithm 1 plus a per-agent
/// `d̃ ≥ threshold` verdict at the checkpoint.
#[derive(Debug, Clone, Copy)]
pub struct QuorumObserver {
    /// Density threshold to detect.
    pub threshold: f64,
}

impl Observer for QuorumObserver {
    fn snapshot(&self, tallies: &EncounterTallies, true_density: f64) -> ScenarioOutcome {
        let estimates = tallies.density_estimates();
        let decisions = estimates.iter().map(|&e| e >= self.threshold).collect();
        ScenarioOutcome {
            estimates,
            collision_counts: tallies.totals().to_vec(),
            property_estimates: None,
            quorum_decisions: Some(decisions),
            walking: None,
            rounds: tallies.rounds(),
            true_density,
        }
    }
}

/// Section 5.2 relative frequency: overall and property-only density
/// estimates from the shared tallies' group stream.
#[derive(Debug, Clone, Copy, Default)]
pub struct RelFreqObserver;

impl Observer for RelFreqObserver {
    /// # Panics
    ///
    /// Panics if the tallies do not track a property group.
    fn snapshot(&self, tallies: &EncounterTallies, true_density: f64) -> ScenarioOutcome {
        let t = tallies.rounds() as f64;
        let group = tallies
            .group_totals()
            .expect("relative frequency needs group tallies");
        ScenarioOutcome {
            estimates: tallies.density_estimates(),
            collision_counts: tallies.totals().to_vec(),
            property_estimates: Some(group.iter().map(|&c| c as f64 / t).collect()),
            quorum_decisions: None,
            walking: None,
            rounds: tallies.rounds(),
            true_density,
        }
    }
}

/// An observer that records the raw event stream — the replay harness
/// behind the observer-equivalence property suite, and a debugging tap.
#[derive(Debug, Clone, Default)]
pub struct RecordingObserver {
    /// Recorded rounds, in order.
    pub rounds: Vec<RecordedRound>,
}

/// One recorded round of events (owned).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordedRound {
    /// 1-based round index.
    pub round: u64,
    /// Observed per-agent counts (post-noise).
    pub counts: Vec<u32>,
    /// True per-agent counts (pre-noise).
    pub raw_counts: Vec<u32>,
    /// Group counts (group-major), when tracked.
    pub group_counts: Option<Vec<u32>>,
}

impl RecordingObserver {
    /// Replays the recording into fresh tallies and an observer,
    /// returning the observer's snapshot after the final recorded round.
    ///
    /// # Panics
    ///
    /// Panics if the recording is empty.
    pub fn replay(&self, observer: &mut dyn Observer, true_density: f64) -> ScenarioOutcome {
        let first = self.rounds.first().expect("empty recording");
        let agents = first.counts.len();
        let groups = first
            .group_counts
            .as_ref()
            .map_or(0, |gc| gc.len() / agents);
        let mut tallies = EncounterTallies::new(agents, groups);
        for r in &self.rounds {
            let ev = RoundEvents {
                round: r.round,
                counts: &r.counts,
                raw_counts: &r.raw_counts,
                group_counts: r.group_counts.as_deref(),
            };
            tallies.record(&ev);
            observer.on_round(&ev);
        }
        observer.snapshot(&tallies, true_density)
    }
}

impl Observer for RecordingObserver {
    fn on_round(&mut self, ev: &RoundEvents<'_>) {
        self.rounds.push(RecordedRound {
            round: ev.round,
            counts: ev.counts.to_vec(),
            raw_counts: ev.raw_counts.to_vec(),
            group_counts: ev.group_counts.map(<[u32]>::to_vec),
        });
    }

    /// Recorders have no estimate; snapshot reads as Algorithm 1 (the
    /// identity estimator over the tallies).
    fn snapshot(&self, tallies: &EncounterTallies, true_density: f64) -> ScenarioOutcome {
        Alg1Observer.snapshot(tallies, true_density)
    }
}

/// The simulation family an estimator's events come from: taps sharing a
/// family consume the identical event stream and can share one pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimFamily {
    /// Every agent follows the scenario's movement model; group
    /// bookkeeping (which draws no randomness) tracks the first
    /// `property_agents` agents when any tap needs it.
    Standard {
        /// Property-group size a relative-frequency tap requires
        /// (`None` when no tap tracks a group).
        property_agents: Option<usize>,
    },
    /// Algorithm 4's stationary/drift split: role coins are flipped and
    /// per-agent movement replaced, so it never fuses with the standard
    /// family.
    Alg4,
}

impl SimFamily {
    /// The combined family if `self` and `other` can share one
    /// simulation pass, `None` otherwise. Standard families fuse unless
    /// they demand *different* property-group sizes (the group occupancy
    /// buffer tracks one prefix set per pass).
    pub fn fuse(self, other: SimFamily) -> Option<SimFamily> {
        match (self, other) {
            (SimFamily::Alg4, SimFamily::Alg4) => Some(SimFamily::Alg4),
            (
                SimFamily::Standard { property_agents: a },
                SimFamily::Standard { property_agents: b },
            ) => match (a, b) {
                (Some(x), Some(y)) if x != y => None,
                (x, y) => Some(SimFamily::Standard {
                    property_agents: x.or(y),
                }),
            },
            _ => None,
        }
    }
}

impl EstimatorSpec {
    /// The simulation family this estimator's events come from (see
    /// [`SimFamily`]).
    pub fn sim_family(&self) -> SimFamily {
        match self {
            Self::Algorithm1 | Self::Quorum { .. } => SimFamily::Standard {
                property_agents: None,
            },
            Self::RelativeFrequency { property_agents } => SimFamily::Standard {
                property_agents: Some(*property_agents),
            },
            Self::Algorithm4 => SimFamily::Alg4,
        }
    }
}

/// Builds the observer for an estimator spec. `walking` carries the
/// driver's role-coin draws and is required exactly for `Algorithm4`.
///
/// # Panics
///
/// Panics if `Algorithm4` is requested without walking flags.
pub fn observer_for(estimator: &EstimatorSpec, walking: Option<&[bool]>) -> Box<dyn Observer> {
    match estimator {
        EstimatorSpec::Algorithm1 => Box::new(Alg1Observer),
        EstimatorSpec::Algorithm4 => Box::new(Alg4Observer {
            walking: walking.expect("Algorithm 4 needs walking flags").to_vec(),
        }),
        EstimatorSpec::Quorum { threshold } => Box::new(QuorumObserver {
            threshold: *threshold,
        }),
        EstimatorSpec::RelativeFrequency { .. } => Box::new(RelFreqObserver),
    }
}

impl std::fmt::Debug for dyn Observer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("dyn Observer")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tallies_of(rows: &[&[u32]], groups: Option<&[&[u32]]>) -> EncounterTallies {
        let mut t = EncounterTallies::new(rows[0].len(), usize::from(groups.is_some()));
        for (i, row) in rows.iter().enumerate() {
            let g = groups.map(|g| g[i]);
            t.record(&RoundEvents {
                round: i as u64 + 1,
                counts: row,
                raw_counts: row,
                group_counts: g,
            });
        }
        t
    }

    #[test]
    fn tallies_accumulate_in_order() {
        let t = tallies_of(&[&[1, 0, 2], &[0, 3, 1]], None);
        assert_eq!(t.rounds(), 2);
        assert_eq!(t.totals(), &[1, 3, 3]);
        assert_eq!(t.density_estimates(), vec![0.5, 1.5, 1.5]);
        assert!(t.group_totals().is_none());
    }

    #[test]
    #[should_panic(expected = "in order")]
    fn tallies_reject_round_gaps() {
        let mut t = EncounterTallies::new(1, 0);
        t.record(&RoundEvents {
            round: 2,
            counts: &[1],
            raw_counts: &[1],
            group_counts: None,
        });
    }

    #[test]
    fn alg1_and_quorum_share_tallies() {
        let t = tallies_of(&[&[2, 0], &[2, 0]], None);
        let a = Alg1Observer.snapshot(&t, 0.5);
        assert_eq!(a.estimates, vec![2.0, 0.0]);
        assert_eq!(a.collision_counts, vec![4, 0]);
        let q = QuorumObserver { threshold: 1.0 }.snapshot(&t, 0.5);
        assert_eq!(q.estimates, a.estimates);
        assert_eq!(q.quorum_decisions, Some(vec![true, false]));
    }

    /// Algorithm 4 on explicit starts: `walking` agents drift along the
    /// paper's (0, 1) step on a 32x32 torus, the rest stay put, and the
    /// engine's per-round counts feed an [`Alg4Observer`].
    fn alg4_from(starts: &[(u64, u64)], walking: &[bool], rounds: u64) -> ScenarioOutcome {
        use crate::engine::Engine;
        use crate::movement::MovementModel;
        use antdensity_graphs::Torus2d;
        let torus = Torus2d::new(32);
        let n = starts.len();
        let mut engine = Engine::new(torus, n);
        for (a, &w) in walking.iter().enumerate() {
            let model = if w {
                MovementModel::Drift { move_index: 2 }
            } else {
                MovementModel::Stationary
            };
            engine.set_movement(a, model);
        }
        let positions: Vec<_> = starts.iter().map(|&(x, y)| torus.node(x, y)).collect();
        engine.place_at(&positions);
        let mut tallies = EncounterTallies::new(n, 0);
        let mut counts = vec![0u32; n];
        for round in 1..=rounds {
            engine.step_round();
            for (a, c) in counts.iter_mut().enumerate() {
                *c = engine.count(a);
            }
            tallies.record(&RoundEvents {
                round,
                counts: &counts,
                raw_counts: &counts,
                group_counts: None,
            });
        }
        Alg4Observer {
            walking: walking.to_vec(),
        }
        .snapshot(&tallies, engine.density())
    }

    #[test]
    fn alg4_mod_t_correction() {
        // totals 5 and 4 over t=4 rounds: 5 % 4 = 1, 4 % 4 = 0
        let t = tallies_of(&[&[2, 1], &[1, 1], &[1, 1], &[1, 1]], None);
        let o = Alg4Observer {
            walking: vec![true, false],
        }
        .snapshot(&t, 0.1);
        assert_eq!(o.collision_counts, vec![1, 0]);
        assert_eq!(o.estimates, vec![0.5, 0.0]);
        assert_eq!(o.walking, Some(vec![true, false]));

        // Stacked walkers march in lockstep: w of them count (w−1)·t,
        // which mod t cancels for any stack size.
        let two = alg4_from(&[(4, 3), (4, 3)], &[true, true], 16);
        assert_eq!(two.collision_counts, vec![0, 0]);
        assert_eq!(two.estimates, vec![0.0, 0.0]);
        let three = alg4_from(&[(5, 0); 3], &[true; 3], 10);
        assert_eq!(three.collision_counts, vec![0, 0, 0]);
        // A walker passes a stationary blocker 4 cells up exactly once
        // (side 32 > t): c = 1, d̃ = 2·1/16.
        let blocker = alg4_from(&[(3, 3), (3, 7)], &[true, false], 16);
        assert_eq!(blocker.collision_counts, vec![1, 1]);
        assert_eq!(blocker.estimates[0], 0.125);
        // Two stationary agents on one cell collide every round: c = t,
        // and c mod t = 0.
        let parked = alg4_from(&[(9, 0), (9, 0)], &[false, false], 8);
        assert_eq!(parked.collision_counts, vec![0, 0]);
    }

    #[test]
    fn relfreq_reads_group_stream() {
        let t = tallies_of(&[&[2, 2], &[2, 0]], Some(&[&[1, 1], &[1, 0]]));
        let o = RelFreqObserver.snapshot(&t, 0.2);
        assert_eq!(o.estimates, vec![2.0, 1.0]);
        assert_eq!(o.property_estimates, Some(vec![1.0, 0.5]));
    }

    #[test]
    fn recording_replays_bit_for_bit() {
        let rows: [&[u32]; 3] = [&[1, 2], &[0, 1], &[3, 0]];
        let t = tallies_of(&rows, None);
        let mut rec = RecordingObserver::default();
        for (i, row) in rows.iter().enumerate() {
            rec.on_round(&RoundEvents {
                round: i as u64 + 1,
                counts: row,
                raw_counts: row,
                group_counts: None,
            });
        }
        let direct = QuorumObserver { threshold: 0.5 }.snapshot(&t, 0.25);
        let replayed = rec.replay(&mut QuorumObserver { threshold: 0.5 }, 0.25);
        assert_eq!(direct, replayed);
    }

    #[test]
    fn sim_families_fuse_by_the_rules() {
        let std_none = EstimatorSpec::Algorithm1.sim_family();
        let quorum = EstimatorSpec::Quorum { threshold: 0.1 }.sim_family();
        let rf4 = EstimatorSpec::RelativeFrequency { property_agents: 4 }.sim_family();
        let rf8 = EstimatorSpec::RelativeFrequency { property_agents: 8 }.sim_family();
        let alg4 = EstimatorSpec::Algorithm4.sim_family();
        assert_eq!(std_none.fuse(quorum), Some(std_none));
        assert_eq!(
            std_none.fuse(rf4),
            Some(SimFamily::Standard {
                property_agents: Some(4)
            })
        );
        assert_eq!(rf4.fuse(rf8), None, "different group sizes cannot fuse");
        assert_eq!(alg4.fuse(alg4), Some(SimFamily::Alg4));
        assert_eq!(alg4.fuse(std_none), None);
        assert_eq!(std_none.fuse(alg4), None);
    }

    #[test]
    #[should_panic(expected = "walking flags")]
    fn observer_for_alg4_needs_walking() {
        let _ = observer_for(&EstimatorSpec::Algorithm4, None);
    }
}
