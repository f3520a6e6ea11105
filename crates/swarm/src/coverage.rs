//! Section 6.3.4: swarm coverage and density-triggered dispersion.
//!
//! "It may be interesting to use density estimation to detect regions
//! with high robot density, and to then spread out this density to more
//! efficiently distribute exploration."
//!
//! Two tools:
//!
//! * [`coverage_curve`] — the fraction of the grid visited by a swarm of
//!   random walkers over time (the exploration-progress statistic).
//! * [`DispersionSim`] — a protocol sketch: every robot tracks its recent
//!   encounter rate (its local density estimate); a robot whose estimate
//!   exceeds a target takes **two** walk steps per round instead of one
//!   until the estimate drops. Clustered swarms spread measurably faster
//!   than with plain random walking. A swarm round is two rounds of an
//!   [`Engine`], the second taken only by the robots that move fast.

use antdensity_engine::{Engine, MovementModel};
use antdensity_graphs::{NodeId, Topology, Torus2d};
use antdensity_stats::rng::SeedSequence;
use std::collections::{HashSet, VecDeque};
use std::ops::ControlFlow;

/// Fraction of nodes visited by at least one of `num_agents` random
/// walkers (uniform starts) after each round `0..=rounds`.
///
/// # Panics
///
/// Panics if `num_agents == 0`.
pub fn coverage_curve<T: Topology>(
    topo: &T,
    num_agents: usize,
    rounds: u64,
    seed: u64,
) -> Vec<f64> {
    assert!(num_agents > 0, "need at least one agent");
    let seq = SeedSequence::new(seed);
    let mut swarm = Engine::new(topo, num_agents).with_seed_sequence(seq.subsequence(1));
    swarm.place_uniform(&mut seq.rng(0));
    let a = topo.num_nodes() as f64;
    let mut visited: HashSet<NodeId> = swarm.agent_positions().map(|(_, v)| v).collect();
    let mut curve = vec![visited.len() as f64 / a];
    swarm.run(rounds, |swarm| {
        visited.extend(swarm.agent_positions().map(|(_, v)| v));
        curve.push(visited.len() as f64 / a);
        ControlFlow::Continue(())
    });
    curve
}

/// Spatial-spread metric of a configuration: the number of distinct
/// occupied nodes divided by the swarm size (1.0 = perfectly spread,
/// → 1/N when fully stacked).
pub fn occupancy_spread(positions: &[NodeId]) -> f64 {
    assert!(!positions.is_empty(), "need at least one robot");
    let distinct: HashSet<NodeId> = positions.iter().copied().collect();
    distinct.len() as f64 / positions.len() as f64
}

/// Density-triggered dispersion simulator.
#[derive(Debug, Clone)]
pub struct DispersionSim {
    side: u64,
    num_robots: usize,
    /// Per-robot encounter history window.
    window: usize,
    /// Encounter-rate threshold that triggers fast movement.
    trigger: f64,
    /// Whether density-triggered speedup is enabled (disable for the
    /// plain-random-walk control).
    adaptive: bool,
}

impl DispersionSim {
    /// A swarm of `num_robots` on a `side × side` torus; robots whose
    /// encounter rate over the last `window` rounds exceeds `trigger`
    /// take two steps per round (when `adaptive`).
    ///
    /// # Panics
    ///
    /// Panics if any size parameter is zero or `trigger < 0`.
    pub fn new(side: u64, num_robots: usize, window: usize, trigger: f64) -> Self {
        assert!(side > 0, "grid side must be positive");
        assert!(num_robots > 0, "need at least one robot");
        assert!(window > 0, "window must be positive");
        assert!(trigger >= 0.0, "trigger must be non-negative");
        Self {
            side,
            num_robots,
            window,
            trigger,
            adaptive: true,
        }
    }

    /// Disables the density trigger (control condition).
    pub fn without_adaptation(mut self) -> Self {
        self.adaptive = false;
        self
    }

    /// Runs `rounds` rounds starting from a fully clustered configuration
    /// (all robots on one node); returns the spread metric after each
    /// round.
    pub fn run_clustered(&self, rounds: u64, seed: u64) -> Vec<f64> {
        let topo = Torus2d::new(self.side);
        let start = topo.node(self.side / 2, self.side / 2);
        let mut swarm =
            Engine::new(topo, self.num_robots).with_seed_sequence(SeedSequence::new(seed));
        swarm.place_at(&vec![start; self.num_robots]);
        let mut histories: Vec<VecDeque<u32>> =
            vec![VecDeque::with_capacity(self.window); self.num_robots];
        let spread =
            |swarm: &Engine<Torus2d>| swarm.occupied_nodes() as f64 / self.num_robots as f64;
        let mut curve = Vec::with_capacity(rounds as usize + 1);
        curve.push(spread(&swarm));
        swarm.run(2 * rounds, |swarm| {
            if swarm.round() % 2 == 1 {
                // Every robot has taken its first step; the slow ones sit
                // out the second.
                for (r, h) in histories.iter().enumerate() {
                    if !(self.adaptive && self.rate(h) > self.trigger) {
                        swarm.set_movement(r, MovementModel::Stationary);
                    }
                }
            } else {
                for (r, h) in histories.iter_mut().enumerate() {
                    if h.len() == self.window {
                        h.pop_front();
                    }
                    h.push_back(swarm.count(r));
                }
                curve.push(spread(swarm));
                swarm.set_movement_all(&MovementModel::Pure);
            }
            ControlFlow::Continue(())
        });
        curve
    }

    fn rate(&self, history: &VecDeque<u32>) -> f64 {
        if history.is_empty() {
            return f64::INFINITY; // no data yet: clustered start, disperse
        }
        history.iter().map(|&c| c as f64).sum::<f64>() / history.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use antdensity_graphs::Torus2d;

    #[test]
    fn coverage_is_monotone_and_bounded() {
        let topo = Torus2d::new(16);
        let curve = coverage_curve(&topo, 8, 200, 1);
        assert_eq!(curve.len(), 201);
        for w in curve.windows(2) {
            assert!(w[1] >= w[0], "coverage must not decrease");
        }
        assert!(curve[200] <= 1.0);
        assert!(curve[200] > curve[0]);
    }

    #[test]
    fn more_agents_cover_faster() {
        let topo = Torus2d::new(32);
        let few = coverage_curve(&topo, 4, 300, 2);
        let many = coverage_curve(&topo, 64, 300, 2);
        assert!(
            many[300] > few[300],
            "64 agents {} vs 4 agents {}",
            many[300],
            few[300]
        );
    }

    #[test]
    fn full_coverage_eventually_on_tiny_grid() {
        let topo = Torus2d::new(4);
        let curve = coverage_curve(&topo, 8, 500, 3);
        assert_eq!(*curve.last().unwrap(), 1.0);
    }

    #[test]
    fn spread_metric_extremes() {
        assert_eq!(occupancy_spread(&[7, 7, 7, 7]), 0.25);
        assert_eq!(occupancy_spread(&[1, 2, 3, 4]), 1.0);
    }

    #[test]
    fn clustered_swarm_spreads_over_time() {
        let sim = DispersionSim::new(32, 64, 8, 0.5);
        let curve = sim.run_clustered(300, 4);
        assert!(curve[0] < 0.05, "starts clustered");
        assert!(curve[300] > 0.5, "ends spread: {} (adaptive)", curve[300]);
    }

    #[test]
    fn adaptive_disperses_faster_than_control() {
        // average early spread (rounds 1..=60) with and without trigger,
        // averaged across seeds for stability.
        let rounds = 60u64;
        let seeds = [5u64, 6, 7, 8];
        let mean_spread = |adaptive: bool| -> f64 {
            seeds
                .iter()
                .map(|&s| {
                    let sim = DispersionSim::new(32, 96, 4, 0.25);
                    let sim = if adaptive {
                        sim
                    } else {
                        sim.without_adaptation()
                    };
                    let curve = sim.run_clustered(rounds, s);
                    curve[1..].iter().sum::<f64>() / rounds as f64
                })
                .sum::<f64>()
                / seeds.len() as f64
        };
        let fast = mean_spread(true);
        let slow = mean_spread(false);
        assert!(
            fast > slow,
            "adaptive spread {fast} should beat control {slow}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let sim = DispersionSim::new(16, 20, 4, 0.5);
        assert_eq!(sim.run_clustered(50, 9), sim.run_clustered(50, 9));
    }

    #[test]
    #[should_panic(expected = "at least one robot")]
    fn zero_robots_rejected() {
        let _ = DispersionSim::new(8, 0, 4, 0.5);
    }
}
