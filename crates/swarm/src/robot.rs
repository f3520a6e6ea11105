//! Section 5.2: distributed density estimation by robot swarms.
//!
//! "Algorithm 1 can be directly applied as a simple and robust density
//! estimation algorithm for robot swarms moving on a two-dimensional
//! plane modeled as a grid. Additionally, the algorithm can be used to
//! estimate the frequency of certain properties within the swarm."
//!
//! [`SwarmConfig`] runs a swarm with any number of disjoint task groups;
//! every robot simultaneously estimates the overall density and each
//! group's density from per-type encounter rates.

use antdensity_engine::{Alg1Observer, MovementModel, Scenario, TopologySpec};

/// One robot's estimates.
#[derive(Debug, Clone, PartialEq)]
pub struct RobotEstimate {
    /// Overall density estimate `d̃`.
    pub density: f64,
    /// Per-group density estimates `d̃_P`, indexed by group.
    pub group_densities: Vec<f64>,
    /// This robot's own group, if any.
    pub group: Option<usize>,
}

impl RobotEstimate {
    /// Relative frequency estimate `f̃_g = d̃_g / d̃` for `group`, `None`
    /// if the robot saw no encounters at all.
    pub fn frequency(&self, group: usize) -> Option<f64> {
        if self.density > 0.0 {
            Some(self.group_densities[group] / self.density)
        } else {
            None
        }
    }
}

/// Swarm-level report.
#[derive(Debug, Clone, PartialEq)]
pub struct SwarmReport {
    estimates: Vec<RobotEstimate>,
    group_sizes: Vec<usize>,
    num_robots: usize,
    nodes: u64,
}

impl SwarmReport {
    /// Per-robot estimates.
    pub fn estimates(&self) -> &[RobotEstimate] {
        &self.estimates
    }

    /// Number of task groups.
    pub fn num_groups(&self) -> usize {
        self.group_sizes.len()
    }

    /// True swarm density `d = (N−1)/A` (paper convention).
    pub fn true_density(&self) -> f64 {
        (self.num_robots as f64 - 1.0) / self.nodes as f64
    }

    /// True relative frequency of `group`: `|g| / N`.
    pub fn true_frequency(&self, group: usize) -> f64 {
        self.group_sizes[group] as f64 / self.num_robots as f64
    }

    /// Mean of the defined per-robot frequency estimates for `group`.
    pub fn mean_frequency(&self, group: usize) -> Option<f64> {
        let xs: Vec<f64> = self
            .estimates
            .iter()
            .filter_map(|e| e.frequency(group))
            .collect();
        if xs.is_empty() {
            None
        } else {
            Some(xs.iter().sum::<f64>() / xs.len() as f64)
        }
    }

    /// Mean overall density estimate.
    pub fn mean_density(&self) -> f64 {
        self.estimates.iter().map(|e| e.density).sum::<f64>() / self.estimates.len() as f64
    }
}

/// Configuration of a robot-swarm estimation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SwarmConfig {
    side: u64,
    num_robots: usize,
    rounds: u64,
    group_sizes: Vec<usize>,
    movement: MovementModel,
}

impl SwarmConfig {
    /// A swarm of `num_robots` robots on a `side × side` grid, walking
    /// `rounds` rounds.
    ///
    /// # Panics
    ///
    /// Panics if `side == 0`, `num_robots == 0`, or `rounds == 0`.
    pub fn new(side: u64, num_robots: usize, rounds: u64) -> Self {
        assert!(side > 0, "grid side must be positive");
        assert!(num_robots > 0, "need at least one robot");
        assert!(rounds > 0, "need at least one round");
        Self {
            side,
            num_robots,
            rounds,
            group_sizes: Vec::new(),
            movement: MovementModel::Pure,
        }
    }

    /// Assigns disjoint task groups of the given sizes (robot ids are
    /// allocated in order; the remainder belongs to no group).
    ///
    /// # Panics
    ///
    /// Panics if the sizes sum to more than the swarm size.
    pub fn with_groups(mut self, sizes: &[usize]) -> Self {
        assert!(
            sizes.iter().sum::<usize>() <= self.num_robots,
            "group sizes exceed swarm size"
        );
        self.group_sizes = sizes.to_vec();
        self
    }

    /// Replaces the movement model (e.g. lazy walks for robots with duty
    /// cycles).
    pub fn with_movement(mut self, movement: MovementModel) -> Self {
        self.movement = movement;
        self
    }

    /// Runs the swarm: a [`Scenario`] of its robots, movement and task
    /// groups on the `side × side` torus.
    pub fn run(&self, seed: u64) -> SwarmReport {
        let tallies = Scenario::new(
            TopologySpec::Torus2d { side: self.side },
            self.num_robots,
            self.rounds,
        )
        .with_movement(self.movement.clone())
        .with_groups(&self.group_sizes)
        .run_observed(seed, &mut Alg1Observer);
        let n = self.num_robots;
        let t = self.rounds as f64;
        let per_group = tallies.group_totals().unwrap_or_default();
        let mut group = vec![None; n];
        let mut next = 0;
        for (g, &size) in self.group_sizes.iter().enumerate() {
            group[next..next + size].fill(Some(g));
            next += size;
        }
        let estimates = (0..n)
            .map(|r| RobotEstimate {
                density: tallies.totals()[r] as f64 / t,
                group_densities: per_group
                    .chunks_exact(n)
                    .map(|row| row[r] as f64 / t)
                    .collect(),
                group: group[r],
            })
            .collect();
        SwarmReport {
            estimates,
            group_sizes: self.group_sizes.clone(),
            num_robots: n,
            nodes: self.side * self.side,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn density_estimate_tracks_truth() {
        let report = SwarmConfig::new(16, 65, 1024).run(1);
        let d = report.mean_density();
        let truth = report.true_density(); // 64/256 = 0.25
        assert!((d - truth).abs() / truth < 0.15, "density {d} vs {truth}");
    }

    #[test]
    fn two_group_frequencies_sum_below_one() {
        let report = SwarmConfig::new(16, 64, 512).with_groups(&[16, 16]).run(2);
        let f0 = report.mean_frequency(0).unwrap();
        let f1 = report.mean_frequency(1).unwrap();
        assert!(f0 + f1 < 1.0 + 0.1);
        assert!((f0 - report.true_frequency(0)).abs() < 0.12, "f0 {f0}");
        assert!((f1 - report.true_frequency(1)).abs() < 0.12, "f1 {f1}");
    }

    #[test]
    fn group_membership_recorded() {
        let report = SwarmConfig::new(8, 10, 10).with_groups(&[3, 2]).run(3);
        let groups: Vec<Option<usize>> = report.estimates().iter().map(|e| e.group).collect();
        assert_eq!(groups[0], Some(0));
        assert_eq!(groups[2], Some(0));
        assert_eq!(groups[3], Some(1));
        assert_eq!(groups[4], Some(1));
        assert_eq!(groups[5], None);
        assert_eq!(report.num_groups(), 2);
    }

    #[test]
    fn frequencies_more_accurate_with_time() {
        let short = SwarmConfig::new(16, 64, 32).with_groups(&[32]).run(4);
        let long = SwarmConfig::new(16, 64, 2048).with_groups(&[32]).run(4);
        let err = |r: &SwarmReport| (r.mean_frequency(0).unwrap() - r.true_frequency(0)).abs();
        assert!(
            err(&long) <= err(&short) + 0.02,
            "long {} vs short {}",
            err(&long),
            err(&short)
        );
    }

    #[test]
    fn empty_group_list_is_fine() {
        let report = SwarmConfig::new(8, 12, 64).run(5);
        assert_eq!(report.num_groups(), 0);
        assert!(report.mean_density() >= 0.0);
    }

    #[test]
    fn lazy_movement_supported() {
        let report = SwarmConfig::new(16, 33, 256)
            .with_movement(MovementModel::lazy(0.3))
            .run(6);
        let truth = report.true_density();
        assert!((report.mean_density() - truth).abs() / truth < 0.3);
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = SwarmConfig::new(8, 12, 32).with_groups(&[4]);
        assert_eq!(cfg.run(9), cfg.run(9));
        assert_ne!(cfg.run(9), cfg.run(10));
    }

    /// `run` walks on `Scenario::run`'s streams: the robots' overall
    /// densities are the Algorithm 1 estimates, and their group-0
    /// densities the relative-frequency property estimates, of the
    /// same scenario and seed; another seed's are not.
    #[test]
    fn run_steps_on_the_seeds_stepping_stream() {
        use antdensity_engine::EstimatorSpec;
        let cfg = SwarmConfig::new(8, 12, 32).with_groups(&[4]);
        let report = cfg.run(9);
        let densities: Vec<f64> = report.estimates.iter().map(|e| e.density).collect();
        let group0: Vec<f64> = report
            .estimates
            .iter()
            .map(|e| e.group_densities[0])
            .collect();
        let relfreq = |seed| {
            Scenario::new(TopologySpec::Torus2d { side: 8 }, 12, 32)
                .with_estimator(EstimatorSpec::RelativeFrequency { property_agents: 4 })
                .run(seed)
        };
        let same = relfreq(9);
        assert_eq!(densities, same.estimates);
        assert_eq!(Some(group0), same.property_estimates);
        assert_ne!(densities, relfreq(10).estimates);
    }

    #[test]
    #[should_panic(expected = "exceed swarm size")]
    fn oversized_groups_rejected() {
        let _ = SwarmConfig::new(8, 10, 10).with_groups(&[6, 5]);
    }
}
