//! The i.i.d. sampling baseline of Section 1.1.
//!
//! On the complete graph "each agent steps to a uniformly random position
//! and, in expectation, the number of other agents it collides with in
//! this step is d. … The agents are effectively taking independent
//! Bernoulli samples with success probability d." This module samples
//! that process *directly* — each round's collision count is an exact
//! `Binomial(n, 1/A)` draw — so the baseline costs O(t) per agent
//! regardless of population size, letting experiments compare the torus
//! against the idealised baseline at large scale.

use antdensity_engine::sampling::sample_binomial_u64;
use antdensity_engine::ScenarioOutcome;
use antdensity_stats::rng::SeedSequence;

/// The idealised independent-sampling estimator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IidBaseline {
    others: u64,
    area: u64,
    rounds: u64,
}

impl IidBaseline {
    /// An agent observing `others = n` other agents on `area = A` nodes
    /// for `rounds = t` rounds (density `d = n/A`).
    ///
    /// # Panics
    ///
    /// Panics if `area == 0` or `rounds == 0`.
    pub fn new(others: u64, area: u64, rounds: u64) -> Self {
        assert!(area > 0, "area must be positive");
        assert!(rounds > 0, "need at least one round");
        Self {
            others,
            area,
            rounds,
        }
    }

    /// The density `d = n/A` being estimated.
    pub fn density(&self) -> f64 {
        self.others as f64 / self.area as f64
    }

    /// Draws `num_estimators` independent estimates (each the average of
    /// `t` i.i.d. `Binomial(n, 1/A)` rounds), one per outcome slot.
    pub fn run(&self, num_estimators: usize, seed: u64) -> ScenarioOutcome {
        assert!(num_estimators > 0, "need at least one estimator");
        let seq = SeedSequence::new(seed);
        let mut rng = seq.rng(0);
        let p = 1.0 / self.area as f64;
        let mut counts = Vec::with_capacity(num_estimators);
        for _ in 0..num_estimators {
            let mut c = 0u64;
            for _ in 0..self.rounds {
                c += sample_binomial_u64(self.others, p, &mut rng);
            }
            counts.push(c);
        }
        ScenarioOutcome {
            estimates: counts
                .iter()
                .map(|&c| c as f64 / self.rounds as f64)
                .collect(),
            collision_counts: counts,
            property_estimates: None,
            quorum_decisions: None,
            walking: None,
            rounds: self.rounds,
            true_density: self.density(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn baseline_mean_matches_density() {
        let b = IidBaseline::new(128, 1024, 256); // d = 0.125
        let run = b.run(200, 1);
        assert!((run.mean_estimate() - 0.125).abs() < 0.005);
        assert_eq!(run.true_density, 0.125);
    }

    #[test]
    fn error_decays_like_inverse_sqrt_t() {
        let d = 0.125;
        let short = IidBaseline::new(128, 1024, 64).run(400, 2);
        let long = IidBaseline::new(128, 1024, 1024).run(400, 3);
        let rms = |r: &ScenarioOutcome| {
            let e = r.relative_errors();
            (e.iter().map(|x| x * x).sum::<f64>() / e.len() as f64).sqrt()
        };
        let ratio = rms(&short) / rms(&long);
        // t grew 16x so rms error should shrink ~4x
        assert!(
            (ratio - 4.0).abs() < 1.2,
            "ratio {ratio} should be near 4 (d = {d})"
        );
    }

    // `run` draws every round from the engine's exact sampler; these pin
    // the draws it makes at the baseline's tiny `np` and far beyond it.
    #[test]
    fn binomial_u64_mean_and_edge_cases() {
        let mut rng = SmallRng::seed_from_u64(4);
        assert_eq!(sample_binomial_u64(0, 0.5, &mut rng), 0);
        assert_eq!(sample_binomial_u64(10, 0.0, &mut rng), 0);
        assert_eq!(sample_binomial_u64(10, 1.0, &mut rng), 10);
        let trials = 40_000;
        let total: u64 = (0..trials)
            .map(|_| sample_binomial_u64(2000, 0.001, &mut rng))
            .sum();
        let mean = total as f64 / trials as f64;
        assert!((mean - 2.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn binomial_u64_huge_n_normal_path() {
        let mut rng = SmallRng::seed_from_u64(5);
        // np = 5e5, where an inversion sampler would underflow P(0);
        // sanity-check the scale.
        let trials = 2000;
        let total: u64 = (0..trials)
            .map(|_| sample_binomial_u64(1_000_000, 0.5, &mut rng))
            .sum();
        let mean = total as f64 / trials as f64;
        assert!((mean - 500_000.0).abs() < 200.0, "mean {mean}");
    }

    #[test]
    fn chernoff_coverage_holds() {
        // After chernoff_rounds(eps, delta, d) rounds, at least 1 - delta
        // of estimators are within (1 +- eps) d.
        let d = 0.125;
        let (eps, delta) = (0.2, 0.1);
        let t = antdensity_stats::bounds::chernoff_rounds(eps, delta, d).ceil() as u64;
        let run = IidBaseline::new(128, 1024, t).run(1000, 6);
        let cover = run.fraction_within(eps);
        assert!(
            cover >= 1.0 - delta,
            "coverage {cover} below 1 - delta = {}",
            1.0 - delta
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let b = IidBaseline::new(10, 100, 50);
        assert_eq!(b.run(20, 9), b.run(20, 9));
    }
}
