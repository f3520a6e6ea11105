//! Single-walk network-size estimation (the \[LL12\]/\[KBM12\] approach the
//! paper contrasts with in Section 5.1: "One approach is to run a single
//! random walk and count repeat node visits").
//!
//! One walk takes `k` thinned samples (every `gap` steps); colliding
//! sample pairs, degree-weighted, estimate `Σ_v π(v)²`-style mass and
//! hence `|V|` by the same algebra as Algorithm 2:
//! for stationary independent samples,
//! `E[1/deg · 1{Yᵢ = Yⱼ}] = Σ_v π(v)²/deg(v) = 1/(deḡ·|V|)`,
//! so `Â = P/(deḡ·C_w)` with `P` the number of pairs and `C_w` the
//! degree-weighted collision count.
//!
//! The thinning `gap` controls the dependence between samples: small
//! gaps are cheap (fewer link queries per sample) but correlated
//! (under-estimating `|V|` because nearby samples re-collide), large gaps
//! approach independence. The bias-vs-cost trade-off is exactly the
//! local-mixing phenomenon the paper analyses, and is measured in the
//! harness.

use crate::queries::QueryCount;
use antdensity_graphs::{CsrGraph, NodeId, Topology};
use antdensity_stats::rng::SeedSequence;

/// The outcome of a single-walk estimation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SingleWalkRun {
    /// The size estimate `Â` (infinite if no sample pairs collided).
    pub estimate: f64,
    /// Number of thinned samples taken.
    pub samples: usize,
    /// Degree-weighted collision mass over sample pairs.
    pub weighted_collisions: f64,
    /// Link queries spent (`samples · gap` walk steps).
    pub queries: QueryCount,
}

/// Configuration: `samples` thinned observations, one every `gap` steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SingleWalk {
    samples: usize,
    gap: u64,
}

impl SingleWalk {
    /// Creates a configuration.
    ///
    /// # Panics
    ///
    /// Panics if `samples < 2` (pairs are needed) or `gap == 0`.
    pub fn new(samples: usize, gap: u64) -> Self {
        assert!(samples >= 2, "need at least two samples to collide");
        assert!(gap > 0, "thinning gap must be positive");
        Self { samples, gap }
    }

    /// Number of samples.
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// Thinning gap.
    pub fn gap(&self) -> u64 {
        self.gap
    }

    /// Runs the estimator from `start` (pass a stationary sample for the
    /// idealised analysis, or any seed vertex plus enough initial gap in
    /// the realistic one).
    ///
    /// # Panics
    ///
    /// Panics if `avg_degree <= 0` or `start` is out of range.
    pub fn run(
        &self,
        graph: &CsrGraph,
        avg_degree: f64,
        start: NodeId,
        seed: u64,
    ) -> SingleWalkRun {
        assert!(avg_degree > 0.0, "average degree must be positive");
        assert!(start < graph.num_nodes(), "start node out of range");
        let seq = SeedSequence::new(seed);
        let mut rng = seq.rng(0);
        let mut v = start;
        let mut observed: Vec<NodeId> = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            for _ in 0..self.gap {
                v = graph.random_neighbor(v, &mut rng);
            }
            observed.push(v);
        }
        // weighted collision mass over all pairs: group samples by node,
        // summed in ascending node order so the float total is the same
        // in every process.
        observed.sort_unstable();
        let weighted: f64 = observed
            .chunk_by(|a, b| a == b)
            .filter(|run| run.len() >= 2)
            .map(|run| {
                let cf = run.len() as f64;
                cf * (cf - 1.0) / 2.0 / graph.degree(run[0]) as f64
            })
            .sum();
        let pairs = self.samples as f64 * (self.samples as f64 - 1.0) / 2.0;
        let estimate = if weighted > 0.0 {
            pairs / (avg_degree * weighted)
        } else {
            f64::INFINITY
        };
        SingleWalkRun {
            estimate,
            samples: self.samples,
            weighted_collisions: weighted,
            queries: QueryCount {
                burnin: 0,
                walking: self.samples as u64 * self.gap,
                degree_sampling: 0,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use antdensity_graphs::generators;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn median(mut xs: Vec<f64>) -> f64 {
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        xs[xs.len() / 2]
    }

    #[test]
    fn recovers_size_with_large_gap() {
        let mut rng = SmallRng::seed_from_u64(1);
        let g = generators::random_regular(256, 8, 500, &mut rng).unwrap();
        // gap 32 >> mixing time of an 8-regular expander on 256 nodes
        let sw = SingleWalk::new(200, 32);
        let ests: Vec<f64> = (0..15)
            .map(|s| sw.run(&g, 8.0, g.sample_stationary(&mut rng), s).estimate)
            .filter(|e| e.is_finite())
            .collect();
        assert!(ests.len() >= 12);
        let med = median(ests);
        assert!(
            (med - 256.0).abs() / 256.0 < 0.35,
            "median estimate {med} for |V| = 256"
        );
    }

    #[test]
    fn tiny_gap_biases_low() {
        // gap 1 samples are heavily correlated: nearby samples re-collide,
        // inflating the collision mass and deflating the estimate.
        let mut rng = SmallRng::seed_from_u64(2);
        let g = generators::random_regular(256, 8, 500, &mut rng).unwrap();
        let tight = SingleWalk::new(200, 1);
        let ests: Vec<f64> = (0..15)
            .map(|s| {
                tight
                    .run(&g, 8.0, g.sample_stationary(&mut rng), s)
                    .estimate
            })
            .filter(|e| e.is_finite())
            .collect();
        let med = median(ests);
        assert!(
            med < 256.0 * 0.8,
            "gap-1 estimate {med} should under-shoot |V| = 256"
        );
    }

    #[test]
    fn query_accounting() {
        let mut rng = SmallRng::seed_from_u64(3);
        let g = generators::random_regular(64, 4, 500, &mut rng).unwrap();
        let run = SingleWalk::new(10, 7).run(&g, 4.0, 0, 1);
        assert_eq!(run.queries.walking, 70);
        assert_eq!(run.queries.total(), 70);
        assert_eq!(run.samples, 10);
    }

    #[test]
    fn no_collisions_give_infinity() {
        // 2 samples on a big graph almost surely differ.
        let mut rng = SmallRng::seed_from_u64(4);
        let g = generators::random_regular(2048, 4, 500, &mut rng).unwrap();
        let run = SingleWalk::new(2, 50).run(&g, 4.0, 0, 5);
        assert!(run.estimate.is_infinite() || run.estimate > 0.0);
    }

    #[test]
    fn works_on_irregular_graphs() {
        let mut rng = SmallRng::seed_from_u64(5);
        let g = generators::barabasi_albert(400, 3, &mut rng).unwrap();
        let sw = SingleWalk::new(250, 24);
        let ests: Vec<f64> = (0..15)
            .map(|s| {
                sw.run(&g, g.avg_degree(), g.sample_stationary(&mut rng), s)
                    .estimate
            })
            .filter(|e| e.is_finite())
            .collect();
        let med = median(ests);
        assert!(
            (med - 400.0).abs() / 400.0 < 0.4,
            "median estimate {med} for |V| = 400"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let mut rng = SmallRng::seed_from_u64(6);
        let g = generators::random_regular(64, 4, 500, &mut rng).unwrap();
        let sw = SingleWalk::new(20, 5);
        assert_eq!(sw.run(&g, 4.0, 0, 9), sw.run(&g, 4.0, 0, 9));
    }

    #[test]
    #[should_panic(expected = "two samples")]
    fn one_sample_rejected() {
        let _ = SingleWalk::new(1, 5);
    }
}
