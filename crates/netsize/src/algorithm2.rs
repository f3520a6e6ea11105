//! Algorithm 2: random-walk-based network size estimation.
//!
//! The paper's pseudocode:
//!
//! ```text
//! input: step count t, average degree deḡ, n walks w₁..w_n started from
//!        the stationary distribution
//! [c₁..c_n] := 0
//! for r = 1..t:
//!     ∀j: w_j := randomElement(Γ(w_j))
//!     ∀j: c_j := c_j + count(w_j)/deg(w_j)
//! C := deḡ·Σc_j / (n(n−1)t)
//! return Â = 1/C
//! ```
//!
//! Collisions are weighted by `1/deg` because the stationary distribution
//! visits high-degree vertices more often; the weighting debiases exactly
//! (Lemma 28: `E[C] = 1/|V|`).

use crate::burnin;
use crate::queries::QueryCount;
use antdensity_graphs::{CsrGraph, NodeId, Topology};
use antdensity_stats::rng::SeedSequence;

/// How walks obtain their starting positions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StartMode {
    /// Independent samples from the exact stationary distribution — the
    /// idealised setting of Theorem 27 (burn-in analysed separately).
    Stationary,
    /// All walks start at one seed vertex and burn in for the given
    /// number of steps first (the realistic crawler setting, Section
    /// 5.1.4). Burn-in steps are charged to the query meter.
    SeedWithBurnin {
        /// The known seed vertex.
        seed_vertex: NodeId,
        /// Burn-in steps before collision counting starts.
        steps: u64,
    },
}

/// The outcome of one Algorithm 2 run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetSizeRun {
    /// The size estimate `Â = 1/C` (infinite if no collisions occurred).
    pub estimate: f64,
    /// The degree-weighted collision total `Σ_j c_j`.
    pub weighted_collisions: f64,
    /// Link queries spent.
    pub queries: QueryCount,
    /// Number of walks `n`.
    pub walks: usize,
    /// Rounds of collision counting `t`.
    pub rounds: u64,
}

/// Configuration for Algorithm 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Algorithm2 {
    num_walks: usize,
    rounds: u64,
}

impl Algorithm2 {
    /// `num_walks` walks (`n ≥ 2`), `rounds` collision-counting steps.
    ///
    /// # Panics
    ///
    /// Panics if `num_walks < 2` (the estimator divides by `n(n−1)`) or
    /// `rounds == 0`.
    pub fn new(num_walks: usize, rounds: u64) -> Self {
        assert!(num_walks >= 2, "need at least two walks to collide");
        assert!(rounds > 0, "need at least one round");
        Self { num_walks, rounds }
    }

    /// Number of walks `n`.
    pub fn num_walks(&self) -> usize {
        self.num_walks
    }

    /// Number of counting rounds `t`.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Runs the estimator on `graph`, with `avg_degree` supplied
    /// externally (in the full pipeline, by Algorithm 3).
    ///
    /// # Panics
    ///
    /// Panics if `avg_degree <= 0` or a burn-in seed vertex is out of
    /// range.
    pub fn run(
        &self,
        graph: &CsrGraph,
        avg_degree: f64,
        start: StartMode,
        seed: u64,
    ) -> NetSizeRun {
        assert!(avg_degree > 0.0, "average degree must be positive");
        let seq = SeedSequence::new(seed);
        let mut rng = seq.rng(0);
        let mut queries = QueryCount::new();
        let mut positions: Vec<NodeId> = match start {
            StartMode::Stationary => (0..self.num_walks)
                .map(|_| graph.sample_stationary(&mut rng))
                .collect(),
            StartMode::SeedWithBurnin { seed_vertex, steps } => {
                assert!(
                    seed_vertex < graph.num_nodes(),
                    "seed vertex {seed_vertex} out of range"
                );
                let pos = burnin::burn_in(graph, seed_vertex, steps, self.num_walks, &mut rng);
                queries.burnin = steps * self.num_walks as u64;
                pos
            }
        };
        let mut weighted: f64 = 0.0;
        let mut sorted: Vec<NodeId> = Vec::with_capacity(self.num_walks);
        for _ in 0..self.rounds {
            for p in positions.iter_mut() {
                *p = graph.random_neighbor(*p, &mut rng);
            }
            queries.walking += self.num_walks as u64;
            // Sum in ascending node order, so the float total is the same
            // in every process.
            sorted.clear();
            sorted.extend_from_slice(&positions);
            sorted.sort_unstable();
            for run in sorted.chunk_by(|a, b| a == b) {
                if run.len() >= 2 {
                    // each of the occ walkers counts (occ-1) others,
                    // weighted by 1/deg(node)
                    let occ = run.len() as f64;
                    weighted += occ * (occ - 1.0) / graph.degree(run[0]) as f64;
                }
            }
        }
        let n = self.num_walks as f64;
        let c = avg_degree * weighted / (n * (n - 1.0) * self.rounds as f64);
        let estimate = if c > 0.0 { 1.0 / c } else { f64::INFINITY };
        NetSizeRun {
            estimate,
            weighted_collisions: weighted,
            queries,
            walks: self.num_walks,
            rounds: self.rounds,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use antdensity_graphs::generators;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn unbiased_inverse_size_on_regular_graph() {
        // Lemma 28: E[C] = 1/|V|. Average C over many runs on a graph of
        // known size.
        let mut rng = SmallRng::seed_from_u64(1);
        let g = generators::random_regular(256, 6, 300, &mut rng).unwrap();
        let alg = Algorithm2::new(64, 32);
        let runs = 40;
        let mean_c: f64 = (0..runs)
            .map(|s| {
                let r = alg.run(&g, 6.0, StartMode::Stationary, s);
                let n = r.walks as f64;
                6.0 * r.weighted_collisions / (n * (n - 1.0) * r.rounds as f64)
            })
            .sum::<f64>()
            / runs as f64;
        let truth = 1.0 / 256.0;
        assert!(
            (mean_c - truth).abs() / truth < 0.15,
            "mean C {mean_c} vs 1/|V| {truth}"
        );
    }

    #[test]
    fn estimates_size_of_irregular_graph() {
        // Barabasi-Albert: heavy-tailed degrees stress the 1/deg weights.
        let mut rng = SmallRng::seed_from_u64(2);
        let g = generators::barabasi_albert(500, 3, &mut rng).unwrap();
        let alg = Algorithm2::new(150, 80);
        // median across seeds for robustness
        let mut ests: Vec<f64> = (0..15)
            .map(|s| {
                alg.run(&g, g.avg_degree(), StartMode::Stationary, s)
                    .estimate
            })
            .collect();
        ests.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let med = ests[ests.len() / 2];
        assert!(
            (med - 500.0).abs() / 500.0 < 0.3,
            "median estimate {med} should be near 500"
        );
    }

    #[test]
    fn query_accounting_stationary() {
        let mut rng = SmallRng::seed_from_u64(3);
        let g = generators::random_regular(64, 4, 300, &mut rng).unwrap();
        let run = Algorithm2::new(10, 7).run(&g, 4.0, StartMode::Stationary, 1);
        assert_eq!(run.queries.burnin, 0);
        assert_eq!(run.queries.walking, 70);
        assert_eq!(run.queries.total(), 70);
    }

    #[test]
    fn query_accounting_with_burnin() {
        let mut rng = SmallRng::seed_from_u64(4);
        let g = generators::random_regular(64, 4, 300, &mut rng).unwrap();
        let run = Algorithm2::new(10, 7).run(
            &g,
            4.0,
            StartMode::SeedWithBurnin {
                seed_vertex: 0,
                steps: 25,
            },
            1,
        );
        assert_eq!(run.queries.burnin, 250);
        assert_eq!(run.queries.walking, 70);
    }

    #[test]
    fn no_collisions_give_infinite_estimate() {
        // 2 walks, 1 round, big graph: collisions are very unlikely.
        let mut rng = SmallRng::seed_from_u64(5);
        let g = generators::random_regular(2048, 4, 300, &mut rng).unwrap();
        let run = Algorithm2::new(2, 1).run(&g, 4.0, StartMode::Stationary, 7);
        assert!(run.estimate.is_infinite() || run.estimate > 0.0);
    }

    #[test]
    fn more_walks_tighten_the_estimate() {
        let mut rng = SmallRng::seed_from_u64(6);
        let g = generators::random_regular(512, 6, 300, &mut rng).unwrap();
        let spread = |walks: usize| {
            let ests: Vec<f64> = (0..12)
                .map(|s| {
                    Algorithm2::new(walks, 40)
                        .run(&g, 6.0, StartMode::Stationary, 100 + s)
                        .estimate
                })
                .filter(|e| e.is_finite())
                .collect();
            let m = ests.iter().sum::<f64>() / ests.len() as f64;
            (ests.iter().map(|e| (e - m) * (e - m)).sum::<f64>() / ests.len() as f64).sqrt()
        };
        let narrow = spread(128);
        let wide = spread(24);
        assert!(
            narrow < wide,
            "128-walk spread {narrow} should beat 24-walk spread {wide}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let mut rng = SmallRng::seed_from_u64(8);
        let g = generators::random_regular(128, 4, 300, &mut rng).unwrap();
        let alg = Algorithm2::new(16, 8);
        assert_eq!(
            alg.run(&g, 4.0, StartMode::Stationary, 3),
            alg.run(&g, 4.0, StartMode::Stationary, 3)
        );
    }

    #[test]
    #[should_panic(expected = "at least two walks")]
    fn rejects_single_walk() {
        let _ = Algorithm2::new(1, 10);
    }
}
