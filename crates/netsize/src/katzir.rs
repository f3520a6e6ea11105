//! The KLSC14 baseline (Katzir, Liberty, Somekh, Cosma: "Estimating sizes
//! of social networks via biased sampling").
//!
//! Their estimator halts walks immediately after burn-in and counts
//! degree-weighted collisions in that single final round; the paper's
//! Algorithm 2 generalises it to `t` counting rounds. With `t = 1` and a
//! matched query budget the two coincide, so this module is a thin,
//! faithfully-named wrapper plus the sample-size requirement of
//! Section 5.1.5's comparison:
//! `n = Θ(|V|·deḡ/(ε²δ·√(Σ deg(v)²)))`.

use crate::algorithm2::{Algorithm2, NetSizeRun, StartMode};
use antdensity_graphs::{CsrGraph, Topology};

/// The KLSC14 single-round collision estimator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Katzir {
    num_walks: usize,
}

impl Katzir {
    /// Creates the baseline with `num_walks ≥ 2` walks.
    ///
    /// # Panics
    ///
    /// Panics if `num_walks < 2`.
    pub fn new(num_walks: usize) -> Self {
        assert!(num_walks >= 2, "need at least two walks to collide");
        Self { num_walks }
    }

    /// Number of walks.
    pub fn num_walks(&self) -> usize {
        self.num_walks
    }

    /// Runs the baseline: burn-in (or stationary start), then one
    /// collision-counting round.
    pub fn run(
        &self,
        graph: &CsrGraph,
        avg_degree: f64,
        start: StartMode,
        seed: u64,
    ) -> NetSizeRun {
        Algorithm2::new(self.num_walks, 1).run(graph, avg_degree, start, seed)
    }

    /// The walk budget KLSC14 needs for a `(1±ε)` estimate w.p. `1−δ`
    /// ("for reasonable node degrees they require
    /// `n = Θ(|V|·deḡ/(ε²δ·√Σdeg²))`", Section 5.1.5).
    pub fn required_walks(graph: &CsrGraph, eps: f64, delta: f64, c: f64) -> usize {
        assert!(eps > 0.0 && eps < 1.0, "eps must lie in (0,1)");
        assert!(delta > 0.0 && delta < 1.0, "delta must lie in (0,1)");
        let v = graph.num_nodes() as f64;
        let n =
            c * v * graph.avg_degree() / (eps * eps * delta * graph.sum_degree_squared().sqrt());
        n.ceil() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use antdensity_graphs::generators;
    use antdensity_graphs::Topology;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn katzir_estimates_size_with_enough_walks() {
        let mut rng = SmallRng::seed_from_u64(1);
        let g = generators::random_regular(256, 6, 300, &mut rng).unwrap();
        // regular graph: sqrt(sum deg^2) = deg * sqrt(V); requirement
        // n ~ V * d / (eps^2 delta d sqrt(V)) = sqrt(V)/(eps^2 delta).
        let n = Katzir::required_walks(&g, 0.3, 0.2, 1.0);
        let k = Katzir::new(n);
        let mut ests: Vec<f64> = (0..15)
            .map(|s| k.run(&g, 6.0, StartMode::Stationary, s).estimate)
            .filter(|e| e.is_finite())
            .collect();
        assert!(ests.len() >= 10, "most runs must see collisions");
        ests.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let med = ests[ests.len() / 2];
        assert!(
            (med - 256.0).abs() / 256.0 < 0.5,
            "median estimate {med} for |V| = 256"
        );
    }

    #[test]
    fn required_walks_grow_with_graph_size() {
        let mut rng = SmallRng::seed_from_u64(2);
        let small = generators::random_regular(64, 4, 300, &mut rng).unwrap();
        let large = generators::random_regular(1024, 4, 300, &mut rng).unwrap();
        let n_small = Katzir::required_walks(&small, 0.2, 0.2, 1.0);
        let n_large = Katzir::required_walks(&large, 0.2, 0.2, 1.0);
        // regular graph: requirement scales as sqrt(|V|): x16 nodes -> x4
        let ratio = n_large as f64 / n_small as f64;
        assert!(
            (ratio - 4.0).abs() < 0.5,
            "ratio {ratio} should be ~4 for 16x nodes"
        );
    }

    #[test]
    fn single_round_uses_one_query_per_walk() {
        let mut rng = SmallRng::seed_from_u64(3);
        let g = generators::random_regular(64, 4, 300, &mut rng).unwrap();
        let run = Katzir::new(30).run(&g, 4.0, StartMode::Stationary, 1);
        assert_eq!(run.queries.walking, 30);
        assert_eq!(run.rounds, 1);
    }

    #[test]
    fn burnin_dominates_katzir_queries() {
        // The motivation for Algorithm 2: with slow mixing, KLSC14 pays
        // the burn-in for every one of its many walks.
        let mut rng = SmallRng::seed_from_u64(4);
        let g = generators::watts_strogatz(256, 4, 0.1, &mut rng).unwrap();
        let run = Katzir::new(50).run(
            &g,
            g.avg_degree(),
            StartMode::SeedWithBurnin {
                seed_vertex: 0,
                steps: 200,
            },
            1,
        );
        assert!(run.queries.burnin > 100 * run.queries.walking);
        let _ = g.num_nodes();
    }

    #[test]
    #[should_panic(expected = "at least two walks")]
    fn rejects_one_walk() {
        let _ = Katzir::new(1);
    }
}
