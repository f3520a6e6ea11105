//! Algorithm 3: average-degree estimation by inverse-degree sampling.
//!
//! Algorithm 2 needs `deḡ = 2|E|/|V|` as an input. The paper estimates
//! `1/deḡ` from stationary samples: a stationary walk sits at `v` with
//! probability `deg(v)/2|E|`, so `E[1/deg(w)] = |V|/2|E| = 1/deḡ`
//! exactly. Theorem 31: `n = Θ(deḡ/(deg_min·ε²·δ))` samples give a
//! `(1±ε)` estimate w.p. `1−δ`.

use antdensity_graphs::{CsrGraph, NodeId, Topology};
use antdensity_stats::rng::SeedSequence;

/// Result of an average-degree estimation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegreeEstimate {
    /// Estimate `D` of the *inverse* average degree `1/deḡ`.
    pub inverse_avg_degree: f64,
    /// The implied average-degree estimate `1/D` (infinite if `D = 0`,
    /// which cannot happen for valid graphs).
    pub avg_degree: f64,
    /// Samples used.
    pub samples: usize,
}

/// Estimates `1/deḡ` from explicit stationary positions — the paper's
/// `D := Σ 1/deg(wⱼ) / n`.
///
/// # Panics
///
/// Panics if `positions` is empty or contains an out-of-range node.
pub fn estimate_from_positions(graph: &CsrGraph, positions: &[NodeId]) -> DegreeEstimate {
    assert!(!positions.is_empty(), "need at least one sample");
    let sum: f64 = positions
        .iter()
        .map(|&v| 1.0 / graph.degree(v) as f64)
        .sum();
    let d = sum / positions.len() as f64;
    DegreeEstimate {
        inverse_avg_degree: d,
        avg_degree: 1.0 / d,
        samples: positions.len(),
    }
}

/// Draws `samples` stationary positions and estimates `1/deḡ`.
///
/// # Panics
///
/// Panics if `samples == 0`.
pub fn estimate_avg_degree(graph: &CsrGraph, samples: usize, seed: u64) -> DegreeEstimate {
    assert!(samples > 0, "need at least one sample");
    let seq = SeedSequence::new(seed);
    let mut rng = seq.rng(0);
    let positions: Vec<NodeId> = (0..samples)
        .map(|_| graph.sample_stationary(&mut rng))
        .collect();
    estimate_from_positions(graph, &positions)
}

/// Theorem 31's sample budget `n = c·deḡ/(deg_min·ε²·δ)`.
pub fn required_samples(graph: &CsrGraph, eps: f64, delta: f64, c: f64) -> usize {
    antdensity_stats::bounds::theorem31_walks(
        graph.avg_degree(),
        graph.min_degree() as f64,
        eps,
        delta,
        c,
    )
    .ceil() as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use antdensity_graphs::generators;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn exact_on_regular_graph_any_sample() {
        // On a d-regular graph every sample contributes 1/d: the estimate
        // is exact with a single sample.
        let mut rng = SmallRng::seed_from_u64(1);
        let g = generators::random_regular(64, 6, 300, &mut rng).unwrap();
        let est = estimate_avg_degree(&g, 1, 0);
        assert!((est.avg_degree - 6.0).abs() < 1e-12);
    }

    #[test]
    fn unbiased_on_irregular_graph() {
        let mut rng = SmallRng::seed_from_u64(2);
        let g = generators::barabasi_albert(300, 3, &mut rng).unwrap();
        let truth = 1.0 / g.avg_degree();
        let est = estimate_avg_degree(&g, 200_000, 1);
        assert!(
            (est.inverse_avg_degree - truth).abs() / truth < 0.02,
            "estimate {} vs truth {truth}",
            est.inverse_avg_degree
        );
    }

    #[test]
    fn theorem31_budget_achieves_accuracy() {
        let mut rng = SmallRng::seed_from_u64(3);
        let g = generators::watts_strogatz(200, 6, 0.2, &mut rng).unwrap();
        let (eps, delta) = (0.1, 0.1);
        let n = required_samples(&g, eps, delta, 1.0);
        let truth = 1.0 / g.avg_degree();
        // run 50 independent estimates; at least (1-delta) within (1±eps)
        let ok = (0..50)
            .filter(|&s| {
                let est = estimate_avg_degree(&g, n, s);
                (est.inverse_avg_degree - truth).abs() <= eps * truth
            })
            .count();
        assert!(ok >= 45, "only {ok}/50 estimates within band (n = {n})");
    }

    #[test]
    fn estimate_from_explicit_positions() {
        let g = generators::star_graph(5); // deg(0) = 4, deg(leaf) = 1
        let est = estimate_from_positions(&g, &[0, 1, 2]);
        let expected = (0.25 + 1.0 + 1.0) / 3.0;
        assert!((est.inverse_avg_degree - expected).abs() < 1e-12);
        assert_eq!(est.samples, 3);
    }

    #[test]
    fn required_samples_scale_with_degree_skew() {
        let mut rng = SmallRng::seed_from_u64(4);
        let regular = generators::random_regular(100, 4, 300, &mut rng).unwrap();
        let skewed = generators::barabasi_albert(100, 2, &mut rng).unwrap();
        let n_reg = required_samples(&regular, 0.1, 0.1, 1.0);
        let n_skew = required_samples(&skewed, 0.1, 0.1, 1.0);
        assert!(
            n_skew > n_reg,
            "skewed graphs need more samples: {n_skew} vs {n_reg}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let mut rng = SmallRng::seed_from_u64(5);
        let g = generators::barabasi_albert(50, 2, &mut rng).unwrap();
        assert_eq!(
            estimate_avg_degree(&g, 100, 9),
            estimate_avg_degree(&g, 100, 9)
        );
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn empty_positions_rejected() {
        let g = generators::cycle_graph(4);
        let _ = estimate_from_positions(&g, &[]);
    }
}
