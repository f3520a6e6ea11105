//! Burn-in: from a seed vertex to (approximate) stationarity.
//!
//! Section 5.1.4 of the paper: random walks cannot start at uniformly
//! random nodes (sampling nodes is the very problem being solved), so all
//! walks start at a known seed vertex and walk `M = O(log(|E|/δ)/(1−λ))`
//! burn-in steps, after which their locations are within total-variation
//! distance `δ` of stationarity and Theorem 27 applies with failure
//! probability `2δ`.
//!
//! The burn-in walk itself runs inside Algorithm 2
//! ([`crate::algorithm2::StartMode::SeedWithBurnin`]): uncounted rounds
//! of the engine that then counts collisions. This module plans its
//! length and measures how close it gets.

use antdensity_graphs::spectral;
use antdensity_graphs::{CsrGraph, NodeId, WalkDistribution};

/// The paper's burn-in length `M = c·ln(|E|/δ)/(1−λ)` (Section 5.1.4),
/// with λ measured by power iteration if not supplied.
///
/// # Panics
///
/// Panics if `delta ∉ (0,1)` or the measured/supplied λ is ≥ 1 (bipartite
/// or disconnected graphs never mix — burn-in is undefined there).
pub fn recommended_burnin(graph: &CsrGraph, delta: f64, lambda: Option<f64>, c: f64) -> u64 {
    let lambda = lambda.unwrap_or_else(|| {
        use rand::SeedableRng;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(0x5EED_B112);
        spectral::walk_matrix_lambda(graph, 4000, &mut rng).lambda
    });
    assert!(
        lambda < 1.0,
        "graph does not mix (lambda = {lambda}); burn-in undefined"
    );
    antdensity_stats::bounds::burnin_rounds(lambda, graph.num_edges(), delta, c).ceil() as u64
}

/// Exact total-variation distance to stationarity after each of
/// `0..=max_steps` steps from `seed_vertex` — the burn-in diagnostic
/// curve (computed by distribution evolution, no sampling noise).
pub fn tv_profile(graph: &CsrGraph, seed_vertex: NodeId, max_steps: u64) -> Vec<f64> {
    let stationary = WalkDistribution::stationary(graph);
    let mut dist = WalkDistribution::point(graph, seed_vertex);
    let mut out = Vec::with_capacity(max_steps as usize + 1);
    out.push(dist.tv_distance(&stationary));
    for _ in 0..max_steps {
        dist.step(graph);
        out.push(dist.tv_distance(&stationary));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm2::{place_walks, StartMode};
    use antdensity_graphs::generators;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// Positions of `walks` walks after `steps` burn-in rounds from `seed_vertex`.
    fn burn_in(g: &CsrGraph, seed_vertex: NodeId, steps: u64, walks: usize) -> Vec<NodeId> {
        let start = StartMode::SeedWithBurnin { seed_vertex, steps };
        let (walks, _) = place_walks(g, start, walks, 1);
        walks.agent_positions().map(|(_, v)| v).collect()
    }

    #[test]
    fn burn_in_positions_approach_stationarity() {
        // On a regular graph stationarity is uniform: after a long burn-in
        // the seed vertex should hold ~1/|V| of the walkers.
        let mut rng = SmallRng::seed_from_u64(1);
        let g = generators::random_regular(64, 6, 300, &mut rng).unwrap();
        let walks = 20_000;
        let pos = burn_in(&g, 0, 50, walks);
        let at_seed = pos.iter().filter(|&&v| v == 0).count() as f64 / walks as f64;
        assert!(
            (at_seed - 1.0 / 64.0).abs() < 0.01,
            "seed occupancy {at_seed} should be ~1/64"
        );
    }

    #[test]
    fn zero_steps_stay_at_seed() {
        let g = generators::cycle_graph(11);
        let pos = burn_in(&g, 4, 0, 5);
        assert!(pos.iter().all(|&v| v == 4));
    }

    #[test]
    fn tv_profile_decreases_on_odd_cycle() {
        let g = generators::cycle_graph(9);
        let profile = tv_profile(&g, 0, 300);
        assert!(profile[0] > 0.8, "point mass starts far from uniform");
        assert!(profile[300] < 0.01, "long profile reaches stationarity");
        // monotone on the whole (allow tiny periodic wiggle)
        assert!(profile[100] < profile[10]);
    }

    #[test]
    fn tv_profile_stalls_on_bipartite() {
        let g = generators::star_graph(8);
        let profile = tv_profile(&g, 1, 100);
        // parity oscillation: TV never approaches 0
        assert!(profile[100] > 0.3, "bipartite TV {}", profile[100]);
    }

    #[test]
    fn recommended_burnin_matches_measured_mixing() {
        // The Section 5.1.4 bound must be at least the measured
        // eps-mixing time at the matching accuracy (with constant 1).
        let mut rng = SmallRng::seed_from_u64(3);
        let g = generators::random_regular(128, 8, 300, &mut rng).unwrap();
        let delta = 0.01;
        let m = recommended_burnin(&g, delta, None, 1.0);
        let profile = tv_profile(&g, 0, m);
        assert!(
            profile[m as usize] <= delta * 2.0,
            "TV after recommended burn-in {} is {}",
            m,
            profile[m as usize]
        );
    }

    #[test]
    fn recommended_burnin_longer_for_slower_graphs() {
        let mut rng = SmallRng::seed_from_u64(4);
        let fast = generators::random_regular(128, 8, 300, &mut rng).unwrap();
        let slow = generators::watts_strogatz(128, 4, 0.05, &mut rng).unwrap();
        let m_fast = recommended_burnin(&fast, 0.05, None, 1.0);
        let m_slow = recommended_burnin(&slow, 0.05, None, 1.0);
        assert!(
            m_slow > m_fast,
            "slow graph burn-in {m_slow} should exceed fast {m_fast}"
        );
    }

    #[test]
    #[should_panic(expected = "does not mix")]
    fn bipartite_burnin_rejected() {
        let g = generators::star_graph(6);
        let _ = recommended_burnin(&g, 0.05, None, 1.0);
    }
}
