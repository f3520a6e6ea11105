//! Exact evolution of random-walk distributions.
//!
//! Every re-collision bound in the paper is a statement about m-step walk
//! distributions:
//!
//! * **Lemma 9** — `max_v P[walk at v after m] = O(1/(m+1) + 1/A)` on the
//!   2-d torus (and Lemma 4 reduces the two-agent re-collision probability
//!   to exactly this quantity);
//! * **Corollary 10** — the equalization (return) probability is
//!   `Θ(1/(m+1)) + O(1/A)` for even m, 0 for odd m;
//! * **Lemma 20 / 22 / 23 / 25** — the ring, k-dim torus, expander and
//!   hypercube analogues.
//!
//! This module computes those quantities *exactly* by sparse
//! matrix–vector products against the walk matrix, so the experiment
//! harness can verify decay shapes with zero Monte-Carlo noise (and the
//! simulation engine can be cross-validated against ground truth).

use crate::csr::CsrGraph;
use crate::topology::{NodeId, Topology};

/// A probability distribution over the nodes of a topology.
///
/// # Example
///
/// ```
/// use antdensity_graphs::{Ring, WalkDistribution};
///
/// let ring = Ring::new(4);
/// let mut dist = WalkDistribution::point(&ring, 0);
/// dist.step(&ring);
/// assert_eq!(dist.prob(1), 0.5);
/// assert_eq!(dist.prob(3), 0.5);
/// assert_eq!(dist.prob(0), 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WalkDistribution {
    probs: Vec<f64>,
    scratch: Vec<f64>,
}

impl WalkDistribution {
    /// Point mass at `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range or the topology has more nodes than
    /// `usize::MAX`.
    pub fn point<T: Topology>(topo: &T, v: NodeId) -> Self {
        let n = usize::try_from(topo.num_nodes()).expect("node count fits usize");
        assert!((v as usize) < n, "node {v} out of range");
        let mut probs = vec![0.0; n];
        probs[v as usize] = 1.0;
        Self {
            probs,
            scratch: vec![0.0; n],
        }
    }

    /// Uniform distribution (the paper's initial placement, and the
    /// stationary distribution of every regular topology).
    pub fn uniform<T: Topology>(topo: &T) -> Self {
        let n = usize::try_from(topo.num_nodes()).expect("node count fits usize");
        Self {
            probs: vec![1.0 / n as f64; n],
            scratch: vec![0.0; n],
        }
    }

    /// Degree-proportional stationary distribution `π(v) = deg(v)/2|E|`
    /// of an irregular graph (Section 5.1's setting).
    pub fn stationary(graph: &CsrGraph) -> Self {
        let n = usize::try_from(graph.num_nodes()).expect("node count fits usize");
        let two_e = 2.0 * graph.num_edges() as f64;
        let probs = (0..graph.num_nodes())
            .map(|v| graph.degree(v) as f64 / two_e)
            .collect();
        Self {
            probs,
            scratch: vec![0.0; n],
        }
    }

    /// One step of the uniform-move random walk on `topo`.
    ///
    /// # Panics
    ///
    /// Panics if the topology's node count does not match this
    /// distribution.
    pub fn step<T: Topology>(&mut self, topo: &T) {
        assert_eq!(
            self.probs.len() as u64,
            topo.num_nodes(),
            "topology size mismatch"
        );
        self.scratch.iter_mut().for_each(|x| *x = 0.0);
        for v in 0..self.probs.len() {
            let p = self.probs[v];
            if p == 0.0 {
                continue;
            }
            let vid = v as NodeId;
            let d = topo.degree(vid);
            let share = p / d as f64;
            for i in 0..d {
                self.scratch[topo.neighbor(vid, i) as usize] += share;
            }
        }
        std::mem::swap(&mut self.probs, &mut self.scratch);
    }

    /// Advances `m` steps.
    pub fn evolve<T: Topology>(&mut self, topo: &T, m: u64) {
        for _ in 0..m {
            self.step(topo);
        }
    }

    /// Probability mass at node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn prob(&self, v: NodeId) -> f64 {
        self.probs[v as usize]
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.probs.len()
    }

    /// Distributions are never empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Largest point probability — the quantity bounded by Lemma 9 and its
    /// analogues.
    pub fn max_prob(&self) -> f64 {
        self.probs.iter().cloned().fold(0.0, f64::max)
    }

    /// Total mass (should be 1 up to float error; exposed for tests).
    pub fn total_mass(&self) -> f64 {
        self.probs.iter().sum()
    }

    /// `Σ_v p(v)²` — the collision probability of two i.i.d. copies
    /// (both walks launched from the same collision node, Lemma 4's
    /// unconditional form).
    pub fn self_collision_prob(&self) -> f64 {
        self.probs.iter().map(|p| p * p).sum()
    }

    /// Total-variation distance `½·Σ|p − q|`.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn tv_distance(&self, other: &WalkDistribution) -> f64 {
        assert_eq!(self.probs.len(), other.probs.len(), "size mismatch");
        0.5 * self
            .probs
            .iter()
            .zip(&other.probs)
            .map(|(p, q)| (p - q).abs())
            .sum::<f64>()
    }

    /// View of the raw probabilities.
    pub fn probs(&self) -> &[f64] {
        &self.probs
    }
}

/// `P[walk from `origin` is back at `origin` after m]` for `m = 0..=t` —
/// the equalization-probability series of Corollary 10.
pub fn return_probability_series<T: Topology>(topo: &T, origin: NodeId, t: u64) -> Vec<f64> {
    let mut dist = WalkDistribution::point(topo, origin);
    let mut series = Vec::with_capacity(t as usize + 1);
    series.push(dist.prob(origin));
    for _ in 0..t {
        dist.step(topo);
        series.push(dist.prob(origin));
    }
    series
}

/// `max_v P[walk from `start` at v after m]` for `m = 0..=t` — the
/// single-walk point-probability series of Lemma 9 (and Lemmas 20/22/25).
pub fn max_probability_series<T: Topology>(topo: &T, start: NodeId, t: u64) -> Vec<f64> {
    let mut dist = WalkDistribution::point(topo, start);
    let mut series = Vec::with_capacity(t as usize + 1);
    series.push(dist.max_prob());
    for _ in 0..t {
        dist.step(topo);
        series.push(dist.max_prob());
    }
    series
}

/// `P[two independent walks launched from `start` re-collide at lag m]`
/// for `m = 0..=t`: both walks have the same m-step marginal `p_m`, and by
/// independence the re-collision probability is `Σ_v p_m(v)²` (Lemma 4's
/// unconditional form).
pub fn recollision_series<T: Topology>(topo: &T, start: NodeId, t: u64) -> Vec<f64> {
    let mut dist = WalkDistribution::point(topo, start);
    let mut series = Vec::with_capacity(t as usize + 1);
    series.push(dist.self_collision_prob());
    for _ in 0..t {
        dist.step(topo);
        series.push(dist.self_collision_prob());
    }
    series
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complete::CompleteGraph;
    use crate::hypercube::Hypercube;
    use crate::torus::{Ring, Torus2d};

    #[test]
    fn point_mass_and_one_step_on_ring() {
        let ring = Ring::new(5);
        let mut d = WalkDistribution::point(&ring, 2);
        assert_eq!(d.prob(2), 1.0);
        d.step(&ring);
        assert_eq!(d.prob(1), 0.5);
        assert_eq!(d.prob(3), 0.5);
        assert_eq!(d.prob(2), 0.0);
        assert!((d.total_mass() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn two_steps_on_ring_by_hand() {
        // From 0 on a 5-ring: after 2 steps P[0] = 1/2, P[2] = P[3] = 1/4.
        let ring = Ring::new(5);
        let mut d = WalkDistribution::point(&ring, 0);
        d.evolve(&ring, 2);
        assert!((d.prob(0) - 0.5).abs() < 1e-12);
        assert!((d.prob(2) - 0.25).abs() < 1e-12);
        assert!((d.prob(3) - 0.25).abs() < 1e-12);
        assert_eq!(d.prob(1), 0.0);
        assert_eq!(d.prob(4), 0.0);
    }

    #[test]
    fn torus_one_step_splits_four_ways() {
        let t = Torus2d::new(5);
        let mut d = WalkDistribution::point(&t, t.node(2, 2));
        d.step(&t);
        for (dx, dy) in [(1i64, 0i64), (-1, 0), (0, 1), (0, -1)] {
            assert!((d.prob(t.offset(t.node(2, 2), dx, dy)) - 0.25).abs() < 1e-12);
        }
        assert_eq!(d.prob(t.node(2, 2)), 0.0);
    }

    #[test]
    fn mass_is_conserved_over_many_steps() {
        let t = Torus2d::new(8);
        let mut d = WalkDistribution::point(&t, 0);
        d.evolve(&t, 200);
        assert!((d.total_mass() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn even_torus_parity_alternates() {
        // On an even torus, mass alternates between the two parity classes:
        // the return probability at odd m is exactly 0 (Corollary 10).
        let t = Torus2d::new(6);
        let series = return_probability_series(&t, 0, 9);
        for (m, &p) in series.iter().enumerate() {
            if m % 2 == 1 {
                assert_eq!(p, 0.0, "odd m = {m} must have zero return prob");
            } else {
                assert!(p > 0.0, "even m = {m} must have positive return prob");
            }
        }
    }

    #[test]
    fn complete_graph_uniform_after_one_step() {
        let g = CompleteGraph::new(10);
        let mut d = WalkDistribution::point(&g, 3);
        d.step(&g);
        for v in 0..10 {
            assert!((d.prob(v) - 0.1).abs() < 1e-12);
        }
        // recollision probability is exactly 1/A at every m >= 1.
        let series = recollision_series(&g, 0, 3);
        assert_eq!(series[0], 1.0);
        for &p in &series[1..] {
            assert!((p - 0.1).abs() < 1e-12);
        }
    }

    #[test]
    fn recollision_equals_collision_of_equal_marginals() {
        let t = Torus2d::new(6);
        let mut a = WalkDistribution::point(&t, 7);
        a.evolve(&t, 4);
        let b = a.clone();
        let cross: f64 = a.probs().iter().zip(b.probs()).map(|(p, q)| p * q).sum();
        assert!((cross - a.self_collision_prob()).abs() < 1e-15);
        assert!((recollision_series(&t, 7, 4)[4] - cross).abs() < 1e-15);
    }

    #[test]
    fn uniform_is_stationary_on_regular_topology() {
        let t = Torus2d::new(7);
        let mut d = WalkDistribution::uniform(&t);
        let before = d.clone();
        d.step(&t);
        assert!(d.tv_distance(&before) < 1e-12);
    }

    #[test]
    fn stationary_is_fixed_on_irregular_graph() {
        let g = crate::generators::star_graph(6);
        let mut d = WalkDistribution::stationary(&g);
        let before = d.clone();
        d.step(&g);
        assert!(d.tv_distance(&before) < 1e-12);
    }

    #[test]
    fn odd_ring_converges_to_uniform() {
        // Odd cycles are aperiodic: distribution tends to uniform.
        let ring = Ring::new(5);
        let mut d = WalkDistribution::point(&ring, 0);
        d.evolve(&ring, 2000);
        let uniform = WalkDistribution::uniform(&ring);
        assert!(d.tv_distance(&uniform) < 1e-6);
    }

    #[test]
    fn hypercube_return_prob_known_small_case() {
        // 2-cube (a 4-cycle): from 00, after 2 steps, P[return] = 1/2.
        let h = Hypercube::new(2);
        let series = return_probability_series(&h, 0, 2);
        assert_eq!(series[0], 1.0);
        assert_eq!(series[1], 0.0);
        assert!((series[2] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn max_prob_series_is_bounded_by_one_and_decreasing_on_torus() {
        let t = Torus2d::new(8);
        let series = max_probability_series(&t, 0, 20);
        assert_eq!(series[0], 1.0);
        // max prob at even steps decreases monotonically on the torus
        let evens: Vec<f64> = series.iter().step_by(2).copied().collect();
        for w in evens.windows(2) {
            assert!(w[1] <= w[0] + 1e-12);
        }
    }

    #[test]
    fn tv_distance_properties() {
        let t = Torus2d::new(4);
        let a = WalkDistribution::point(&t, 0);
        let b = WalkDistribution::point(&t, 5);
        assert_eq!(a.tv_distance(&a), 0.0);
        assert_eq!(a.tv_distance(&b), 1.0); // disjoint point masses
        assert_eq!(a.tv_distance(&b), b.tv_distance(&a));
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn step_checks_topology_size() {
        let t4 = Torus2d::new(2);
        let t9 = Torus2d::new(3);
        let mut d = WalkDistribution::point(&t4, 0);
        d.step(&t9);
    }
}
