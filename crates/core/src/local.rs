//! Local density estimation and non-uniform placement — the paper's
//! Section 2.1.1 / Section 6.1 future-work directions, implemented.
//!
//! The paper's global guarantee leans on uniform initial placement:
//! "when agents are uniformly distributed, the local density in a small
//! radius around their starting position reflects the global density".
//! Dropping that assumption raises two questions the paper poses:
//!
//! 1. **How does global estimation degrade** when agents are clustered?
//!    ([`ClusteredPlacement`] generates the adversarial configurations,
//!    parameterised by how far they are from uniform.)
//! 2. **What does an agent's encounter rate estimate then?** A `t`-round
//!    walk stays within radius ~√t of its start, so the encounter rate
//!    tracks the *local* density there. [`LocalDensityRun`] records, for
//!    every agent, its estimate alongside the exact local density around
//!    its starting position ([`local_density`]), making the
//!    local-vs-global question quantitative.

use antdensity_engine::Engine;
use antdensity_graphs::{NodeId, Topology, Torus2d};
use antdensity_stats::rng::SeedSequence;
use rand::Rng;
use rand::RngCore;

/// A two-population placement: a fraction of agents confined to a small
/// square patch, the rest uniform — the paper's "many agents placed in a
/// very small portion of the torus" scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusteredPlacement {
    /// Fraction of agents inside the cluster patch, in `[0, 1]`.
    pub cluster_fraction: f64,
    /// Side length of the square cluster patch.
    pub cluster_side: u64,
}

impl ClusteredPlacement {
    /// Creates a placement spec.
    ///
    /// # Panics
    ///
    /// Panics if `cluster_fraction ∉ [0, 1]` or `cluster_side == 0`.
    pub fn new(cluster_fraction: f64, cluster_side: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&cluster_fraction),
            "cluster fraction must lie in [0,1]"
        );
        assert!(cluster_side > 0, "cluster patch needs positive side");
        Self {
            cluster_fraction,
            cluster_side,
        }
    }

    /// Uniform placement (distance zero from the paper's assumption).
    pub fn uniform() -> Self {
        Self {
            cluster_fraction: 0.0,
            cluster_side: 1,
        }
    }

    /// Samples starting positions for `n` agents on `torus`. The cluster
    /// patch sits at the torus origin corner; clustered agents pick
    /// uniform cells *inside* it, the rest uniform over the whole torus.
    ///
    /// # Panics
    ///
    /// Panics if the patch does not fit on the torus.
    pub fn sample(&self, torus: &Torus2d, n: usize, rng: &mut dyn RngCore) -> Vec<NodeId> {
        assert!(
            self.cluster_side <= torus.side(),
            "cluster patch larger than the torus"
        );
        let clustered = (n as f64 * self.cluster_fraction).round() as usize;
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            if i < clustered {
                let x = rng.gen_range(0..self.cluster_side);
                let y = rng.gen_range(0..self.cluster_side);
                out.push(torus.node(x, y));
            } else {
                out.push(torus.uniform_node(rng));
            }
        }
        out
    }

    /// Total-variation distance between this placement's single-agent
    /// start distribution and uniform — the paper's suggested parameter
    /// ("bounds parameterised by the distance from this distribution to
    /// the uniform distribution").
    pub fn tv_from_uniform(&self, torus: &Torus2d) -> f64 {
        let a = torus.num_nodes() as f64;
        let patch = (self.cluster_side * self.cluster_side) as f64;
        let f = self.cluster_fraction;
        // Per-cell start probability: f/patch + (1-f)/A inside the patch,
        // (1-f)/A outside. TV = ½·Σ_cells |p(cell) − 1/A|.
        let inside = f / patch + (1.0 - f) / a;
        let outside = (1.0 - f) / a;
        0.5 * (patch * (inside - 1.0 / a).abs() + (a - patch) * (1.0 / a - outside).abs())
    }
}

/// Exact local density around `center`: the number of *other* agents
/// within L1 torus distance `radius` of `center`, divided by the number
/// of cells in that ball.
///
/// # Panics
///
/// Panics if `center` is out of range.
pub fn local_density(
    torus: &Torus2d,
    positions: &[NodeId],
    center: NodeId,
    exclude: Option<usize>,
    radius: u64,
) -> f64 {
    assert!(center < torus.num_nodes(), "center out of range");
    let ball = ball_size(torus, radius) as f64;
    let inside = positions
        .iter()
        .enumerate()
        .filter(|(i, _)| Some(*i) != exclude)
        .filter(|(_, &p)| torus.torus_distance(center, p) <= radius)
        .count() as f64;
    inside / ball
}

/// Number of cells within L1 torus distance `radius` of a point.
pub fn ball_size(torus: &Torus2d, radius: u64) -> u64 {
    // Exact count on the torus (handles wrap-around overlap).
    let s = torus.side();
    let mut count = 0u64;
    let r = radius.min(s) as i64;
    let half = (s / 2) as i64;
    for dx in -half..=(s as i64 - 1 - half) {
        for dy in -half..=(s as i64 - 1 - half) {
            // minimal displacement representatives cover each cell once
            if dx.abs() + dy.abs() <= r {
                count += 1;
            }
        }
    }
    count
}

/// The outcome of a density-estimation run under arbitrary placement,
/// with per-agent local ground truth.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalDensityRun {
    /// Per-agent encounter-rate estimates `d̃`.
    pub estimates: Vec<f64>,
    /// Per-agent local density around the agent's *start*, radius
    /// `local_radius`.
    pub local_truths: Vec<f64>,
    /// The global density `d = n/A`.
    pub global_truth: f64,
    /// The radius used for local ground truth.
    pub local_radius: u64,
    /// Rounds walked.
    pub rounds: u64,
}

impl LocalDensityRun {
    /// Mean absolute error of the estimates against the *global* density.
    pub fn mean_error_vs_global(&self) -> f64 {
        self.estimates
            .iter()
            .map(|e| (e - self.global_truth).abs())
            .sum::<f64>()
            / self.estimates.len() as f64
    }

    /// Mean absolute error of the estimates against each agent's *local*
    /// density.
    pub fn mean_error_vs_local(&self) -> f64 {
        self.estimates
            .iter()
            .zip(&self.local_truths)
            .map(|(e, l)| (e - l).abs())
            .sum::<f64>()
            / self.estimates.len() as f64
    }

    /// Pearson correlation between estimates and local truths — positive
    /// and large when encounter rates track local densities.
    pub fn correlation_with_local(&self) -> f64 {
        correlation(&self.estimates, &self.local_truths)
    }
}

fn correlation(xs: &[f64], ys: &[f64]) -> f64 {
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let cov: f64 = xs.iter().zip(ys).map(|(x, y)| (x - mx) * (y - my)).sum();
    let vx: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
    let vy: f64 = ys.iter().map(|y| (y - my) * (y - my)).sum();
    if vx == 0.0 || vy == 0.0 {
        return 0.0;
    }
    cov / (vx * vy).sqrt()
}

/// Runs Algorithm 1 from explicit starting positions and records local
/// ground truth at radius `local_radius` around each start.
///
/// # Panics
///
/// Panics if `positions` is empty or `rounds == 0`.
pub fn run_with_placement(
    torus: &Torus2d,
    positions: &[NodeId],
    rounds: u64,
    local_radius: u64,
    seed: u64,
) -> LocalDensityRun {
    assert!(!positions.is_empty(), "need at least one agent");
    assert!(rounds > 0, "need at least one round");
    let n = positions.len();
    let local_truths: Vec<f64> = (0..n)
        .map(|i| local_density(torus, positions, positions[i], Some(i), local_radius))
        .collect();
    let seq = SeedSequence::new(seed);
    let mut rng = seq.rng(0);
    let mut engine = Engine::new(torus, n);
    engine.place_at(positions);
    let mut counts = vec![0u64; n];
    for _ in 0..rounds {
        engine.step_round(&mut rng);
        for (a, c) in counts.iter_mut().enumerate() {
            *c += engine.count(a) as u64;
        }
    }
    LocalDensityRun {
        estimates: counts.iter().map(|&c| c as f64 / rounds as f64).collect(),
        local_truths,
        global_truth: (n as f64 - 1.0) / torus.num_nodes() as f64,
        local_radius,
        rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn ball_size_small_radii() {
        let t = Torus2d::new(32);
        assert_eq!(ball_size(&t, 0), 1);
        assert_eq!(ball_size(&t, 1), 5);
        assert_eq!(ball_size(&t, 2), 13); // 1 + 4 + 8
    }

    #[test]
    fn ball_size_saturates_at_torus() {
        let t = Torus2d::new(8);
        assert_eq!(ball_size(&t, 100), 64);
    }

    #[test]
    fn uniform_placement_has_zero_tv() {
        let t = Torus2d::new(32);
        let p = ClusteredPlacement::uniform();
        assert!(p.tv_from_uniform(&t) < 1e-12);
    }

    #[test]
    fn full_clustering_has_large_tv() {
        let t = Torus2d::new(32);
        let p = ClusteredPlacement::new(1.0, 4);
        // all mass in 16 of 1024 cells: TV = 1 - 16/1024
        assert!((p.tv_from_uniform(&t) - (1.0 - 16.0 / 1024.0)).abs() < 1e-9);
    }

    #[test]
    fn tv_monotone_in_cluster_fraction() {
        let t = Torus2d::new(32);
        let tv = |f: f64| ClusteredPlacement::new(f, 4).tv_from_uniform(&t);
        assert!(tv(0.2) < tv(0.5));
        assert!(tv(0.5) < tv(0.9));
    }

    #[test]
    fn sample_respects_cluster_patch() {
        let t = Torus2d::new(32);
        let mut rng = SmallRng::seed_from_u64(1);
        let p = ClusteredPlacement::new(0.5, 4);
        let pos = p.sample(&t, 100, &mut rng);
        assert_eq!(pos.len(), 100);
        // first half in the patch
        for &v in &pos[..50] {
            let (x, y) = t.coord(v);
            assert!(x < 4 && y < 4, "clustered agent escaped the patch");
        }
    }

    #[test]
    fn local_density_hand_case() {
        let t = Torus2d::new(16);
        // three agents: two adjacent to center, one far away
        let center = t.node(8, 8);
        let positions = vec![center, t.node(8, 9), t.node(0, 0)];
        let d = local_density(&t, &positions, center, Some(0), 1);
        // ball of radius 1 has 5 cells; 1 other agent inside
        assert!((d - 1.0 / 5.0).abs() < 1e-12);
        // not excluding self counts the center agent too
        let d_all = local_density(&t, &positions, center, None, 1);
        assert!((d_all - 2.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn clustered_agents_see_higher_local_density() {
        let t = Torus2d::new(64);
        let mut rng = SmallRng::seed_from_u64(2);
        let p = ClusteredPlacement::new(0.5, 6);
        let pos = p.sample(&t, 200, &mut rng);
        let run = run_with_placement(&t, &pos, 64, 8, 3);
        // clustered agents (first 100) have much larger local truth
        let in_mean: f64 = run.local_truths[..100].iter().sum::<f64>() / 100.0;
        let out_mean: f64 = run.local_truths[100..].iter().sum::<f64>() / 100.0;
        assert!(
            in_mean > 5.0 * out_mean,
            "cluster local density {in_mean} vs outside {out_mean}"
        );
    }

    #[test]
    fn estimates_track_local_better_than_global_under_clustering() {
        // The Section 2.1.1 story, quantified: with heavy clustering and a
        // short horizon, encounter rates estimate LOCAL density.
        let t = Torus2d::new(64);
        let mut rng = SmallRng::seed_from_u64(4);
        let p = ClusteredPlacement::new(0.6, 6);
        let pos = p.sample(&t, 300, &mut rng);
        let run = run_with_placement(&t, &pos, 48, 10, 5);
        assert!(
            run.mean_error_vs_local() < run.mean_error_vs_global(),
            "local error {} should beat global error {}",
            run.mean_error_vs_local(),
            run.mean_error_vs_global()
        );
        assert!(
            run.correlation_with_local() > 0.5,
            "estimates should correlate with local density: r = {}",
            run.correlation_with_local()
        );
    }

    #[test]
    fn uniform_placement_recovers_global_estimation() {
        let t = Torus2d::new(32);
        let mut rng = SmallRng::seed_from_u64(6);
        let pos = ClusteredPlacement::uniform().sample(&t, 129, &mut rng);
        let run = run_with_placement(&t, &pos, 1024, 4, 7);
        let mean_est = run.estimates.iter().sum::<f64>() / run.estimates.len() as f64;
        assert!(
            (mean_est - run.global_truth).abs() / run.global_truth < 0.15,
            "uniform placement: mean {mean_est} vs global {}",
            run.global_truth
        );
    }

    #[test]
    fn correlation_edge_cases() {
        assert_eq!(correlation(&[1.0, 1.0], &[2.0, 3.0]), 0.0);
        let xs = [1.0, 2.0, 3.0];
        assert!((correlation(&xs, &xs) - 1.0).abs() < 1e-12);
        let neg: Vec<f64> = xs.iter().map(|x| -x).collect();
        assert!((correlation(&xs, &neg) + 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "cluster patch larger")]
    fn oversized_patch_rejected() {
        let t = Torus2d::new(4);
        let mut rng = SmallRng::seed_from_u64(1);
        let _ = ClusteredPlacement::new(0.5, 8).sample(&t, 10, &mut rng);
    }
}
