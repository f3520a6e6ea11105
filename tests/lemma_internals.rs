//! Tests of the paper's *proof internals* — the intermediate lemmas on
//! the road to Theorem 1 (Figure 2's schematic):
//!
//! * Lemma 9's step-splitting argument: an m-step walk takes `Θ(m)` steps
//!   in both axes with high probability (the Chernoff step of the proof).
//! * Claim 6's conditional bound: given `Mx = mx` x-steps, the
//!   probability of any fixed x-displacement is `O(1/√(mx+1))`.
//! * Corollary 8's product structure: the two axes are independent, so
//!   the point probability is (≈) the product of the axis marginals.
//! * Lemma 12: `P[c_j ≥ 1 | W] ≤ t/A`.

mod support;

use antdensity::engine::pool::run_trials;
use antdensity::engine::MovementModel;
use antdensity::graphs::{dist, Topology, Torus2d};
use antdensity::stats::rng::SeedSequence;
use support::{collision_count_against_path, Trajectory};

#[test]
fn lemma9_axis_steps_are_theta_m_whp() {
    // P[Mx <= m/4] should be tiny (the proof uses a Chernoff bound).
    let torus = Torus2d::new(64);
    let m = 400u64;
    let seq = SeedSequence::new(0x1E9);
    let trials = 20_000u64;
    let bad = run_trials(trials, 4, seq, |_, rng| {
        let tr = Trajectory::record(&torus, 0, m, &MovementModel::Pure, rng);
        let (mx, my) = tr.axis_step_counts(&torus);
        mx <= m / 4 || my <= m / 4
    })
    .into_iter()
    .filter(|&b| b)
    .count();
    // Chernoff: P <= 2 exp(-m/32) ~ 1e-6 at m = 400; allow generous room.
    assert!(
        (bad as f64 / trials as f64) < 1e-3,
        "axis-step deviation happened {bad}/{trials} times"
    );
}

#[test]
fn claim6_conditional_x_displacement_bound() {
    // Walk on a 1-d line (huge ring avoids wrap): after mx +-1 steps the
    // chance of any fixed displacement is <= C/sqrt(mx+1). Exact via the
    // ring's distribution evolution with A >> mx.
    let big_ring = antdensity::graphs::Ring::new(1 << 14);
    for mx in [1u64, 4, 16, 64, 256] {
        let series = dist::max_probability_series(&big_ring, 0, mx);
        let maxp = series[mx as usize];
        let bound = 1.0 / ((mx as f64 + 1.0).sqrt());
        assert!(
            maxp <= bound,
            "mx = {mx}: max point prob {maxp} above 1/sqrt(mx+1) = {bound}"
        );
        // and the bound is tight up to a constant (Stirling: ~ sqrt(2/pi))
        assert!(
            maxp >= 0.5 * bound,
            "mx = {mx}: max point prob {maxp} suspiciously far below {bound}"
        );
    }
}

#[test]
fn corollary8_axes_factorise() {
    // On the torus, P[(x,y) at round m] factorises into axis marginals
    // when conditioning on step counts; unconditionally the centre-point
    // probability is within a constant of the product of two 1-d walks'
    // centre probabilities at m/2 steps each.
    let side = 64u64;
    let torus = Torus2d::new(side);
    let ring = antdensity::graphs::Ring::new(side);
    let m = 128u64;
    let torus_return = dist::return_probability_series(&torus, 0, m)[m as usize];
    let ring_return = dist::return_probability_series(&ring, 0, m / 2)[(m / 2) as usize];
    let product = ring_return * ring_return;
    let ratio = torus_return / product;
    assert!(
        (0.3..=3.0).contains(&ratio),
        "2-d return prob {torus_return} vs product of 1-d marginals {product} (ratio {ratio})"
    );
}

#[test]
fn lemma12_first_collision_probability() {
    // P[c_j >= 1 | W] <= t/A for any focal path W. Sample several paths,
    // estimate the at-least-one-collision probability by Monte Carlo.
    let torus = Torus2d::new(16); // A = 256
    let t = 32u64;
    let seq = SeedSequence::new(0x112);
    for path_seed in 0..4u64 {
        let mut rng = seq.rng(path_seed);
        let path = Trajectory::record(&torus, torus.node(5, 5), t, &MovementModel::Pure, &mut rng);
        let trials = 40_000u64;
        let hits = run_trials(trials, 4, seq.subsequence(path_seed), |_, rng| {
            collision_count_against_path(&torus, path.nodes(), rng) >= 1
        })
        .into_iter()
        .filter(|&b| b)
        .count();
        let p = hits as f64 / trials as f64;
        let bound = t as f64 / torus.num_nodes() as f64;
        assert!(
            p <= bound * 1.05,
            "path {path_seed}: P[c_j >= 1 | W] = {p} exceeds t/A = {bound}"
        );
    }
}

#[test]
fn claim13_zero_collision_moment_is_tiny() {
    // Conditioned on c_j = 0, |c_bar|^k = (t/A)^k <= t/A for t <= A: the
    // trivial-but-necessary step of the moment proof, checked numerically.
    let t = 64f64;
    let a = 256f64;
    for k in 1..=6 {
        let moment = (t / a).powi(k);
        assert!(moment <= t / a + 1e-12, "k = {k}");
    }
}
