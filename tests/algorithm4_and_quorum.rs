//! Integration tests for Algorithm 4 (Theorem 32) and quorum sensing,
//! plus determinism guarantees across the whole stack.

use antdensity::core::quorum::{QuorumDecision, QuorumSensor};
use antdensity::engine::{EstimatorSpec, Scenario, TopologySpec};
use antdensity::stats::quantile;

/// Algorithm 1 with `agents` agents for `t` rounds on a `side`² torus.
fn alg1(side: u64, agents: usize, t: u64) -> Scenario {
    Scenario::new(TopologySpec::Torus2d { side }, agents, t)
}

/// Algorithm 4 with `agents` agents for `t` rounds on a `side`² torus.
fn alg4(side: u64, agents: usize, t: u64) -> Scenario {
    alg1(side, agents, t).with_estimator(EstimatorSpec::Algorithm4)
}

#[test]
fn algorithm4_coverage_at_theorem32_budget() {
    // t = 3 ln(2/delta)/(d eps^2) rounds should give (1 +- eps) whp.
    let d = 0.2; // on a 256x256 torus, A = 65536
    let agents = (d * 65536.0) as usize + 1; // 13108
    let (eps, delta) = (0.5, 0.1);
    let t = antdensity::stats::bounds::chernoff_rounds(eps, delta, d).ceil() as u64;
    assert!(t < 256, "budget {t} must respect t < sqrt(A)");
    let mut within = 0usize;
    let mut total = 0usize;
    for s in 0..4 {
        let run = alg4(256, agents, t).run(s);
        let d_true = run.true_density;
        for e in &run.estimates {
            total += 1;
            if (e - d_true).abs() <= eps * d_true {
                within += 1;
            }
        }
    }
    let coverage = within as f64 / total as f64;
    assert!(
        coverage >= 1.0 - delta,
        "coverage {coverage} below target {}",
        1.0 - delta
    );
}

#[test]
fn algorithm4_beats_algorithm1_variance_at_matched_t() {
    // Theorem 32 vs Theorem 1: no log factor. At matched t the q90 error
    // of Algorithm 4 should be no worse than Algorithm 1's.
    let agents = 1639; // d ~ 0.1 on a 128x128 torus
    let t = 100u64;
    let pool4: Vec<f64> = (0..4)
        .flat_map(|s| alg4(128, agents, t).run(s).relative_errors())
        .collect();
    let pool1: Vec<f64> = (0..4)
        .flat_map(|s| alg1(128, agents, t).run(s).relative_errors())
        .collect();
    let q4 = quantile::quantile(&pool4, 0.9);
    let q1 = quantile::quantile(&pool1, 0.9);
    assert!(
        q4 <= q1 * 1.25,
        "algorithm 4 q90 {q4} should not exceed algorithm 1 q90 {q1} meaningfully"
    );
}

#[test]
fn quorum_sensing_correct_on_both_sides() {
    let torus = TopologySpec::Torus2d { side: 24 }; // A = 576

    // above: d ~ 0.178 vs threshold 0.08
    let above = QuorumSensor::new(0.08, 0.05, 1 << 15).run(torus, 104, 1);
    let wrong_above = above
        .iter()
        .filter(|o| o.decision == QuorumDecision::Below)
        .count();
    assert_eq!(wrong_above, 0, "no scout may vote Below at d >> threshold");
    let decided_above = above
        .iter()
        .filter(|o| o.decision == QuorumDecision::Above)
        .count();
    assert!(decided_above * 10 >= above.len() * 9);

    // below: d ~ 0.021 vs threshold 0.08
    let below = QuorumSensor::new(0.08, 0.05, 1 << 15).run(torus, 13, 2);
    let wrong_below = below
        .iter()
        .filter(|o| o.decision == QuorumDecision::Above)
        .count();
    assert_eq!(wrong_below, 0, "no scout may vote Above at d << threshold");
}

#[test]
fn whole_stack_is_deterministic() {
    let torus = TopologySpec::Torus2d { side: 16 };
    let r1 = alg1(16, 33, 128).run(777);
    let r2 = alg1(16, 33, 128).run(777);
    assert_eq!(r1, r2);
    let a1 = alg4(16, 33, 15).run(777);
    let a2 = alg4(16, 33, 15).run(777);
    assert_eq!(a1, a2);
    let q1 = QuorumSensor::new(0.1, 0.1, 256).run(torus, 9, 777);
    let q2 = QuorumSensor::new(0.1, 0.1, 256).run(torus, 9, 777);
    assert_eq!(q1, q2);
}

#[test]
fn paper_convention_lone_agent() {
    // Section 2.1: a single agent must return exactly 0 under both
    // algorithms (d = n/A = 0 by convention).
    let r1 = alg1(64, 1, 100).run(1);
    assert_eq!(r1.estimates, [0.0]);
    let r4 = alg4(64, 1, 50).run(1);
    assert_eq!(r4.estimates, [0.0]);
}
