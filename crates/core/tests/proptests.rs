//! Property-based tests for the core estimators.

use antdensity_core::noise::{sample_binomial, sample_poisson, CollisionNoise};
use antdensity_core::theory::TopologyClass;
use antdensity_engine::{EstimatorSpec, Scenario, ScenarioOutcome, TopologySpec};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn algorithm1_output_invariants(
        side in 4u64..12,
        agents in 2usize..24,
        rounds in 1u64..64,
        seed in any::<u64>(),
    ) {
        let run = Scenario::new(TopologySpec::Torus2d { side }, agents, rounds).run(seed);
        prop_assert_eq!(run.estimates.len(), agents);
        // estimate = count / t exactly
        for (e, &c) in run.estimates.iter().zip(&run.collision_counts) {
            prop_assert!((e - c as f64 / rounds as f64).abs() < 1e-12);
            prop_assert!(*e >= 0.0);
        }
        // density convention
        let d = (agents as f64 - 1.0) / (side * side) as f64;
        prop_assert!((run.true_density - d).abs() < 1e-12);
        // total collisions even (each collision counted by both parties
        // every round it persists)
        let total: u64 = run.collision_counts.iter().sum();
        prop_assert_eq!(total % 2, 0);
    }

    #[test]
    fn algorithm1_deterministic(seed in any::<u64>()) {
        let spec = Scenario::new(TopologySpec::Torus2d { side: 8 }, 6, 20);
        let a = spec.run(seed);
        let b = spec.run(seed);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn algorithm4_estimates_in_range(
        agents in 1usize..30,
        rounds in 1u64..15,
        seed in any::<u64>(),
    ) {
        let run = Scenario::new(TopologySpec::Torus2d { side: 16 }, agents, rounds)
            .with_estimator(EstimatorSpec::Algorithm4)
            .run(seed);
        for e in &run.estimates {
            // d~ = 2 (c mod t) / t is in [0, 2)
            prop_assert!(*e >= 0.0 && *e < 2.0);
        }
    }

    #[test]
    fn fraction_within_is_monotone_in_eps(
        estimates in prop::collection::vec(0.0..2.0f64, 1..50),
        eps1 in 0.01..1.0f64,
        eps2 in 0.01..1.0f64,
    ) {
        let run = ScenarioOutcome {
            collision_counts: vec![0; estimates.len()],
            estimates,
            property_estimates: None,
            quorum_decisions: None,
            walking: None,
            rounds: 10,
            true_density: 1.0,
        };
        let (lo, hi) = if eps1 <= eps2 { (eps1, eps2) } else { (eps2, eps1) };
        prop_assert!(run.fraction_within(lo) <= run.fraction_within(hi) + 1e-12);
    }

    #[test]
    fn noise_observation_bounded(
        true_count in 0u32..50,
        p in 0.01..=1.0f64,
        s in 0.0..2.0f64,
        seed in any::<u64>(),
    ) {
        let noise = CollisionNoise::new(p, s);
        let mut rng = SmallRng::seed_from_u64(seed);
        let seen = noise.observe(true_count, &mut rng);
        // detections cannot exceed truth unless spurious events exist
        if s == 0.0 {
            prop_assert!(seen <= true_count);
        }
        // correction is non-negative and inverts cleanly at p = 1, s = 0
        if p == 1.0 && s == 0.0 {
            prop_assert_eq!(seen, true_count);
        }
        prop_assert!(noise.correct(seen as f64) >= 0.0);
    }

    #[test]
    fn binomial_sample_in_support(n in 0u32..100, p in 0.0..=1.0f64, seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let k = sample_binomial(n, p, &mut rng);
        prop_assert!(k <= n);
    }

    #[test]
    fn poisson_sample_finite(lambda in 0.0..10.0f64, seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let k = sample_poisson(lambda, &mut rng);
        // crude sanity: tail beyond lambda + 60 is essentially impossible
        prop_assert!((k as f64) < lambda + 60.0);
    }

    #[test]
    fn beta_is_decreasing_and_floored(m1 in 0u64..500, m2 in 0u64..500) {
        let classes = [
            TopologyClass::Torus2d { nodes: 4096 },
            TopologyClass::Ring { nodes: 4096 },
            TopologyClass::TorusKd { dims: 3, nodes: 4096 },
            TopologyClass::Expander { lambda: 0.7, nodes: 4096 },
            TopologyClass::Hypercube { dims: 12 },
        ];
        let (lo, hi) = if m1 <= m2 { (m1, m2) } else { (m2, m1) };
        for c in classes {
            prop_assert!(c.beta(lo) >= c.beta(hi) - 1e-12, "{c:?}");
            prop_assert!(c.beta(hi) > 0.0);
        }
    }

    #[test]
    fn b_sum_is_monotone_in_t(t1 in 1u64..2000, t2 in 1u64..2000) {
        let (lo, hi) = if t1 <= t2 { (t1, t2) } else { (t2, t1) };
        let c = TopologyClass::Torus2d { nodes: 1 << 20 };
        prop_assert!(c.b_sum(hi) >= c.b_sum(lo) - 1e-12);
    }

    #[test]
    fn epsilon_decreasing_in_density(
        d1 in 0.01..0.5f64,
        d2 in 0.01..0.5f64,
    ) {
        let (lo, hi) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
        let c = TopologyClass::Torus2d { nodes: 1 << 20 };
        // more agents => easier estimation at the same horizon
        prop_assert!(c.epsilon(1024, hi, 0.1) <= c.epsilon(1024, lo, 0.1) + 1e-12);
    }
}
