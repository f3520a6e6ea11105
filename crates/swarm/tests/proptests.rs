//! Property-based tests for the swarm/sensor application crate.

use antdensity_graphs::Torus2d;
use antdensity_swarm::coverage::{coverage_curve, occupancy_spread, DispersionSim};
use antdensity_swarm::robot::SwarmConfig;
use antdensity_swarm::sensor::{token_mean_estimates, SensorField};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn swarm_report_is_consistent(
        side in 4u64..12,
        robots in 2usize..24,
        g0 in 0usize..8,
        seed in any::<u64>(),
    ) {
        let g0 = g0.min(robots);
        let report = SwarmConfig::new(side, robots, 32)
            .with_groups(&[g0])
            .run(seed);
        prop_assert_eq!(report.estimates().len(), robots);
        prop_assert!((report.true_frequency(0) - g0 as f64 / robots as f64).abs() < 1e-12);
        for e in report.estimates() {
            // group densities cannot exceed overall density
            prop_assert!(e.group_densities[0] <= e.density + 1e-12);
            if let Some(f) = e.frequency(0) {
                prop_assert!((0.0..=1.0 + 1e-9).contains(&f));
            }
        }
    }

    #[test]
    fn coverage_curve_monotone_any_config(
        side in 3u64..10,
        agents in 1usize..16,
        rounds in 1u64..50,
        seed in any::<u64>(),
    ) {
        let topo = Torus2d::new(side);
        let curve = coverage_curve(&topo, agents, rounds, seed);
        prop_assert_eq!(curve.len(), rounds as usize + 1);
        for w in curve.windows(2) {
            prop_assert!(w[1] >= w[0]);
        }
        prop_assert!(*curve.last().unwrap() <= 1.0 + 1e-12);
        prop_assert!(curve[0] > 0.0);
    }

    #[test]
    fn occupancy_spread_bounds(positions in prop::collection::vec(0u64..64, 1..40)) {
        let s = occupancy_spread(&positions);
        prop_assert!(s > 0.0 && s <= 1.0);
        // spread 1 iff all distinct
        let mut sorted = positions.clone();
        sorted.sort_unstable();
        sorted.dedup();
        if sorted.len() == positions.len() {
            prop_assert!((s - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn dispersion_deterministic_and_bounded(
        seed in any::<u64>(),
        robots in 2usize..32,
    ) {
        let sim = DispersionSim::new(16, robots, 4, 0.5);
        let a = sim.run_clustered(30, seed);
        let b = sim.run_clustered(30, seed);
        prop_assert_eq!(a.clone(), b);
        for s in a {
            prop_assert!(s > 0.0 && s <= 1.0);
        }
    }

    #[test]
    fn token_estimate_identities(
        side in 4u64..10,
        hops in 1u64..200,
        p in 0.0..=1.0f64,
        seed in any::<u64>(),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let field = SensorField::bernoulli(Torus2d::new(side), p, &mut rng);
        let est = token_mean_estimates(&field, 0, hops, 1, seed)[0];
        // revisit accounting: distinct + revisits = hops + 1
        prop_assert_eq!(est.distinct + est.revisits, hops + 1);
        // all sensors alive: every hop reads
        prop_assert_eq!(est.samples, hops);
        prop_assert_eq!(est.failed_reads, 0);
        // mean of 0/1 readings is a proportion
        prop_assert!((0.0..=1.0).contains(&est.mean));
    }

    #[test]
    fn failed_sensors_never_report(
        seed in any::<u64>(),
        fail_p in 0.1..0.9f64,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut field = SensorField::bernoulli(Torus2d::new(8), 0.5, &mut rng);
        field.fail_random(fail_p, &mut rng);
        let est = token_mean_estimates(&field, 0, 300, 1, seed)[0];
        prop_assert_eq!(est.samples + est.failed_reads, 300);
        if field.alive_count() == 0 {
            prop_assert_eq!(est.samples, 0);
        }
    }
}
