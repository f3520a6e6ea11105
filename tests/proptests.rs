//! Property-based tests of the walk recorder the integration tests share
//! (`support::Trajectory`): legal hops, ring parity, deterministic drift.

mod support;

use antdensity_engine::MovementModel;
use antdensity_graphs::{NodeId, Ring, Torus2d};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use support::Trajectory;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn trajectory_hops_are_legal(
        side in 2u64..10,
        rounds in 0u64..60,
        seed in any::<u64>(),
        lazy in prop::bool::ANY,
    ) {
        let topo = Torus2d::new(side);
        let mut rng = SmallRng::seed_from_u64(seed);
        let model = if lazy { MovementModel::lazy(0.3) } else { MovementModel::Pure };
        let tr = Trajectory::record(&topo, 0, rounds, &model, &mut rng);
        for w in tr.nodes().windows(2) {
            prop_assert!(topo.torus_distance(w[0], w[1]) <= 1);
        }
        let (mx, my) = tr.axis_step_counts(&topo);
        prop_assert!(mx + my <= rounds);
        if !lazy {
            prop_assert_eq!(mx + my, rounds);
        }
    }

    #[test]
    fn ring_walk_preserves_parity(
        half_n in 2u64..20,
        rounds in 0u64..50,
        seed in any::<u64>(),
    ) {
        // On an even ring, position parity after r rounds = (start + r) % 2.
        let n = half_n * 2;
        let ring = Ring::new(n);
        let mut rng = SmallRng::seed_from_u64(seed);
        let tr = Trajectory::record(&ring, 0, rounds, &MovementModel::Pure, &mut rng);
        for (r, &v) in tr.nodes().iter().enumerate() {
            prop_assert_eq!(v % 2, (r as NodeId) % 2);
        }
    }

    #[test]
    fn drift_trajectory_is_deterministic(
        side in 2u64..8,
        rounds in 0u64..30,
        seed1 in any::<u64>(),
        seed2 in any::<u64>(),
    ) {
        let topo = Torus2d::new(side);
        let model = MovementModel::Drift { move_index: 2 };
        let a = Trajectory::record(
            &topo, 0, rounds, &model, &mut SmallRng::seed_from_u64(seed1));
        let b = Trajectory::record(
            &topo, 0, rounds, &model, &mut SmallRng::seed_from_u64(seed2));
        prop_assert_eq!(a, b);
    }
}
