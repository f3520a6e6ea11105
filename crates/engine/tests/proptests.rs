//! Property-based tests for the simulation engine.

use antdensity_engine::pool::run_trials;
use antdensity_engine::Engine;
use antdensity_graphs::{Topology, Torus2d};
use antdensity_stats::rng::SeedSequence;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn occupancy_conserved_over_rounds(
        side in 2u64..10,
        agents in 1usize..40,
        rounds in 0u64..20,
        seed in any::<u64>(),
    ) {
        let mut arena =
            Engine::new(Torus2d::new(side), agents).with_seed_sequence(SeedSequence::new(seed));
        arena.place_uniform(&mut SmallRng::seed_from_u64(seed));
        for _ in 0..rounds {
            arena.step_round();
        }
        let total: u32 = (0..arena.topology().num_nodes())
            .map(|v| arena.occupancy(v))
            .sum();
        prop_assert_eq!(total as usize, agents);
    }

    #[test]
    fn count_equals_manual_recount(
        side in 2u64..8,
        agents in 2usize..30,
        seed in any::<u64>(),
    ) {
        let mut arena =
            Engine::new(Torus2d::new(side), agents).with_seed_sequence(SeedSequence::new(seed));
        arena.place_uniform(&mut SmallRng::seed_from_u64(seed));
        arena.step_round();
        for a in 0..agents {
            let manual = (0..agents)
                .filter(|&b| b != a && arena.position(b) == arena.position(a))
                .count();
            prop_assert_eq!(arena.count(a) as usize, manual);
        }
    }

    #[test]
    fn group_counts_partition_total(
        seed in any::<u64>(),
        agents in 4usize..24,
    ) {
        // Every agent in exactly one of two groups: group counts must sum
        // to the total count.
        let mut arena =
            Engine::new(Torus2d::new(4), agents).with_seed_sequence(SeedSequence::new(seed));
        for a in 0..agents {
            arena.assign_group(a, a % 2);
        }
        arena.place_uniform(&mut SmallRng::seed_from_u64(seed));
        arena.step_round();
        for a in 0..agents {
            let total = arena.count(a);
            let g0 = arena.count_in_group(a, 0);
            let g1 = arena.count_in_group(a, 1);
            prop_assert_eq!(total, g0 + g1);
        }
    }

    #[test]
    fn parallel_equals_serial(trials in 0u64..60, seed in any::<u64>()) {
        let seq = SeedSequence::new(seed);
        let work = |i: u64, rng: &mut SmallRng| -> u64 {
            use rand::Rng;
            i ^ rng.gen::<u64>()
        };
        let serial = run_trials(trials, 1, seq, work);
        let parallel = run_trials(trials, 5, seq, work);
        prop_assert_eq!(serial, parallel);
    }
}
