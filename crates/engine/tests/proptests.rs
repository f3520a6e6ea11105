//! Property-based tests for the simulation engine.

use antdensity_engine::pool::run_trials;
use antdensity_engine::{
    Alg1Observer, EncounterTallies, Engine, EstimatorSpec, NoiseSpec, Observer, RoundEvents,
    Scenario, ScenarioOutcome, TopologySpec,
};
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

    /// `with_groups(&[p])` is the relative-frequency estimator's group:
    /// its tallies equal the `relfreq:p` run's bit for bit, and the
    /// group stream is the one that run's property estimates read.
    #[test]
    fn one_group_tallies_equal_relfreq_group_stream(
        side in 2u64..8,
        agents in 1usize..30,
        property in 0usize..30,
        rounds in 1u64..24,
        noisy in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let p = property.min(agents);
        let mut base = Scenario::new(TopologySpec::Torus2d { side }, agents, rounds);
        if noisy {
            base = base.with_noise(NoiseSpec::new(0.8, 0.1));
        }
        let grouped = base.clone().with_groups(&[p]).run_observed(seed, &mut Alg1Observer);
        let relfreq = base.with_estimator(EstimatorSpec::RelativeFrequency { property_agents: p });
        prop_assert_eq!(&grouped, &relfreq.run_observed(seed, &mut Alg1Observer));
        let t = rounds as f64;
        let from_groups: Vec<f64> = grouped
            .group_totals()
            .expect("one group tracked")
            .iter()
            .map(|&c| c as f64 / t)
            .collect();
        prop_assert_eq!(Some(from_groups), relfreq.run(seed).property_estimates);
    }

    /// A run its observer stops at round `r` returns the tallies of the
    /// same scenario run for exactly `r` rounds.
    #[test]
    fn early_stopped_tallies_equal_truncated_full_run(
        side in 2u64..8,
        agents in 1usize..30,
        rounds in 1u64..24,
        stop in 1u64..30,
        seed in any::<u64>(),
    ) {
        let scenario = |rounds| {
            Scenario::new(TopologySpec::Torus2d { side }, agents, rounds)
                .with_noise(NoiseSpec::new(0.8, 0.1))
                .with_groups(&[agents / 3, agents / 4])
        };
        let stopped = scenario(rounds).run_observed(seed, &mut StopAt { stop, seen: 0 });
        let r = stop.min(rounds);
        prop_assert_eq!(stopped.rounds(), r);
        prop_assert_eq!(stopped, scenario(r).run_observed(seed, &mut Alg1Observer));
    }
}

/// Stops a run after round `stop`.
struct StopAt {
    stop: u64,
    seen: u64,
}

impl Observer for StopAt {
    fn on_round(&mut self, ev: &RoundEvents<'_>) {
        self.seen = ev.round;
    }

    fn done(&self) -> bool {
        self.seen >= self.stop
    }

    fn snapshot(&self, tallies: &EncounterTallies, true_density: f64) -> ScenarioOutcome {
        Alg1Observer.snapshot(tallies, true_density)
    }
}
