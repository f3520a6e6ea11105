//! Paper-level checks of Algorithm 4 (Appendix A: a stationary half, a
//! drifting half, and `d̃ = 2·(c mod t)/t`), run through the engine.
//! Test-only: the algorithm itself is the engine's
//! `EstimatorSpec::Algorithm4`, read out by its `Alg4Observer`.

mod tests {
    use antdensity_engine::{
        Alg4Observer, EncounterTallies, Engine, EstimatorSpec, MovementModel, Observer,
        RoundEvents, Scenario, ScenarioOutcome, TopologySpec,
    };
    use antdensity_graphs::{NodeId, Torus2d};

    fn algorithm4(side: u64, agents: usize, rounds: u64) -> Scenario {
        Scenario::new(TopologySpec::Torus2d { side }, agents, rounds)
            .with_estimator(EstimatorSpec::Algorithm4)
    }

    /// Algorithm 4 from explicit starts and walking flags: walkers take
    /// the paper's fixed (0, 1) drift step (move index 2), the rest stay
    /// put, and the engine's `Alg4Observer` applies `c mod t`.
    fn run_explicit(
        torus: Torus2d,
        starts: &[NodeId],
        walking: &[bool],
        rounds: u64,
    ) -> ScenarioOutcome {
        let n = starts.len();
        let mut engine = Engine::new(torus, n);
        for (a, &w) in walking.iter().enumerate() {
            let model = if w {
                MovementModel::Drift { move_index: 2 }
            } else {
                MovementModel::Stationary
            };
            engine.set_movement(a, model);
        }
        engine.place_at(starts);
        let mut tallies = EncounterTallies::new(n, 0);
        let mut counts = vec![0u32; n];
        for round in 1..=rounds {
            engine.step_round();
            for (a, c) in counts.iter_mut().enumerate() {
                *c = engine.count(a);
            }
            tallies.record(&RoundEvents {
                round,
                counts: &counts,
                raw_counts: &counts,
                group_counts: None,
            });
        }
        Alg4Observer {
            walking: walking.to_vec(),
        }
        .snapshot(&tallies, engine.density())
    }

    fn mean_relative_error(run: &ScenarioOutcome) -> f64 {
        let e = run.relative_errors();
        e.iter().sum::<f64>() / e.len() as f64
    }

    #[test]
    fn unbiased_on_torus() {
        let spec = algorithm4(64, 513, 63); // d = 512/4096 = 0.125
        let runs = 10;
        let grand: f64 = (0..runs).map(|seed| spec.run(seed).mean_estimate()).sum();
        let mean = grand / runs as f64;
        assert!((mean - 0.125).abs() < 0.01, "grand mean {mean}");
    }

    #[test]
    fn colocated_walkers_corrected_exactly() {
        // Two walking agents on the same start cell, nobody else: they
        // march in lockstep and collide every round. Without mod t each
        // would report c = t (estimate 2.0!); the correction zeroes it.
        let run = run_explicit(Torus2d::new(32), &[100, 100], &[true, true], 16);
        assert_eq!(run.collision_counts, vec![0, 0]);
        assert_eq!(run.estimates, vec![0.0, 0.0]);
    }

    #[test]
    fn colocated_stack_of_three_walkers() {
        // w+1 = 3 co-located walkers: each counts 2 per round = 2t total,
        // and 2t mod t = 0. Correction handles any stack size.
        let run = run_explicit(Torus2d::new(32), &[5, 5, 5], &[true, true, true], 10);
        assert_eq!(run.collision_counts, vec![0, 0, 0]);
    }

    #[test]
    fn walker_meets_stationary_agent_once() {
        // A walker passing a stationary agent directly above it collides
        // exactly once (torus side > t).
        let torus = Torus2d::new(32);
        let start = torus.node(3, 3);
        let blocker = torus.node(3, 7); // 4 steps up
        let run = run_explicit(torus, &[start, blocker], &[true, false], 16);
        assert_eq!(run.collision_counts[0], 1);
        assert_eq!(run.collision_counts[1], 1);
        // estimate = 2 * 1 / 16 = 0.125
        assert!((run.estimates[0] - 0.125).abs() < 1e-12);
    }

    #[test]
    fn two_stationary_agents_on_same_cell_saturate_mod() {
        // Degenerate but instructive: two stationary agents together
        // collide every round -> c = t -> c mod t = 0. (The paper's
        // analysis only needs the walking-agent estimates; symmetry makes
        // stationary agents behave identically.)
        let run = run_explicit(Torus2d::new(32), &[9, 9], &[false, false], 8);
        assert_eq!(run.collision_counts, vec![0, 0]);
    }

    #[test]
    fn more_accurate_than_algorithm1_at_same_t() {
        // Theorem 32 vs Theorem 1: independent sampling saves the log
        // factor. With matched (A, d, t) Algorithm 4's error variance
        // should not exceed Algorithm 1's by much; typically it's smaller.
        let agents = 2049; // d = 2048/16384 = 0.125
        let rounds = 100;
        let alg4 = algorithm4(128, agents, rounds);
        let alg1 = Scenario::new(TopologySpec::Torus2d { side: 128 }, agents, rounds);
        let mut err4 = 0.0;
        let mut err1 = 0.0;
        for seed in 0..5 {
            err4 += mean_relative_error(&alg4.run(seed));
            err1 += mean_relative_error(&alg1.run(seed));
        }
        // allow generous slack; the key regression guard is that alg4 is
        // in the same ballpark or better, never wildly worse.
        assert!(
            err4 < err1 * 1.5,
            "algorithm 4 error {err4} should not exceed algorithm 1 error {err1} by 50%"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let spec = algorithm4(32, 65, 16);
        assert_eq!(spec.run(11), spec.run(11));
    }

    #[test]
    #[should_panic(expected = "t < sqrt(A)")]
    fn rejects_t_of_sqrt_a() {
        let _ = algorithm4(16, 4, 16).run(0);
    }
}
