//! Paper-level checks of Algorithm 1 (Section 2.1: every agent walks and
//! returns `d̃ = c/t`), run end to end through the one simulator,
//! [`antdensity_engine::Scenario`]. Test-only: the algorithm itself is the
//! engine's `EstimatorSpec::Algorithm1`.

mod tests {
    use crate::local::run_with_placement;
    use antdensity_engine::{MovementModel, Scenario, ScenarioOutcome, TopologySpec};
    use antdensity_graphs::Torus2d;

    fn mean_relative_error(run: &ScenarioOutcome) -> f64 {
        let e = run.relative_errors();
        e.iter().sum::<f64>() / e.len() as f64
    }

    #[test]
    fn mean_estimate_is_unbiased_on_torus() {
        // Lemma 2 / Corollary 3: E[d~] = d. Average over agents and seeds.
        let spec = Scenario::new(TopologySpec::Torus2d { side: 16 }, 33, 128); // d = 32/256
        let runs = 20;
        let grand: f64 = (0..runs).map(|seed| spec.run(seed).mean_estimate()).sum();
        let mean = grand / runs as f64;
        assert!(
            (mean - 0.125).abs() < 0.01,
            "grand mean {mean} should be near 0.125"
        );
    }

    #[test]
    fn single_agent_estimates_zero() {
        // Paper Section 2.1: with one agent, d = n/A = 0 and the agent
        // must return 0 (it never collides).
        let run = Scenario::new(TopologySpec::Torus2d { side: 8 }, 1, 64).run(1);
        assert_eq!(run.true_density, 0.0);
        assert_eq!(run.estimates, vec![0.0]);
        assert_eq!(run.fraction_within(0.5), 1.0);
    }

    #[test]
    fn estimates_concentrate_with_more_rounds() {
        let torus = TopologySpec::Torus2d { side: 16 };
        let short = Scenario::new(torus, 65, 16).run(7);
        let long = Scenario::new(torus, 65, 1024).run(7);
        assert!(
            mean_relative_error(&long) < mean_relative_error(&short),
            "longer runs must be more accurate: {} vs {}",
            mean_relative_error(&long),
            mean_relative_error(&short)
        );
    }

    #[test]
    fn complete_graph_matches_density_quickly() {
        // i.i.d. sampling: 512 rounds at d = 0.125 is plenty.
        let run = Scenario::new(TopologySpec::Complete { nodes: 256 }, 33, 512).run(3);
        assert!((run.mean_estimate() - run.true_density).abs() < 0.02);
        assert!(run.fraction_within(0.5) > 0.95);
    }

    #[test]
    fn collision_counts_match_estimates() {
        let run = Scenario::new(TopologySpec::Torus2d { side: 8 }, 10, 50).run(9);
        assert_eq!(run.collision_counts.len(), run.estimates.len());
        for (c, e) in run.collision_counts.iter().zip(&run.estimates) {
            assert!((*c as f64 / 50.0 - e).abs() < 1e-12);
        }
    }

    #[test]
    fn ring_estimates_are_noisier_than_torus() {
        // Section 4.2: the ring's poor local mixing inflates the error.
        // Match A, d, t across the two topologies and compare mean errors
        // over several seeds.
        let agents = 129; // d = 128/1024 = 0.125
        let rounds = 256;
        let ring = Scenario::new(TopologySpec::Ring { nodes: 1024 }, agents, rounds);
        let torus = Scenario::new(TopologySpec::Torus2d { side: 32 }, agents, rounds);
        let mut ring_err = 0.0;
        let mut torus_err = 0.0;
        for seed in 0..8 {
            ring_err += mean_relative_error(&ring.run(seed));
            torus_err += mean_relative_error(&torus.run(seed));
        }
        assert!(
            ring_err > torus_err,
            "ring error {ring_err} should exceed torus error {torus_err}"
        );
    }

    #[test]
    fn run_is_seed_deterministic() {
        let spec = Scenario::new(TopologySpec::Torus2d { side: 8 }, 12, 40);
        assert_eq!(spec.run(5), spec.run(5));
        assert_ne!(spec.run(5), spec.run(6));
    }

    #[test]
    fn run_from_fixed_positions() {
        // Explicit placement is `local::run_with_placement`'s job. All
        // agents stacked on one node: each sees at most the other two per
        // round.
        let torus = Torus2d::new(4);
        let run = run_with_placement(&torus, &[5, 5, 5], 10, 0, 1);
        assert_eq!(run.estimates.len(), 3);
        assert!(run.estimates.iter().all(|e| (0.0..=2.0).contains(e)));
    }

    #[test]
    fn lazy_movement_still_unbiased() {
        let spec = Scenario::new(TopologySpec::Torus2d { side: 16 }, 33, 256)
            .with_movement(MovementModel::lazy(0.2));
        let grand: f64 = (0..10).map(|seed| spec.run(seed).mean_estimate()).sum();
        let mean = grand / 10.0;
        assert!((mean - 0.125).abs() < 0.015, "mean {mean}");
    }
}
