//! Paper-level checks of the Section 5.2 relative-frequency read-out
//! (`f̃_P = d̃_P / d̃`), run end to end through the one simulator,
//! [`antdensity_engine::Scenario`]. Test-only: the estimator itself is
//! the engine's `EstimatorSpec::RelativeFrequency`, under which the first
//! `property_agents` agents carry property P.

mod tests {
    use antdensity_engine::{
        EstimatorSpec, MovementModel, Scenario, ScenarioOutcome, TopologySpec,
    };

    fn frequency_run(
        topology: TopologySpec,
        agents: usize,
        property_agents: usize,
        rounds: u64,
        seed: u64,
    ) -> ScenarioOutcome {
        Scenario::new(topology, agents, rounds)
            .with_estimator(EstimatorSpec::RelativeFrequency { property_agents })
            .run(seed)
    }

    /// The population-level property frequency `f_P = |P| / (n+1)`.
    fn true_frequency(run: &ScenarioOutcome, property_agents: usize) -> f64 {
        property_agents as f64 / run.estimates.len() as f64
    }

    /// Mean of the defined per-agent frequency estimates.
    fn mean_frequency(run: &ScenarioOutcome) -> Option<f64> {
        let defined: Vec<f64> = run.frequencies().into_iter().flatten().collect();
        (!defined.is_empty()).then(|| defined.iter().sum::<f64>() / defined.len() as f64)
    }

    /// Fraction of agents whose `f̃_P` lies within the paper's two-sided
    /// band `[(1−eps)/(1+eps)·f, (1+eps)/(1−eps)·f]`.
    fn fraction_within(run: &ScenarioOutcome, f: f64, eps: f64) -> f64 {
        let lo = (1.0 - eps) / (1.0 + eps) * f;
        let hi = (1.0 + eps) / (1.0 - eps) * f;
        let ok = run
            .frequencies()
            .into_iter()
            .flatten()
            .filter(|&x| x >= lo && x <= hi)
            .count();
        ok as f64 / run.estimates.len() as f64
    }

    #[test]
    fn frequency_estimates_converge_on_complete_graph() {
        // d = 256/512, f_P = 64/257 ~ 0.249
        let run = frequency_run(TopologySpec::Complete { nodes: 512 }, 257, 64, 512, 1);
        let f = mean_frequency(&run).expect("plenty of collisions");
        let truth = true_frequency(&run, 64);
        assert!(
            (f - truth).abs() < 0.03,
            "mean frequency {f} vs truth {truth}"
        );
    }

    #[test]
    fn frequency_estimates_on_torus() {
        let run = frequency_run(TopologySpec::Torus2d { side: 16 }, 65, 32, 2048, 2);
        let f = mean_frequency(&run).expect("defined");
        let truth = true_frequency(&run, 32); // ~0.492
        assert!((f - truth).abs() < 0.08, "mean {f} vs truth {truth}");
    }

    #[test]
    fn property_density_le_density() {
        let run = frequency_run(TopologySpec::Torus2d { side: 8 }, 20, 5, 100, 3);
        let property = run.property_estimates.as_ref().expect("frequency run");
        for (d, dp) in run.estimates.iter().zip(property) {
            assert!(*dp <= d + 1e-12);
        }
        for f in run.frequencies().into_iter().flatten() {
            assert!((0.0..=1.0 + 1e-12).contains(&f));
        }
    }

    #[test]
    fn zero_property_holders_give_zero_frequency() {
        let run = frequency_run(TopologySpec::Torus2d { side: 8 }, 10, 0, 50, 4);
        assert_eq!(true_frequency(&run, 0), 0.0);
        let property = run.property_estimates.as_ref().expect("frequency run");
        assert!(property.iter().all(|&dp| dp == 0.0));
        for f in run.frequencies().into_iter().flatten() {
            assert_eq!(f, 0.0);
        }
    }

    #[test]
    fn all_property_holders_give_unit_frequency() {
        let run = frequency_run(TopologySpec::Complete { nodes: 64 }, 33, 33, 256, 5);
        assert_eq!(true_frequency(&run, 33), 1.0);
        let f = mean_frequency(&run).expect("defined");
        assert!((f - 1.0).abs() < 1e-9, "f = {f}");
    }

    #[test]
    fn has_property_flags_assigned() {
        // Ten stationary agents on one node meet everyone every round, so
        // an agent's property-encounter rate is |P| minus its own flag:
        // exactly the first three agents see 2, the other seven see 3.
        let run = Scenario::new(TopologySpec::Complete { nodes: 1 }, 10, 10)
            .with_movement(MovementModel::Stationary)
            .with_estimator(EstimatorSpec::RelativeFrequency { property_agents: 3 })
            .run(6);
        let property = run.property_estimates.expect("frequency run");
        let flagged: Vec<usize> = (0..10).filter(|&a| property[a] == 2.0).collect();
        assert_eq!(flagged, vec![0, 1, 2]);
        assert!(property[3..].iter().all(|&dp| dp == 3.0));
    }

    #[test]
    fn fraction_within_band_improves_with_rounds() {
        let complete = TopologySpec::Complete { nodes: 256 };
        let short = frequency_run(complete, 129, 64, 16, 7);
        let long = frequency_run(complete, 129, 64, 2048, 7);
        let f = true_frequency(&long, 64);
        assert!(fraction_within(&long, f, 0.2) >= fraction_within(&short, f, 0.2));
        assert!(fraction_within(&long, f, 0.2) > 0.9);
    }

    #[test]
    #[should_panic(expected = "property population exceeds agent count")]
    fn too_many_property_holders_rejected() {
        let _ = Scenario::new(TopologySpec::Torus2d { side: 8 }, 5, 10)
            .with_estimator(EstimatorSpec::RelativeFrequency { property_agents: 6 });
    }
}
