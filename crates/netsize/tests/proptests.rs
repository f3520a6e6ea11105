//! Property-based tests for the network-size estimation crate.

use antdensity_graphs::generators;
use antdensity_netsize::algorithm2::{Algorithm2, StartMode};
use antdensity_netsize::degree::estimate_from_positions;
use antdensity_netsize::planner::plan_for_rounds;
use antdensity_netsize::queries::QueryCount;
use antdensity_netsize::singlewalk::SingleWalk;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn algorithm2_query_accounting_is_exact(
        walks in 2usize..30,
        rounds in 1u64..30,
        burnin in 0u64..20,
        seed in any::<u64>(),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = generators::random_regular(64, 4, 500, &mut rng).unwrap();
        let run = Algorithm2::new(walks, rounds).run(
            &g,
            4.0,
            StartMode::SeedWithBurnin { seed_vertex: 0, steps: burnin },
            seed,
        );
        prop_assert_eq!(run.queries.burnin, burnin * walks as u64);
        prop_assert_eq!(run.queries.walking, rounds * walks as u64);
        prop_assert!(run.estimate > 0.0);
        prop_assert!(run.weighted_collisions >= 0.0);
    }

    #[test]
    fn degree_estimate_bounded_by_extremes(
        raw_positions in prop::collection::vec(0u64..64, 1..40),
        seed in any::<u64>(),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = generators::barabasi_albert(64, 2, &mut rng).unwrap();
        let positions: Vec<u64> = raw_positions;
        let est = estimate_from_positions(&g, &positions);
        // 1/deg estimates live between 1/max_deg and 1/min_deg
        prop_assert!(est.inverse_avg_degree >= 1.0 / g.max_degree() as f64 - 1e-12);
        prop_assert!(est.inverse_avg_degree <= 1.0 / g.min_degree() as f64 + 1e-12);
        prop_assert!((est.avg_degree * est.inverse_avg_degree - 1.0).abs() < 1e-9);
    }

    #[test]
    fn planner_respects_n2t_budget(
        t in 1u64..2048,
        b in 0.1..20.0f64,
        eps in 0.05..0.9f64,
        delta in 0.05..0.9f64,
    ) {
        let plan = plan_for_rounds(t, b, 3000, 1000, eps, delta, 0, 1.0);
        let n2t = (plan.walks as f64).powi(2) * t as f64;
        let required = antdensity_stats::bounds::theorem27_n2t(
            b, 3000.0, 1000.0, eps, delta, 1.0);
        // n is the ceiling of the exact solution: n^2 t covers the budget
        prop_assert!(n2t >= required - 1e-6, "n2t {n2t} vs required {required}");
        // and is tight within (n+1)^2/n^2
        let prev = (plan.walks as f64 - 1.0).max(1.0);
        prop_assert!(prev * prev * t as f64 <= required + 2.0 * t as f64 + prev * prev * 4.0);
        prop_assert_eq!(
            plan.predicted_queries,
            plan.walks as u64 * (plan.burnin + plan.rounds)
        );
    }

    #[test]
    fn query_count_addition_commutes(
        a in any::<(u16, u16, u16)>(),
        b in any::<(u16, u16, u16)>(),
    ) {
        let qa = QueryCount { burnin: a.0 as u64, walking: a.1 as u64, degree_sampling: a.2 as u64 };
        let qb = QueryCount { burnin: b.0 as u64, walking: b.1 as u64, degree_sampling: b.2 as u64 };
        prop_assert_eq!(qa + qb, qb + qa);
        prop_assert_eq!((qa + qb).total(), qa.total() + qb.total());
    }

    #[test]
    fn singlewalk_queries_and_support(
        samples in 2usize..40,
        gap in 1u64..10,
        seed in any::<u64>(),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = generators::random_regular(32, 4, 500, &mut rng).unwrap();
        let run = SingleWalk::new(samples, gap).run(&g, 4.0, &[0], seed)[0];
        prop_assert_eq!(run.queries.walking, samples as u64 * gap);
        prop_assert_eq!(run.samples, samples);
        prop_assert!(run.estimate > 0.0);
        // weighted collisions bounded by total pairs / min degree
        let pairs = samples as f64 * (samples as f64 - 1.0) / 2.0;
        prop_assert!(run.weighted_collisions <= pairs / g.min_degree() as f64 + 1e-9);
    }
}
