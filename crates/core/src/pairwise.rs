//! Unit tests of the one- and two-walk samplers in [`crate::recollision`],
//! under the module path they had when the samplers lived in their own
//! crate.

mod tests {
    use crate::recollision::{
        equalization_moments, mc_recollision_curve, pair_count_moments, visit_count_moments,
    };
    use antdensity_graphs::{CompleteGraph, Ring, Torus2d};
    use antdensity_stats::moments::CentralMoments;

    fn mean(cm: CentralMoments) -> f64 {
        cm.center() + cm.moment(1)
    }

    #[test]
    fn recollision_lag_zero_is_certain() {
        let t = Torus2d::new(8);
        assert_eq!(mc_recollision_curve(&t, 5, 0, 1, 1, 1), [1.0]);
    }

    #[test]
    fn recollision_odd_lag_impossible_on_even_torus() {
        // The difference of two same-parity walks is even: on a bipartite
        // torus both agents sit in the same part after each round, so a
        // re-collision at odd lag... is actually possible (both moved).
        // What IS impossible: the two agents' displacement parity differs.
        // Here we check the exact-lag-1 case on the ring of size 4:
        // after 1 step from the same node they meet iff they chose the
        // same move: probability 1/2.
        let r = Ring::new(4);
        let rate = mc_recollision_curve(&r, 0, 1, 20_000, 2, 1)[1];
        assert!((rate - 0.5).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn recollision_series_matches_exact_on_complete_graph() {
        // On CompleteGraph the re-collision probability at every lag >= 1
        // is exactly 1/A.
        let g = CompleteGraph::new(16);
        let rates = mc_recollision_curve(&g, 0, 5, 20_000, 3, 1);
        assert_eq!(rates[0], 1.0);
        for (m, &rate) in rates.iter().enumerate().skip(1) {
            assert!(
                (rate - 1.0 / 16.0).abs() < 0.01,
                "lag {m} rate {rate} should be 1/16"
            );
        }
    }

    #[test]
    fn pair_collision_count_mean_is_t_over_a() {
        // E[c_j] = t/A (proof of Lemma 12).
        let t = Torus2d::new(8); // A = 64
        let rounds = 32u64;
        let mean = mean(pair_count_moments(&t, rounds, 1, 40_000, 4, 1));
        let expected = rounds as f64 / 64.0;
        // std of c_j is O(sqrt(t/A log t)); 40k trials give tight CI
        assert!(
            (mean - expected).abs() < 0.02,
            "mean {mean} vs expected {expected}"
        );
    }

    #[test]
    fn equalization_zero_rounds_is_zero() {
        let t = Torus2d::new(4);
        assert_eq!(mean(equalization_moments(&t, 0, 0, 1, 1, 6, 1)), 0.0);
    }

    #[test]
    fn equalization_rate_on_complete_graph() {
        // On CompleteGraph, each round returns to start w.p. 1/A.
        let g = CompleteGraph::new(8);
        let t = 50u64;
        let mean = mean(equalization_moments(&g, 3, t, 1, 10_000, 7, 1));
        assert!((mean - t as f64 / 8.0).abs() < 0.15, "mean {mean}");
    }

    #[test]
    fn visit_count_mean_is_t_over_a() {
        let topo = Torus2d::new(8);
        let t = 64u64;
        let mean = mean(visit_count_moments(&topo, 0, t, 1, 20_000, 8, 1));
        assert!((mean - 1.0).abs() < 0.05, "mean {mean} should be t/A = 1");
    }
}
