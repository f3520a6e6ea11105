//! Unit tests of the one- and two-walk samplers in [`crate::recollision`],
//! under the module path they had when the samplers lived in their own
//! crate.

mod tests {
    use crate::recollision::{
        equalization_count, pair_collision_count, recollision_series, visit_count,
    };
    use antdensity_graphs::{CompleteGraph, Ring, Torus2d};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn recollision_lag_zero_is_certain() {
        let t = Torus2d::new(8);
        let mut rng = SmallRng::seed_from_u64(1);
        assert!(recollision_series(&t, 5, 0, &mut rng)[0]);
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
        let mut rng = SmallRng::seed_from_u64(2);
        let hits = (0..20_000)
            .filter(|_| recollision_series(&r, 0, 1, &mut rng)[1])
            .count();
        let rate = hits as f64 / 20_000.0;
        assert!((rate - 0.5).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn recollision_series_matches_exact_on_complete_graph() {
        // On CompleteGraph the re-collision probability at every lag >= 1
        // is exactly 1/A.
        let g = CompleteGraph::new(16);
        let mut rng = SmallRng::seed_from_u64(3);
        let trials = 20_000;
        let t = 5;
        let mut hits = vec![0u32; t as usize + 1];
        for _ in 0..trials {
            for (m, hit) in recollision_series(&g, 0, t, &mut rng).iter().enumerate() {
                if *hit {
                    hits[m] += 1;
                }
            }
        }
        assert_eq!(hits[0], trials);
        for (m, &hit_count) in hits.iter().enumerate().skip(1) {
            let rate = hit_count as f64 / trials as f64;
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
        let mut rng = SmallRng::seed_from_u64(4);
        let rounds = 32u64;
        let trials = 40_000;
        let total: u64 = (0..trials)
            .map(|_| pair_collision_count(&t, rounds, &mut rng))
            .sum();
        let mean = total as f64 / trials as f64;
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
        let mut rng = SmallRng::seed_from_u64(6);
        assert_eq!(equalization_count(&t, 0, 0, &mut rng), 0);
    }

    #[test]
    fn equalization_rate_on_complete_graph() {
        // On CompleteGraph, each round returns to start w.p. 1/A.
        let g = CompleteGraph::new(8);
        let mut rng = SmallRng::seed_from_u64(7);
        let t = 50u64;
        let trials = 10_000;
        let total: u64 = (0..trials)
            .map(|_| equalization_count(&g, 3, t, &mut rng))
            .sum();
        let mean = total as f64 / trials as f64;
        assert!((mean - t as f64 / 8.0).abs() < 0.15, "mean {mean}");
    }

    #[test]
    fn visit_count_mean_is_t_over_a() {
        let topo = Torus2d::new(8);
        let mut rng = SmallRng::seed_from_u64(8);
        let t = 64u64;
        let trials = 20_000;
        let total: u64 = (0..trials)
            .map(|_| visit_count(&topo, 0, t, &mut rng))
            .sum();
        let mean = total as f64 / trials as f64;
        assert!((mean - 1.0).abs() < 0.05, "mean {mean} should be t/A = 1");
    }
}
