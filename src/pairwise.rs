//! Unit test of `collision_count_against_path` in `tests/support`, under
//! the module path it had when that function was library code.

mod tests {
    use crate::support::collision_count_against_path;
    use antdensity_graphs::{NodeId, Topology, Torus2d};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn collision_count_against_path_mean_matches() {
        // Conditioned on any focal path, E[c_j | W] = t/A (Lemma 2).
        let topo = Torus2d::new(8);
        let mut rng = SmallRng::seed_from_u64(5);
        // build an arbitrary fixed path of length t+1
        let path: Vec<NodeId> = {
            let mut v = topo.node(3, 3);
            let mut p = vec![v];
            for i in 0..32 {
                v = topo.neighbor(v, i % 4);
                p.push(v);
            }
            p
        };
        let trials = 40_000;
        let total: u64 = (0..trials)
            .map(|_| collision_count_against_path(&topo, &path, &mut rng))
            .sum();
        let mean = total as f64 / trials as f64;
        let expected = 32.0 / 64.0;
        assert!(
            (mean - expected).abs() < 0.02,
            "mean {mean} vs expected {expected}"
        );
    }
}
