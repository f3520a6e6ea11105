//! Unit tests of the walk recorder in `tests/support`, under the module
//! path they had when it was library code.

mod tests {
    use crate::support::Trajectory;
    use antdensity_engine::MovementModel;
    use antdensity_graphs::{Ring, Torus2d};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn record_has_t_plus_one_positions() {
        let topo = Torus2d::new(8);
        let mut rng = SmallRng::seed_from_u64(1);
        let tr = Trajectory::record(&topo, 0, 10, &MovementModel::Pure, &mut rng);
        assert_eq!(tr.rounds(), 10);
        assert_eq!(tr.nodes().len(), 11);
        assert_eq!(tr.start(), 0);
        assert_eq!(tr.nodes()[0], 0);
    }

    #[test]
    fn consecutive_positions_are_adjacent() {
        let topo = Torus2d::new(8);
        let mut rng = SmallRng::seed_from_u64(2);
        let tr = Trajectory::record(&topo, 5, 50, &MovementModel::Pure, &mut rng);
        for w in tr.nodes().windows(2) {
            assert_eq!(topo.torus_distance(w[0], w[1]), 1);
        }
    }

    #[test]
    fn axis_steps_sum_to_rounds_for_pure_walk() {
        let topo = Torus2d::new(16);
        let mut rng = SmallRng::seed_from_u64(3);
        let tr = Trajectory::record(&topo, 0, 200, &MovementModel::Pure, &mut rng);
        let (mx, my) = tr.axis_step_counts(&topo);
        assert_eq!(mx + my, 200);
        // Lemma 9: both are Theta(t) whp; 5-sigma band around t/2 = 100.
        assert!((mx as f64 - 100.0).abs() < 5.0 * (200.0f64 * 0.25).sqrt() + 1.0);
    }

    #[test]
    fn lazy_walk_axis_steps_below_rounds() {
        let topo = Torus2d::new(16);
        let mut rng = SmallRng::seed_from_u64(4);
        let tr = Trajectory::record(&topo, 0, 100, &MovementModel::lazy(0.5), &mut rng);
        let (mx, my) = tr.axis_step_counts(&topo);
        assert!(mx + my < 100);
    }

    #[test]
    fn equalizations_counted() {
        let tr = Trajectory {
            nodes: vec![4, 5, 4, 3, 4],
        };
        assert_eq!(tr.equalizations(), 2);
        assert_eq!(tr.distinct_range(), 3);
    }

    #[test]
    fn drift_on_ring_never_equalizes_prematurely() {
        let ring = Ring::new(10);
        let mut rng = SmallRng::seed_from_u64(5);
        let tr = Trajectory::record(
            &ring,
            0,
            9,
            &MovementModel::Drift { move_index: 0 },
            &mut rng,
        );
        assert_eq!(tr.equalizations(), 0);
        assert_eq!(tr.distinct_range(), 10);
        assert_eq!(tr.end(), 9);
    }

    #[test]
    #[should_panic(expected = "illegal hop")]
    fn axis_steps_reject_teleports() {
        let topo = Torus2d::new(8);
        let tr = Trajectory { nodes: vec![0, 20] };
        let _ = tr.axis_step_counts(&topo);
    }
}
