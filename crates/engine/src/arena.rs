//! Unit tests of the paper's synchronous model (Section 2) as
//! [`crate::Engine`] executes it when stepped round by round
//! from one caller-supplied RNG: occupancy conservation, the
//! `count(position)` sensing primitive, property groups, movement models
//! and the Section 6.1 avoidance/flee variants.

mod tests {
    use crate::{Engine, MovementModel};
    use antdensity_graphs::{CompleteGraph, NodeId, Topology, Torus2d};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn small_arena(agents: usize, seed: u64) -> (Engine<Torus2d>, SmallRng) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut arena = Engine::new(Torus2d::new(8), agents);
        arena.place_uniform(&mut rng);
        (arena, rng)
    }

    #[test]
    fn occupancy_sums_to_agent_count() {
        let (mut arena, mut rng) = small_arena(20, 1);
        for _ in 0..10 {
            arena.step_round(&mut rng);
            let total: u32 = (0..arena.topology().num_nodes())
                .map(|v| arena.occupancy(v))
                .sum();
            assert_eq!(total as usize, 20);
        }
    }

    #[test]
    fn count_is_symmetric_pairwise() {
        // if i and j share a node, both counts include each other
        let (mut arena, mut rng) = small_arena(30, 2);
        for _ in 0..20 {
            arena.step_round(&mut rng);
            for i in 0..30 {
                for j in (i + 1)..30 {
                    let together = arena.position(i) == arena.position(j);
                    if together {
                        assert!(arena.count(i) >= 1);
                        assert!(arena.count(j) >= 1);
                    }
                }
            }
        }
    }

    #[test]
    fn count_matches_occupancy_minus_one() {
        let (mut arena, mut rng) = small_arena(25, 3);
        arena.step_round(&mut rng);
        for a in 0..25 {
            assert_eq!(arena.count(a), arena.occupancy(arena.position(a)) - 1);
        }
    }

    #[test]
    fn total_collision_count_is_even() {
        // Sum over agents of count() double-counts each colliding pair.
        let (mut arena, mut rng) = small_arena(40, 4);
        for _ in 0..10 {
            arena.step_round(&mut rng);
            let total: u32 = (0..40).map(|a| arena.count(a)).sum();
            assert_eq!(total % 2, 0);
        }
    }

    #[test]
    fn density_uses_paper_convention() {
        let arena = Engine::new(Torus2d::new(10), 11);
        // (n+1) = 11 agents on A = 100 nodes: d = n/A = 10/100
        assert!((arena.density() - 0.1).abs() < 1e-12);
        let lone = Engine::new(Torus2d::new(10), 1);
        assert_eq!(lone.density(), 0.0);
    }

    #[test]
    fn stationary_agents_do_not_move() {
        let (mut arena, mut rng) = small_arena(5, 5);
        arena.set_movement_all(&MovementModel::Stationary);
        let before: Vec<NodeId> = (0..5).map(|a| arena.position(a)).collect();
        for _ in 0..10 {
            arena.step_round(&mut rng);
        }
        let after: Vec<NodeId> = (0..5).map(|a| arena.position(a)).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn mixed_movement_models() {
        let (mut arena, mut rng) = small_arena(3, 6);
        arena.set_movement(0, MovementModel::Stationary);
        arena.set_movement(1, MovementModel::Drift { move_index: 2 });
        let p0 = arena.position(0);
        let p1 = arena.position(1);
        arena.step_round(&mut rng);
        assert_eq!(arena.position(0), p0);
        assert_eq!(arena.position(1), arena.topology().offset(p1, 0, 1));
    }

    #[test]
    fn place_at_and_adversarial_stack() {
        let mut rng = SmallRng::seed_from_u64(7);
        let mut arena = Engine::new(Torus2d::new(4), 4);
        arena.place_at(&[5, 5, 5, 2]);
        assert_eq!(arena.count(0), 2);
        assert_eq!(arena.count(3), 0);
        assert_eq!(arena.occupancy(5), 3);
        assert_eq!(arena.occupied_nodes(), 2);
        arena.step_round(&mut rng);
        assert_eq!(arena.round(), 1);
    }

    #[test]
    fn groups_count_only_other_members() {
        let mut arena = Engine::new(Torus2d::new(4), 4);
        arena.assign_group(0, 0);
        arena.assign_group(1, 0);
        arena.assign_group(2, 1);
        arena.place_at(&[9, 9, 9, 9]);
        // agent 0 (group 0) sees 1 other group-0 member and 1 group-1 member
        assert_eq!(arena.count_in_group(0, 0), 1);
        assert_eq!(arena.count_in_group(0, 1), 1);
        // agent 3 (no group) sees both group-0 members
        assert_eq!(arena.count_in_group(3, 0), 2);
        assert_eq!(arena.count(3), 3);
        assert_eq!(arena.group_size(0), 2);
        assert_eq!(arena.group_size(1), 1);
        assert_eq!(arena.group_of(3), None);
    }

    #[test]
    fn uniform_placement_covers_nodes() {
        let mut rng = SmallRng::seed_from_u64(8);
        let mut arena = Engine::new(CompleteGraph::new(16), 4000);
        arena.place_uniform(&mut rng);
        // with 4000 agents on 16 nodes, each node holds ~250
        for v in 0..16 {
            let occ = arena.occupancy(v);
            assert!(
                (occ as f64 - 250.0).abs() < 100.0,
                "node {v} occupancy {occ}"
            );
        }
    }

    #[test]
    fn reproducible_given_seed() {
        let (mut a1, mut r1) = small_arena(10, 99);
        let (mut a2, mut r2) = small_arena(10, 99);
        for _ in 0..20 {
            a1.step_round(&mut r1);
            a2.step_round(&mut r2);
        }
        let p1: Vec<NodeId> = (0..10).map(|a| a1.position(a)).collect();
        let p2: Vec<NodeId> = (0..10).map(|a| a2.position(a)).collect();
        assert_eq!(p1, p2);
    }

    fn encounter_total(avoid: Option<f64>, flee: bool, seed: u64) -> u64 {
        // moderate density (d = 0.125): the regime where both Section 6.1
        // behavioural variants have their documented sign. (At extreme
        // densities near 0.5 the flee effect can invert.)
        let agents = 32;
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut arena = Engine::new(Torus2d::new(16), agents);
        arena.set_avoidance(avoid);
        arena.set_flee(flee);
        arena.place_uniform(&mut rng);
        let mut total = 0u64;
        for _ in 0..600 {
            arena.step_round(&mut rng);
            total += (0..agents).map(|a| arena.count(a) as u64).sum::<u64>();
        }
        total
    }

    #[test]
    fn cell_avoidance_raises_encounters_by_stickiness() {
        // The counter-intuitive emergent effect: freezing in front of
        // occupied cells glues colliding pairs together, so measured
        // encounters EXCEED the pure model's.
        let pure: u64 = (0..5).map(|s| encounter_total(None, false, s)).sum();
        let avoidant: u64 = (0..5).map(|s| encounter_total(Some(1.0), false, s)).sum();
        assert!(
            avoidant > pure,
            "freeze-avoidance must raise encounters: {avoidant} vs {pure}"
        );
    }

    #[test]
    fn flee_lowers_encounter_rate() {
        // Post-encounter dispersal suppresses repeat collisions: the
        // [GPT93]-style below-prediction encounter rates.
        let pure: u64 = (0..5).map(|s| encounter_total(None, false, s)).sum();
        let fleeing: u64 = (0..5).map(|s| encounter_total(None, true, s)).sum();
        assert!(
            fleeing < pure,
            "flee must lower encounters: {fleeing} vs {pure}"
        );
    }

    #[test]
    fn zero_avoidance_matches_pure_model() {
        let mut r1 = SmallRng::seed_from_u64(50);
        let mut a1 = Engine::new(Torus2d::new(8), 10);
        a1.place_uniform(&mut r1);
        let mut r2 = SmallRng::seed_from_u64(50);
        let mut a2 = Engine::new(Torus2d::new(8), 10);
        a2.set_avoidance(Some(0.0));
        a2.place_uniform(&mut r2);
        for _ in 0..20 {
            a1.step_round(&mut r1);
            a2.step_round(&mut r2);
        }
        // rng consumption differs (gen_bool draws), so compare statistics
        // not trajectories: both must conserve occupancy and stay placed.
        let t1: u32 = (0..10).map(|a| a1.count(a)).sum();
        let t2: u32 = (0..10).map(|a| a2.count(a)).sum();
        assert_eq!(t1 % 2, 0);
        assert_eq!(t2 % 2, 0);
    }

    #[test]
    #[should_panic(expected = "avoidance probability")]
    fn avoidance_probability_validated() {
        let mut arena = Engine::new(Torus2d::new(4), 2);
        arena.set_avoidance(Some(1.5));
    }

    #[test]
    #[should_panic(expected = "place agents")]
    fn stepping_unplaced_arena_panics() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut arena = Engine::new(Torus2d::new(4), 2);
        arena.step_round(&mut rng);
    }

    #[test]
    #[should_panic(expected = "at least one agent")]
    fn empty_arena_panics() {
        let _ = Engine::new(Torus2d::new(4), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn place_at_validates_positions() {
        let mut arena = Engine::new(Torus2d::new(2), 1);
        arena.place_at(&[100]);
    }
}
