//! Engine/reference equivalence properties.
//!
//! The engine replaced the original stepper's per-round `HashMap`
//! occupancy rebuilds with dense touched-list buffers while promising to
//! preserve the historical RNG draw order of sequential stepping
//! bit-for-bit. These tests hold it to that:
//!
//! * a **reference stepper** — a verbatim replica of the pre-engine
//!   round loop (HashMap occupancy, same draw order) — must produce
//!   identical trajectories and occupancy counts as `Engine::step_round`
//!   called both ways it is called: monomorphized over a concrete RNG,
//!   and through `&mut dyn RngCore`. Both are checked for the same seed
//!   across torus / ring / hypercube / complete topologies and across
//!   the avoidance/flee variants;
//! * the per-block stepping of `Engine::step_round_parallel` draws a
//!   different stream but conserves occupancy and pairs collisions, as
//!   sequential stepping does.

use antdensity_engine::{Engine, MovementModel};
use antdensity_graphs::{CompleteGraph, Hypercube, NodeId, Ring, Topology, Torus2d};
use antdensity_stats::rng::SeedSequence;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use std::collections::HashMap;

/// The pre-engine sequential round loop, kept verbatim as ground truth.
struct ReferenceArena<T: Topology> {
    topo: T,
    positions: Vec<NodeId>,
    movement: Vec<MovementModel>,
    occupancy: HashMap<NodeId, u32>,
    avoidance: Option<f64>,
    flee: bool,
}

impl<T: Topology> ReferenceArena<T> {
    fn new(topo: T, num_agents: usize) -> Self {
        Self {
            topo,
            positions: vec![0; num_agents],
            movement: vec![MovementModel::Pure; num_agents],
            occupancy: HashMap::new(),
            avoidance: None,
            flee: false,
        }
    }

    fn place_uniform(&mut self, rng: &mut dyn RngCore) {
        for p in self.positions.iter_mut() {
            *p = self.topo.uniform_node(rng);
        }
        self.rebuild_occupancy();
    }

    fn step_round(&mut self, rng: &mut dyn RngCore) {
        if self.avoidance.is_none() && !self.flee {
            for (pos, model) in self.positions.iter_mut().zip(&self.movement) {
                *pos = model.step(&self.topo, *pos, rng);
            }
        } else {
            for i in 0..self.positions.len() {
                let cur = self.positions[i];
                let collided = self.occupancy.get(&cur).copied().unwrap_or(0) >= 2;
                let mut next = self.movement[i].step(&self.topo, cur, rng);
                if let Some(p) = self.avoidance {
                    let target_busy =
                        next != cur && self.occupancy.get(&next).copied().unwrap_or(0) >= 1;
                    if target_busy && rng.gen_bool(p) {
                        next = cur;
                    }
                }
                if self.flee && collided {
                    next = self.movement[i].step(&self.topo, next, rng);
                }
                self.positions[i] = next;
            }
        }
        self.rebuild_occupancy();
    }

    fn rebuild_occupancy(&mut self) {
        self.occupancy.clear();
        for &p in &self.positions {
            *self.occupancy.entry(p).or_insert(0) += 1;
        }
    }
}

/// Steps the reference and two engines in lockstep from identical seeds
/// and asserts identical trajectories and occupancy every round. One
/// engine draws through `&mut dyn RngCore` (the type-erased call shape),
/// the other monomorphized over `SmallRng`.
fn assert_equivalent<T: Topology + Clone>(
    topo: T,
    agents: usize,
    rounds: u64,
    seed: u64,
    movement: MovementModel,
    avoidance: Option<f64>,
    flee: bool,
) {
    let mut reference = ReferenceArena::new(topo.clone(), agents);
    reference.movement = vec![movement.clone(); agents];
    reference.avoidance = avoidance;
    reference.flee = flee;

    let configured = || {
        let mut engine = Engine::new(topo.clone(), agents);
        engine.set_movement_all(&movement);
        engine.set_avoidance(avoidance);
        engine.set_flee(flee);
        engine
    };
    let mut dyn_engine = configured();
    let mut engine = configured();

    let mut rng_ref = SmallRng::seed_from_u64(seed);
    let mut rng_dyn = SmallRng::seed_from_u64(seed);
    let rng_dyn: &mut dyn RngCore = &mut rng_dyn;
    let mut rng_engine = SmallRng::seed_from_u64(seed);
    reference.place_uniform(&mut rng_ref);
    dyn_engine.place_uniform(rng_dyn);
    engine.place_uniform(&mut rng_engine);

    for round in 0..=rounds {
        if round > 0 {
            reference.step_round(&mut rng_ref);
            dyn_engine.step_round(rng_dyn);
            engine.step_round(&mut rng_engine);
        }
        for a in 0..agents {
            assert_eq!(
                reference.positions[a],
                dyn_engine.position(a),
                "dyn-RNG engine diverged from reference at round {round}, agent {a}"
            );
            assert_eq!(
                reference.positions[a],
                engine.position(a),
                "engine diverged from reference at round {round}, agent {a}"
            );
        }
        for v in 0..topo.num_nodes() {
            let expected = reference.occupancy.get(&v).copied().unwrap_or(0);
            assert_eq!(
                expected,
                dyn_engine.occupancy(v),
                "dyn-RNG engine occupancy at node {v}"
            );
            assert_eq!(
                expected,
                engine.occupancy(v),
                "engine occupancy at node {v}"
            );
        }
        let distinct = reference.occupancy.len();
        assert_eq!(distinct, dyn_engine.occupied_nodes());
        assert_eq!(distinct, engine.occupied_nodes());
    }
}

fn movement_for(kind: usize) -> MovementModel {
    match kind {
        0 => MovementModel::Pure,
        1 => MovementModel::lazy(0.25),
        _ => MovementModel::Stationary,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn torus_trajectories_identical(
        agents in 1usize..40,
        rounds in 0u64..25,
        kind in 0usize..3,
        seed in any::<u64>(),
    ) {
        assert_equivalent(Torus2d::new(8), agents, rounds, seed, movement_for(kind), None, false);
    }

    #[test]
    fn ring_trajectories_identical(
        agents in 1usize..40,
        rounds in 0u64..25,
        seed in any::<u64>(),
    ) {
        assert_equivalent(Ring::new(31), agents, rounds, seed, MovementModel::Pure, None, false);
    }

    #[test]
    fn hypercube_trajectories_identical(
        agents in 1usize..40,
        rounds in 0u64..25,
        seed in any::<u64>(),
    ) {
        assert_equivalent(Hypercube::new(5), agents, rounds, seed, MovementModel::Pure, None, false);
    }

    #[test]
    fn complete_trajectories_identical(
        agents in 1usize..40,
        rounds in 0u64..25,
        seed in any::<u64>(),
    ) {
        assert_equivalent(
            CompleteGraph::new(24), agents, rounds, seed, MovementModel::Pure, None, false,
        );
    }

    #[test]
    fn avoidance_and_flee_paths_identical(
        agents in 2usize..32,
        rounds in 1u64..20,
        avoidance in 0.0..=1.0f64,
        flee in prop::bool::ANY,
        seed in any::<u64>(),
    ) {
        assert_equivalent(
            Torus2d::new(6), agents, rounds, seed,
            MovementModel::Pure, Some(avoidance), flee,
        );
    }

    #[test]
    fn parallel_and_sequential_agree_statistically(
        agents in 2usize..200,
        seed in any::<u64>(),
    ) {
        // Different draw orders, same model: occupancy must always be
        // conserved and counts symmetric in both modes.
        let mut seq_engine = Engine::new(Torus2d::new(12), agents);
        seq_engine.place_uniform(&mut SmallRng::seed_from_u64(seed));
        let mut rng = SmallRng::seed_from_u64(seed ^ 1);
        for _ in 0..5 {
            seq_engine.step_round(&mut rng);
        }
        let mut par_engine =
            Engine::new(Torus2d::new(12), agents).with_seed_sequence(SeedSequence::new(seed));
        par_engine.place_uniform(&mut SmallRng::seed_from_u64(seed));
        for _ in 0..5 {
            par_engine.step_round_parallel();
        }
        for engine in [&seq_engine, &par_engine] {
            let total: u32 = (0..engine.topology().num_nodes())
                .map(|v| engine.occupancy(v))
                .sum();
            prop_assert_eq!(total as usize, agents);
            let collisions: u32 = (0..agents).map(|a| engine.count(a)).sum();
            prop_assert_eq!(collisions % 2, 0);
        }
    }
}
