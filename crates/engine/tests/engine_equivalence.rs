//! Engine/reference equivalence properties.
//!
//! The engine replaced the original stepper's per-round `HashMap`
//! occupancy rebuilds with dense touched-list buffers and batched
//! kernels. A **reference stepper** holds it to the same trajectories:
//! the pre-engine round loop (HashMap occupancy taken once per round,
//! per-agent `gen_range`/`gen_bool` draws through `&mut dyn RngCore`,
//! none of the engine's kernels or movement code), drawing block `b` of
//! round `r` from `seeds.subsequence(r).rng(b)` as the engine's stream
//! contract says. `Engine::step_round` must match it in every position,
//! every node's occupancy and the occupied-node count after every round,
//! across torus / ring / hypercube / complete topologies, for a mixed
//! population covering every `MovementModel` variant as well as all-pure
//! and all-lazy populations (which take the engine's batched kernels),
//! under each of none / avoidance / avoidance + flee / flee.

use antdensity_engine::{Engine, MovementModel, STREAM_BLOCK};
use antdensity_graphs::{CompleteGraph, Hypercube, NodeId, Ring, Topology, Torus2d};
use antdensity_stats::rng::SeedSequence;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use std::collections::HashMap;

/// The pre-engine round loop on the engine's per-block streams.
struct ReferenceArena<T: Topology> {
    topo: T,
    /// The complete graph's walk resamples uniformly over all nodes.
    uniform_resample: bool,
    positions: Vec<NodeId>,
    movement: Vec<MovementModel>,
    occupancy: HashMap<NodeId, u32>,
    avoidance: Option<f64>,
    flee: bool,
    seeds: SeedSequence,
    round: u64,
}

impl<T: Topology> ReferenceArena<T> {
    fn random_neighbor(&self, v: NodeId, rng: &mut dyn RngCore) -> NodeId {
        if self.uniform_resample {
            rng.gen_range(0..self.topo.num_nodes())
        } else {
            self.topo.neighbor(v, rng.gen_range(0..self.topo.degree(v)))
        }
    }

    fn model_step(&self, model: &MovementModel, v: NodeId, rng: &mut dyn RngCore) -> NodeId {
        match model {
            MovementModel::Pure => self.random_neighbor(v, rng),
            MovementModel::Lazy { stay_prob } => {
                if rng.gen_bool(*stay_prob) {
                    v
                } else {
                    self.random_neighbor(v, rng)
                }
            }
            MovementModel::Stationary => v,
            MovementModel::Drift { move_index } => self.topo.neighbor(v, *move_index),
            MovementModel::Biased { move_probs } => {
                let u: f64 = rng.gen_range(0.0..1.0);
                let mut acc = 0.0;
                for (i, &p) in move_probs.iter().enumerate() {
                    acc += p;
                    if u < acc {
                        return self.topo.neighbor(v, i);
                    }
                }
                v
            }
        }
    }

    fn count(&self, v: NodeId) -> u32 {
        self.occupancy.get(&v).copied().unwrap_or(0)
    }

    fn step_round(&mut self) {
        let round_seq = self.seeds.subsequence(self.round);
        let mut rng = round_seq.rng(0);
        for i in 0..self.positions.len() {
            if i > 0 && i % STREAM_BLOCK == 0 {
                rng = round_seq.rng((i / STREAM_BLOCK) as u64);
            }
            let cur = self.positions[i];
            let collided = self.count(cur) >= 2;
            let mut next = self.model_step(&self.movement[i], cur, &mut rng);
            if let Some(p) = self.avoidance {
                let target_busy = next != cur && self.count(next) >= 1;
                if target_busy && rng.gen_bool(p) {
                    next = cur;
                }
            }
            if self.flee && collided {
                next = self.model_step(&self.movement[i], next, &mut rng);
            }
            self.positions[i] = next;
        }
        self.round += 1;
        self.rebuild_occupancy();
    }

    fn rebuild_occupancy(&mut self) {
        self.occupancy.clear();
        for &p in &self.positions {
            *self.occupancy.entry(p).or_insert(0) += 1;
        }
    }
}

/// The population a case steps.
#[derive(Debug, Clone, Copy)]
enum Population {
    /// Every movement model, assigned round-robin from `offset`.
    Mixed(u8),
    /// All pure walkers: the engine's whole-round draw-then-apply.
    Pure,
    /// All `lazy:0.25`: the batched lazy kernel on power-of-two spans.
    Lazy,
}

/// Population `kind` of a case: `0..5` mixed from that offset, `5`
/// pure, `6` lazy.
fn population(kind: u8) -> Population {
    match kind {
        0..=4 => Population::Mixed(kind),
        5 => Population::Pure,
        _ => Population::Lazy,
    }
}

/// A heterogeneous movement population covering every model variant.
fn mixed_movement<T: Topology>(topo: &T, agents: usize, offset: u8) -> Vec<MovementModel> {
    let degree = topo.regular_degree().expect("regular test topologies");
    (0..agents)
        .map(|a| match (a + offset as usize) % 5 {
            0 => MovementModel::Pure,
            1 => MovementModel::lazy(0.25),
            2 => MovementModel::Stationary,
            3 => MovementModel::Drift {
                move_index: a % degree,
            },
            _ => {
                let mut probs = vec![0.0; degree];
                probs[a % degree] = 0.5;
                probs[(a + 1) % degree] = 0.25;
                MovementModel::biased(probs)
            }
        })
        .collect()
}

/// The interaction variants: none, avoidance, avoidance + flee, flee.
fn interaction(variant: u8) -> (Option<f64>, bool) {
    match variant {
        0 => (None, false),
        1 => (Some(0.5), false),
        2 => (Some(0.25), true),
        _ => (None, true),
    }
}

/// Steps the reference and the engine in lockstep on the same seed
/// sequence and asserts identical trajectories and occupancy every
/// round.
#[allow(clippy::too_many_arguments)]
fn assert_equivalent<T: Topology + Clone>(
    topo: T,
    uniform_resample: bool,
    agents: usize,
    rounds: u64,
    seed: u64,
    population: Population,
    avoidance: Option<f64>,
    flee: bool,
) {
    let seeds = SeedSequence::new(seed);
    let mut engine = Engine::new(topo.clone(), agents).with_seed_sequence(seeds);
    let movement = match population {
        Population::Mixed(offset) => {
            let movement = mixed_movement(&topo, agents, offset);
            for (a, m) in movement.iter().enumerate() {
                engine.set_movement(a, m.clone());
            }
            movement
        }
        Population::Pure => vec![MovementModel::Pure; agents],
        Population::Lazy => {
            engine.set_movement_all(&MovementModel::lazy(0.25));
            vec![MovementModel::lazy(0.25); agents]
        }
    };
    engine.set_avoidance(avoidance);
    engine.set_flee(flee);
    engine.place_uniform(&mut SmallRng::seed_from_u64(seed ^ 5));

    let mut reference = ReferenceArena {
        topo: topo.clone(),
        uniform_resample,
        positions: engine.agent_positions().map(|(_, p)| p).collect(),
        movement,
        occupancy: HashMap::new(),
        avoidance,
        flee,
        seeds,
        round: 0,
    };
    reference.rebuild_occupancy();

    for round in 0..=rounds {
        if round > 0 {
            reference.step_round();
            engine.step_round();
        }
        for a in 0..agents {
            assert_eq!(
                reference.positions[a],
                engine.position(a),
                "engine diverged from reference at round {round}, agent {a}"
            );
        }
        for v in 0..topo.num_nodes() {
            assert_eq!(
                reference.count(v),
                engine.occupancy(v),
                "engine occupancy at node {v}, round {round}"
            );
        }
        assert_eq!(reference.occupancy.len(), engine.occupied_nodes());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn torus_trajectories_identical(
        agents in 1usize..700,
        rounds in 0u64..8,
        kind in 0u8..7,
        variant in 0u8..4,
        seed in any::<u64>(),
    ) {
        let (avoidance, flee) = interaction(variant);
        assert_equivalent(
            Torus2d::new(16), false, agents, rounds, seed, population(kind), avoidance, flee,
        );
    }

    #[test]
    fn ring_trajectories_identical(
        agents in 1usize..700,
        rounds in 0u64..8,
        kind in 0u8..7,
        variant in 0u8..4,
        seed in any::<u64>(),
    ) {
        let (avoidance, flee) = interaction(variant);
        assert_equivalent(Ring::new(99), false, agents, rounds, seed, population(kind), avoidance, flee);
    }

    #[test]
    fn hypercube_trajectories_identical(
        agents in 1usize..700,
        rounds in 0u64..8,
        kind in 0u8..7,
        variant in 0u8..4,
        seed in any::<u64>(),
    ) {
        let (avoidance, flee) = interaction(variant);
        assert_equivalent(
            Hypercube::new(7), false, agents, rounds, seed, population(kind), avoidance, flee,
        );
    }

    #[test]
    fn complete_trajectories_identical(
        agents in 1usize..700,
        rounds in 0u64..8,
        kind in 0u8..7,
        variant in 0u8..4,
        seed in any::<u64>(),
    ) {
        let (avoidance, flee) = interaction(variant);
        assert_equivalent(
            CompleteGraph::new(123), true, agents, rounds, seed, population(kind), avoidance, flee,
        );
    }

    #[test]
    fn avoidance_and_flee_paths_identical(
        agents in 2usize..600,
        rounds in 1u64..20,
        avoidance in 0.0..=1.0f64,
        flee in prop::bool::ANY,
        kind in 0u8..7,
        seed in any::<u64>(),
    ) {
        // A crowded 36-node torus, so stale-occupancy reads decide most
        // moves, at any avoidance probability.
        assert_equivalent(
            Torus2d::new(6), false, agents, rounds, seed, population(kind), Some(avoidance), flee,
        );
    }
}
