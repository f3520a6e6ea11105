//! The engine's determinism contracts, property-tested.
//!
//! Three promises are pinned here:
//!
//! 1. **Pool-based parallel stepping is bit-identical to the inline
//!    chunked loop** — for torus, ring, hypercube, and complete
//!    topologies, across 1/2/4/8 workers, explicit pools, a per-block
//!    `step_slice` reference, and every valid [`EngineConfig`].
//! 2. **The monomorphized kernels reproduce the legacy `dyn` draw
//!    order** — an explicit replica of the pre-monomorphization kernel
//!    (per-agent dyn-dispatched `gen_range` draws, the historical
//!    stale-occupancy read order) must agree with `Engine::step_round`
//!    for historical seeds, every movement model, and every interaction
//!    variant.
//! 3. **Golden trajectories** — exact positions recorded from the
//!    pre-worker-pool engine (PR 1) for fixed seeds; any change to the
//!    stream mapping or the draw algorithms breaks these.

use antdensity_engine::step::{step_slice, Interaction};
use antdensity_engine::{
    DenseOccupancy, Engine, EngineConfig, MovementModel, WorkerPool, STREAM_BLOCK,
};
use antdensity_graphs::{CompleteGraph, Hypercube, NodeId, Ring, Topology, Torus2d};
use antdensity_stats::rng::SeedSequence;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use std::collections::HashMap;
use std::sync::Arc;

// ---------------------------------------------------------------------
// Legacy kernel replica: the pre-monomorphization draw chain, verbatim.
// ---------------------------------------------------------------------

/// The historical `Topology::random_neighbor` default (and the complete
/// graph's uniform-resample override), drawn through `dyn RngCore`
/// exactly as the pre-monomorphization kernel did.
fn legacy_random_neighbor<T: Topology>(
    topo: &T,
    uniform_resample: bool,
    v: NodeId,
    rng: &mut dyn RngCore,
) -> NodeId {
    if uniform_resample {
        rng.gen_range(0..topo.num_nodes())
    } else {
        let d = topo.degree(v);
        topo.neighbor(v, rng.gen_range(0..d))
    }
}

/// The historical `MovementModel::step`, dyn-dispatched.
fn legacy_model_step<T: Topology>(
    topo: &T,
    uniform_resample: bool,
    model: &MovementModel,
    v: NodeId,
    rng: &mut dyn RngCore,
) -> NodeId {
    match model {
        MovementModel::Pure => legacy_random_neighbor(topo, uniform_resample, v, rng),
        MovementModel::Lazy { stay_prob } => {
            if rng.gen_bool(*stay_prob) {
                v
            } else {
                legacy_random_neighbor(topo, uniform_resample, v, rng)
            }
        }
        MovementModel::Stationary => v,
        MovementModel::Drift { move_index } => topo.neighbor(v, *move_index),
        MovementModel::Biased { move_probs } => {
            let u: f64 = rng.gen_range(0.0..1.0);
            let mut acc = 0.0;
            for (i, &p) in move_probs.iter().enumerate() {
                acc += p;
                if u < acc {
                    return topo.neighbor(v, i);
                }
            }
            v
        }
    }
}

/// One legacy round: per-agent draws in the historical sequential
/// order, with the historical *pre-move* stale-collision read (the
/// modern kernel hoists that read behind the flee flag; since it
/// consumes no randomness the trajectories must still agree exactly).
#[allow(clippy::too_many_arguments)]
fn legacy_step_round<T: Topology>(
    topo: &T,
    uniform_resample: bool,
    positions: &mut [NodeId],
    movement: &[MovementModel],
    avoidance: Option<f64>,
    flee: bool,
    rng: &mut dyn RngCore,
) {
    let mut occ: HashMap<NodeId, u32> = HashMap::new();
    for &p in positions.iter() {
        *occ.entry(p).or_insert(0) += 1;
    }
    let count = |occ: &HashMap<NodeId, u32>, v: NodeId| occ.get(&v).copied().unwrap_or(0);
    for (pos, model) in positions.iter_mut().zip(movement) {
        let cur = *pos;
        let collided = count(&occ, cur) >= 2;
        let mut next = legacy_model_step(topo, uniform_resample, model, cur, rng);
        if let Some(p) = avoidance {
            let target_busy = next != cur && count(&occ, next) >= 1;
            if target_busy && rng.gen_bool(p) {
                next = cur;
            }
        }
        if flee && collided {
            next = legacy_model_step(topo, uniform_resample, model, next, rng);
        }
        *pos = next;
    }
}

/// The stream contract spelled out: round `r` steps every
/// [`STREAM_BLOCK`]-sized block of pure walkers through `step_slice`,
/// block `b` drawing from `seeds.subsequence(r).rng(b)`, one block after
/// another on the calling thread.
fn per_block_reference<T: Topology>(
    topo: &T,
    positions: &mut [u32],
    seeds: SeedSequence,
    rounds: u64,
) {
    let movement = vec![MovementModel::Pure; positions.len()];
    let occ = DenseOccupancy::new(topo.num_nodes());
    for round in 0..rounds {
        let round_seq = seeds.subsequence(round);
        for (block, (chunk, models)) in positions
            .chunks_mut(STREAM_BLOCK)
            .zip(movement.chunks(STREAM_BLOCK))
            .enumerate()
        {
            let mut rng = round_seq.rng(block as u64);
            step_slice(topo, chunk, models, &occ, &Interaction::pure(), &mut rng);
        }
    }
}

/// A heterogeneous movement population covering every model variant.
fn mixed_movement<T: Topology>(topo: &T, agents: usize, variant: u8) -> Vec<MovementModel> {
    let degree = topo.regular_degree().expect("regular test topologies");
    (0..agents)
        .map(|a| match (a + variant as usize) % 5 {
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

// ---------------------------------------------------------------------
// Generic drivers.
// ---------------------------------------------------------------------

/// Runs `rounds` parallel rounds and returns final positions.
/// `workers = None` forces the inline chunked loop (threads = 1);
/// `Some(w)` dispatches onto an explicit `w`-thread pool with chunking
/// configured so the pool path genuinely engages.
#[allow(clippy::too_many_arguments)]
fn parallel_positions<T: Topology + Sync>(
    topo: T,
    agents: usize,
    rounds: u64,
    master: u64,
    place_seed: u64,
    workers: Option<usize>,
    config: EngineConfig,
    avoidance: Option<f64>,
    flee: bool,
) -> Vec<NodeId> {
    let mut engine = Engine::new(topo, agents).with_seed_sequence(SeedSequence::new(master));
    engine = match workers {
        None => engine.with_threads(1),
        Some(w) => engine
            .with_threads(w)
            .with_worker_pool(Arc::new(WorkerPool::new(w))),
    };
    engine = engine.with_config(config);
    engine.set_avoidance(avoidance);
    engine.set_flee(flee);
    let mut rng = SmallRng::seed_from_u64(place_seed);
    engine.place_uniform(&mut rng);
    engine.run_parallel(rounds);
    (0..agents).map(|a| engine.position(a)).collect()
}

/// Pool-vs-inline bit-identity over one topology, all worker counts.
fn assert_pool_matches_inline<T: Topology + Sync + Clone>(
    topo: T,
    agents: usize,
    rounds: u64,
    master: u64,
    avoidance: Option<f64>,
    flee: bool,
) {
    let engaged = EngineConfig {
        schedule_chunk: STREAM_BLOCK,
        min_chunks_per_worker: 1,
        inline_step_threshold: 0,
        blocked_round_threshold: usize::MAX,
    };
    let inline = parallel_positions(
        topo.clone(),
        agents,
        rounds,
        master,
        master ^ 1,
        None,
        EngineConfig::default(),
        avoidance,
        flee,
    );
    for workers in [1usize, 2, 4, 8] {
        let pooled = parallel_positions(
            topo.clone(),
            agents,
            rounds,
            master,
            master ^ 1,
            Some(workers),
            engaged,
            avoidance,
            flee,
        );
        assert_eq!(inline, pooled, "workers {workers}");
    }
}

// ---------------------------------------------------------------------
// Golden trajectories recorded from the pre-worker-pool engine (PR 1).
// ---------------------------------------------------------------------

fn golden_parallel<T: Topology + Sync>(topo: T, agents: usize) -> Vec<NodeId> {
    let mut e = Engine::new(topo, agents)
        .with_seed_sequence(SeedSequence::new(42))
        .with_threads(4);
    let mut rng = SmallRng::seed_from_u64(7);
    e.place_uniform(&mut rng);
    e.run_parallel(3);
    (0..agents).map(|a| e.position(a)).collect()
}

fn golden_sequential<T: Topology>(topo: T, agents: usize) -> Vec<NodeId> {
    let mut e = Engine::new(topo, agents);
    let mut rng = SmallRng::seed_from_u64(7);
    e.place_uniform(&mut rng);
    for _ in 0..3 {
        e.step_round(&mut rng);
    }
    (0..agents).map(|a| e.position(a)).collect()
}

#[test]
fn golden_trajectories_from_pre_pool_engine() {
    assert_eq!(
        golden_parallel(Torus2d::new(16), 10),
        vec![136, 226, 114, 199, 143, 220, 192, 156, 104, 240]
    );
    assert_eq!(
        golden_sequential(Torus2d::new(16), 10),
        vec![121, 243, 99, 197, 158, 235, 191, 126, 98, 225]
    );
    assert_eq!(
        golden_parallel(Ring::new(64), 8),
        vec![42, 34, 35, 7, 15, 28, 49, 13]
    );
    assert_eq!(
        golden_sequential(Ring::new(64), 8),
        vec![40, 34, 35, 7, 13, 28, 49, 15]
    );
    assert_eq!(
        golden_parallel(Hypercube::new(6), 8),
        vec![33, 41, 41, 4, 63, 21, 4, 5]
    );
    assert_eq!(
        golden_sequential(Hypercube::new(6), 8),
        vec![27, 47, 44, 50, 29, 2, 61, 18]
    );
    assert_eq!(
        golden_parallel(CompleteGraph::new(100), 8),
        vec![64, 65, 52, 63, 93, 39, 42, 16]
    );
    assert_eq!(
        golden_sequential(CompleteGraph::new(100), 8),
        vec![79, 61, 15, 84, 11, 76, 55, 53]
    );
}

// ---------------------------------------------------------------------
// Property tests.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn pool_matches_inline_chunked_loop(
        agents in 1usize..2000,
        rounds in 1u64..6,
        master in any::<u64>(),
        variant in 0u8..3,
    ) {
        let (avoidance, flee) = match variant {
            0 => (None, false),
            1 => (Some(0.5), false),
            _ => (Some(0.25), true),
        };
        assert_pool_matches_inline(Torus2d::new(32), agents, rounds, master, avoidance, flee);
        assert_pool_matches_inline(Ring::new(511), agents, rounds, master, avoidance, flee);
        assert_pool_matches_inline(Hypercube::new(9), agents, rounds, master, avoidance, flee);
        assert_pool_matches_inline(
            CompleteGraph::new(777),
            agents,
            rounds,
            master,
            avoidance,
            flee,
        );
    }

    #[test]
    fn schedule_config_never_changes_results(
        agents in 1usize..4000,
        master in any::<u64>(),
        blocks_per_chunk in 1usize..6,
        min_chunks in 1usize..5,
        blocked in any::<bool>(),
    ) {
        let reference = parallel_positions(
            Torus2d::new(64),
            agents,
            4,
            master,
            master ^ 2,
            None,
            EngineConfig::default(),
            None,
            false,
        );
        let tuned = parallel_positions(
            Torus2d::new(64),
            agents,
            4,
            master,
            master ^ 2,
            Some(4),
            EngineConfig {
                schedule_chunk: blocks_per_chunk * STREAM_BLOCK,
                min_chunks_per_worker: min_chunks,
                inline_step_threshold: 0,
                blocked_round_threshold: if blocked { 0 } else { usize::MAX },
            },
            None,
            false,
        );
        prop_assert_eq!(reference, tuned);
    }

    #[test]
    fn pool_matches_per_round_spawn_baseline(
        agents in 1usize..3000,
        rounds in 1u64..5,
        master in any::<u64>(),
    ) {
        let mut pooled = Engine::new(Torus2d::new(64), agents)
            .with_seed_sequence(SeedSequence::new(master))
            .with_threads(4)
            .with_worker_pool(Arc::new(WorkerPool::new(4)))
            .with_config(EngineConfig {
                schedule_chunk: STREAM_BLOCK,
                min_chunks_per_worker: 1,
                inline_step_threshold: 0,
                blocked_round_threshold: usize::MAX,
            });
        let mut rng = SmallRng::seed_from_u64(master ^ 3);
        pooled.place_uniform(&mut rng);
        let mut reference: Vec<u32> = (0..agents).map(|a| pooled.position(a) as u32).collect();
        pooled.run_parallel(rounds);
        per_block_reference(&Torus2d::new(64), &mut reference, SeedSequence::new(master), rounds);
        for (a, &expected) in reference.iter().enumerate() {
            prop_assert_eq!(pooled.position(a), expected as NodeId);
        }
    }

    #[test]
    fn monomorphized_kernels_reproduce_legacy_dyn_draw_order(
        agents in 1usize..300,
        rounds in 1u64..6,
        seed in any::<u64>(),
        variant in 0u8..5,
        interaction in 0u8..4,
    ) {
        let (avoidance, flee) = match interaction {
            0 => (None, false),
            1 => (Some(0.5), false),
            2 => (Some(0.25), true),
            _ => (None, true),
        };
        #[allow(clippy::too_many_arguments)]
        fn check<T: Topology + Clone>(
            topo: T,
            uniform_resample: bool,
            agents: usize,
            rounds: u64,
            seed: u64,
            variant: u8,
            avoidance: Option<f64>,
            flee: bool,
        ) {
            let movement = mixed_movement(&topo, agents, variant);
            let mut engine = Engine::new(topo.clone(), agents);
            engine.set_avoidance(avoidance);
            engine.set_flee(flee);
            for (a, m) in movement.iter().enumerate() {
                engine.set_movement(a, m.clone());
            }
            let mut engine_rng = SmallRng::seed_from_u64(seed);
            engine.place_uniform(&mut engine_rng);
            let mut legacy_pos: Vec<NodeId> =
                (0..agents).map(|a| engine.position(a)).collect();
            let mut legacy_rng = SmallRng::seed_from_u64(seed);
            // replay placement draws so both RNGs are in the same state
            for _ in 0..agents {
                let _: NodeId = legacy_rng.gen_range(0..topo.num_nodes());
            }
            for r in 0..rounds {
                engine.step_round(&mut engine_rng);
                legacy_step_round(
                    &topo,
                    uniform_resample,
                    &mut legacy_pos,
                    &movement,
                    avoidance,
                    flee,
                    &mut legacy_rng,
                );
                for (a, legacy) in legacy_pos.iter().enumerate() {
                    assert_eq!(engine.position(a), *legacy, "round {r} agent {a}");
                }
            }
            // the two RNGs consumed identical streams
            assert_eq!(engine_rng.next_u64(), legacy_rng.next_u64());
        }
        check(Torus2d::new(16), false, agents, rounds, seed, variant, avoidance, flee);
        check(Ring::new(99), false, agents, rounds, seed, variant, avoidance, flee);
        check(Hypercube::new(7), false, agents, rounds, seed, variant, avoidance, flee);
        check(CompleteGraph::new(123), true, agents, rounds, seed, variant, avoidance, flee);
    }
}
