//! The engine's determinism contracts, property-tested.
//!
//! Two promises are pinned here:
//!
//! 1. **Rounds replay the stream contract** — on torus, ring,
//!    hypercube, and complete topologies, with and without the
//!    Section 6.1 interaction variants, `Engine::step_round` matches a
//!    per-block `step_slice` reference bit for bit, whichever batched
//!    kernel the engine picks.
//! 2. **Golden trajectories** — exact positions recorded from the
//!    pre-worker-pool engine for fixed seeds; any change to the
//!    stream mapping or the draw algorithms breaks these.
//!
//! `engine_equivalence.rs` checks the same rounds against an
//! independent HashMap replica for every movement model.

use antdensity_engine::step::{step_slice, Interaction};
use antdensity_engine::{DenseOccupancy, Engine, MovementModel, STREAM_BLOCK};
use antdensity_graphs::{CompleteGraph, Hypercube, NodeId, Ring, Topology, Torus2d};
use antdensity_stats::rng::SeedSequence;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// The stream contract spelled out: round `r` steps every
/// [`STREAM_BLOCK`]-sized block of pure walkers through `step_slice`,
/// block `b` drawing from `seeds.subsequence(r).rng(b)`, one block after
/// another, every block reading the occupancy of the previous round.
fn per_block_reference<T: Topology>(
    topo: &T,
    positions: &mut [u32],
    seeds: SeedSequence,
    rounds: u64,
    interaction: &Interaction,
) {
    let movement = vec![MovementModel::Pure; positions.len()];
    let mut occ = DenseOccupancy::new(topo.num_nodes());
    occ.rebuild(positions);
    for round in 0..rounds {
        let round_seq = seeds.subsequence(round);
        for (block, (chunk, models)) in positions
            .chunks_mut(STREAM_BLOCK)
            .zip(movement.chunks(STREAM_BLOCK))
            .enumerate()
        {
            let mut rng = round_seq.rng(block as u64);
            step_slice(topo, chunk, models, &occ, interaction, &mut rng);
        }
        occ.rebuild(positions);
    }
}

/// Places `agents` pure walkers, steps them `rounds` per-block rounds,
/// and checks every final position against [`per_block_reference`].
fn assert_matches_per_block_reference<T: Topology>(
    topo: T,
    agents: usize,
    rounds: u64,
    master: u64,
    interaction: Interaction,
) {
    let mut engine = Engine::new(topo, agents).with_seed_sequence(SeedSequence::new(master));
    engine.set_avoidance(interaction.avoidance);
    engine.set_flee(interaction.flee);
    engine.place_uniform(&mut SmallRng::seed_from_u64(master ^ 3));
    let mut reference: Vec<u32> = (0..agents).map(|a| engine.position(a) as u32).collect();
    for _ in 0..rounds {
        engine.step_round();
    }
    per_block_reference(
        engine.topology(),
        &mut reference,
        SeedSequence::new(master),
        rounds,
        &interaction,
    );
    for (a, &expected) in reference.iter().enumerate() {
        assert_eq!(engine.position(a), expected as NodeId, "agent {a}");
    }
}

// ---------------------------------------------------------------------
// Golden trajectories recorded from the pre-worker-pool engine (PR 1).
// ---------------------------------------------------------------------

fn golden_parallel<T: Topology>(topo: T, agents: usize) -> Vec<NodeId> {
    let mut e = Engine::new(topo, agents).with_seed_sequence(SeedSequence::new(42));
    let mut rng = SmallRng::seed_from_u64(7);
    e.place_uniform(&mut rng);
    for _ in 0..3 {
        e.step_round();
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
        golden_parallel(Ring::new(64), 8),
        vec![42, 34, 35, 7, 15, 28, 49, 13]
    );
    assert_eq!(
        golden_parallel(Hypercube::new(6), 8),
        vec![33, 41, 41, 4, 63, 21, 4, 5]
    );
    assert_eq!(
        golden_parallel(CompleteGraph::new(100), 8),
        vec![64, 65, 52, 63, 93, 39, 42, 16]
    );
}

// ---------------------------------------------------------------------
// Property tests.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn parallel_rounds_match_per_block_reference(
        agents in 1usize..3000,
        rounds in 1u64..6,
        master in any::<u64>(),
        variant in 0u8..3,
    ) {
        let interaction = match variant {
            0 => Interaction::pure(),
            1 => Interaction { avoidance: Some(0.5), flee: false },
            _ => Interaction { avoidance: Some(0.25), flee: true },
        };
        assert_matches_per_block_reference(Torus2d::new(32), agents, rounds, master, interaction);
        assert_matches_per_block_reference(Ring::new(511), agents, rounds, master, interaction);
        assert_matches_per_block_reference(Hypercube::new(9), agents, rounds, master, interaction);
        assert_matches_per_block_reference(
            CompleteGraph::new(777),
            agents,
            rounds,
            master,
            interaction,
        );
    }
}
