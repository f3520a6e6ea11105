//! The round-stepping kernels.
//!
//! Four kernels share one semantics (the paper's synchronous model with
//! the Section 6.1 avoidance/flee variants):
//!
//! * [`step_slice`] — sequential over a slice of agents, drawing from one
//!   caller-supplied RNG **in exactly the order the original pre-engine
//!   stepper did**, so [`Engine::step_round`](crate::Engine::step_round)
//!   is bit-identical to it for any seed. The function is generic over
//!   both the topology and the RNG: concrete call sites monomorphize the
//!   whole draw chain (no per-draw vtable), while `&mut dyn RngCore`
//!   callers keep working and consume the identical bit-stream.
//! * [`step_slice_pure_batched`] — the fast path for the paper's exact
//!   model (pure walks, no interaction variants) on regular topologies:
//!   move indices are sampled into a stack buffer chunk-at-a-time via
//!   [`crate::sampling::fill_uniform_indices`], then applied. The draws
//!   it makes are bit-for-bit the draws `step_slice` would make for the
//!   same agents, so the two kernels are interchangeable per block.
//! * `step_block_lazy` — the fast path for a block whose agents all
//!   walk `lazy:p` on a regular topology with a power-of-two span. It
//!   pre-draws two words per agent, finds each agent's stay coin with a
//!   branch-free scan, and applies the moves in one batch. Positions
//!   are the ones `step_slice` computes, but the unused words at the
//!   end leave the RNG in a different state.
//! * The batched engine calls one of these once per fixed-size *stream
//!   block* of agents with a per-`(round, block)` derived RNG stream,
//!   which makes parallel stepping bit-identical for every worker count
//!   (the stream an agent draws from depends only on its block, never on
//!   the scheduler).
//!
//! A kernel may draw words it does not use only where the RNG's stream
//! dies with the block: the per-block streams of
//! [`Engine::step_round_parallel`](crate::Engine::step_round_parallel).
//! [`Engine::step_round`](crate::Engine::step_round) threads one
//! caller-owned RNG through the whole round and on to the caller, so it
//! never takes `step_block_lazy`.
//!
//! Agents sense **stale** occupancy — last round's index — before moving:
//! in the synchronous model an agent cannot see the simultaneous moves of
//! others. The stale read happens only on the avoidance/flee paths; the
//! pure model never touches the occupancy index while stepping.

use crate::config::STREAM_BLOCK;
use crate::movement::MovementModel;
use crate::occupancy::DenseOccupancy;
use crate::sampling::fill_uniform_indices;
use antdensity_graphs::{NodeId, Topology};
use rand::Rng;
use rand::RngCore;

/// The Section 6.1 interaction variants layered over a movement model.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Interaction {
    /// Back-off probability when the move target was occupied last round
    /// (`None` disables avoidance entirely, matching the paper's model).
    pub avoidance: Option<f64>,
    /// Whether an agent that collided last round takes two steps.
    pub flee: bool,
}

impl Interaction {
    /// The paper's exact model: no avoidance, no flee.
    pub fn pure() -> Self {
        Self::default()
    }

    /// True when no variant is active and the fast path applies.
    pub fn is_pure(&self) -> bool {
        self.avoidance.is_none() && !self.flee
    }

    /// Validates and sets the avoidance probability.
    ///
    /// # Panics
    ///
    /// Panics if `prob` is outside `[0, 1]`.
    pub fn set_avoidance(&mut self, prob: Option<f64>) {
        if let Some(p) = prob {
            assert!((0.0..=1.0).contains(&p), "avoidance probability in [0,1]");
        }
        self.avoidance = prob;
    }
}

/// Moves every agent in `positions` one round, reading stale occupancy
/// from `occ` and drawing from `rng` in the legacy arena's exact order.
///
/// `positions` and `movement` are parallel slices (one entry per agent in
/// this batch). `occ` must hold the *previous* round's counts over the
/// whole population (it is only read on the avoidance/flee path).
pub fn step_slice<T: Topology, R: RngCore + ?Sized>(
    topo: &T,
    positions: &mut [u32],
    movement: &[MovementModel],
    occ: &DenseOccupancy,
    interaction: &Interaction,
    rng: &mut R,
) {
    debug_assert_eq!(positions.len(), movement.len());
    if interaction.is_pure() {
        for (pos, model) in positions.iter_mut().zip(movement) {
            *pos = model.step(topo, *pos as NodeId, rng) as u32;
        }
        return;
    }
    for (pos, model) in positions.iter_mut().zip(movement) {
        let cur = *pos as NodeId;
        let mut next = model.step(topo, cur, rng);
        if let Some(p) = interaction.avoidance {
            let target_busy = next != cur && occ.count(next) >= 1;
            if target_busy && rng.gen_bool(p) {
                next = cur;
            }
        }
        // The stale collision read is needed only when fleeing is on;
        // short-circuit keeps the avoidance-only path free of it. (The
        // read consumes no RNG, so hoisting it past the move draw leaves
        // the draw order untouched.)
        if interaction.flee && occ.count(cur) >= 2 {
            next = model.step(topo, next, rng);
        }
        *pos = next as u32;
    }
}

/// Stack-buffer size of the batched kernel: big enough to amortize the
/// per-fill span classification, small enough to stay in L1.
const SAMPLE_BATCH: usize = 128;

/// The pure-model fast path: every agent walks to a uniformly random
/// move on a topology whose every node has degree `span`. Move indices
/// are bulk-sampled into a stack buffer ([`fill_uniform_indices`]) and
/// then applied in a second tight loop.
///
/// Draws are bit-for-bit the draws [`step_slice`] makes for
/// `MovementModel::Pure` agents under [`Interaction::pure`] — one
/// uniform `[0, span)` sample per agent in agent order — so callers may
/// switch between the kernels per block without changing results. (On
/// [`antdensity_graphs::CompleteGraph`], whose walk resamples uniformly
/// over all `A` nodes, `span = degree = A` consumes the same bits as its
/// `uniform_node` override.)
///
/// With `TIMED` set the kernel also measures the RNG-draw vs
/// `apply_moves` split and returns accumulated `(draw_ns, apply_ns)`
/// over the slice; otherwise it returns `(0, 0)` and reads no clock.
/// Draws, destinations, and residual RNG state are identical either way
/// — the only difference is clock reads bracketing the two phase calls
/// per `SAMPLE_BATCH`-sized buffer fill, never inside the per-agent
/// loops. The engine picks `TIMED` with one telemetry check per *round*.
///
/// The caller asserts the preconditions: `span == degree(v)` for every
/// `v`, all agents `MovementModel::Pure`, interaction pure.
pub fn step_slice_pure_batched<const TIMED: bool, T: Topology, R: RngCore + ?Sized>(
    topo: &T,
    span: u64,
    positions: &mut [u32],
    rng: &mut R,
) -> (u64, u64) {
    let mut idx = [0u32; SAMPLE_BATCH];
    let (mut draw_ns, mut apply_ns) = (0u64, 0u64);
    for block in positions.chunks_mut(SAMPLE_BATCH) {
        let buf = &mut idx[..block.len()];
        if TIMED {
            let t0 = std::time::Instant::now();
            fill_uniform_indices(span, buf, rng);
            let t1 = std::time::Instant::now();
            topo.apply_moves(block, buf);
            let t2 = std::time::Instant::now();
            draw_ns += u64::try_from((t1 - t0).as_nanos()).unwrap_or(u64::MAX);
            apply_ns += u64::try_from((t2 - t1).as_nanos()).unwrap_or(u64::MAX);
        } else {
            fill_uniform_indices(span, buf, rng);
            topo.apply_moves(block, buf);
        }
    }
    (draw_ns, apply_ns)
}

/// The stay threshold of a lazy coin: `gen_bool(p)` stays when
/// `(w >> 11) · 2^-53 < p`. Scaling both sides by `2^53` is exact, and
/// an integer lies below a real exactly when it lies below the real's
/// ceiling, so the coin is `(w >> 11) < ceil(p · 2^53)` for every
/// `p ∈ [0, 1]`.
fn lazy_stay_threshold(stay_prob: f64) -> u64 {
    debug_assert!((0.0..=1.0).contains(&stay_prob));
    (stay_prob * (1u64 << 53) as f64).ceil() as u64
}

/// Steps one stream block of at most [`STREAM_BLOCK`] agents that all
/// walk `MovementModel::Lazy { stay_prob }` on a topology whose every
/// node has degree `span`, a power of two.
///
/// [`step_slice`] draws one coin word per agent and, when the agent
/// moves, one more word masked to a move index. This kernel draws
/// `2·n` words up front (enough if every agent moves), then scans for
/// each agent's coin word with `k += 2 − stay`, so no branch depends on
/// a coin. Every agent's move index is applied in one
/// [`Topology::apply_moves`] call, and a mask select puts the stayers
/// back. The positions equal `step_slice`'s for the same RNG; the RNG
/// is left further along, so the caller must drop it after the block.
///
/// The caller asserts the preconditions: `span == degree(v)` for every
/// `v`, `span` a power of two, `stay_prob ∈ [0, 1]`, interaction pure.
///
/// # Panics
///
/// Panics if `positions` holds more than [`STREAM_BLOCK`] agents.
pub(crate) fn step_block_lazy<T: Topology, R: RngCore + ?Sized>(
    topo: &T,
    span: u64,
    stay_prob: f64,
    positions: &mut [u32],
    rng: &mut R,
) {
    let n = positions.len();
    assert!(
        n <= STREAM_BLOCK,
        "a lazy block holds at most {STREAM_BLOCK} agents"
    );
    debug_assert!(span.is_power_of_two());
    let mut words = [0u64; 2 * STREAM_BLOCK];
    let words = &mut words[..2 * n];
    for w in words.iter_mut() {
        *w = rng.next_u64();
    }
    let threshold = lazy_stay_threshold(stay_prob);
    let mut stay_word = [0u8; 2 * STREAM_BLOCK];
    for (s, &w) in stay_word.iter_mut().zip(words.iter()) {
        *s = u8::from((w >> 11) < threshold);
    }
    let mask = span - 1;
    let mut moves = [0u32; STREAM_BLOCK];
    let mut keep = [0u32; STREAM_BLOCK];
    let mut k = 0usize;
    for (m, kp) in moves[..n].iter_mut().zip(keep[..n].iter_mut()) {
        let stay = stay_word[k];
        *m = (words[k + 1] & mask) as u32;
        *kp = 0u32.wrapping_sub(u32::from(stay));
        k += 2 - usize::from(stay);
    }
    let mut before = [0u32; STREAM_BLOCK];
    before[..n].copy_from_slice(positions);
    topo.apply_moves(positions, &moves[..n]);
    for ((p, &b), &kp) in positions.iter_mut().zip(&before[..n]).zip(&keep[..n]) {
        *p = (b & kp) | (*p & !kp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use antdensity_graphs::{CompleteGraph, Hypercube, Ring, Torus2d, TorusKd};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn pure_step_advances_all_agents_one_hop() {
        let t = Torus2d::new(8);
        let mut rng = SmallRng::seed_from_u64(1);
        let mut pos = vec![0u32, 9, 17, 63];
        let before = pos.clone();
        let movement = vec![MovementModel::Pure; 4];
        let occ = DenseOccupancy::new(t.num_nodes());
        step_slice(
            &t,
            &mut pos,
            &movement,
            &occ,
            &Interaction::pure(),
            &mut rng,
        );
        for (b, a) in before.iter().zip(&pos) {
            assert_eq!(t.torus_distance(*b as u64, *a as u64), 1);
        }
    }

    #[test]
    fn full_avoidance_freezes_agent_next_to_occupied_target() {
        // Two agents adjacent on a ring-like torus row; with avoidance 1.0
        // an agent whose proposed move lands on the other's node stays put.
        let t = Torus2d::new(4);
        let mut occ = DenseOccupancy::new(t.num_nodes());
        occ.rebuild(&[0, 1]);
        let movement = vec![MovementModel::Pure; 2];
        let interaction = Interaction {
            avoidance: Some(1.0),
            flee: false,
        };
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..50 {
            let mut pos = vec![0u32, 1];
            step_slice(&t, &mut pos, &movement, &occ, &interaction, &mut rng);
            // agent 0 either stayed (blocked) or moved to an unoccupied node
            assert!(pos[0] == 0 || pos[0] != 1, "agent 0 landed on busy node");
        }
    }

    #[test]
    fn flee_takes_two_steps_after_collision() {
        let t = Torus2d::new(16);
        let mut occ = DenseOccupancy::new(t.num_nodes());
        occ.rebuild(&[5, 5]);
        let movement = vec![MovementModel::Drift { move_index: 2 }; 2];
        let interaction = Interaction {
            avoidance: None,
            flee: true,
        };
        let mut rng = SmallRng::seed_from_u64(4);
        let mut pos = vec![5u32, 5];
        step_slice(&t, &mut pos, &movement, &occ, &interaction, &mut rng);
        // deterministic drift: colliding agents moved two (0,1) hops
        assert_eq!(pos, vec![t.offset(5, 0, 2) as u32; 2]);
    }

    #[test]
    fn dyn_rng_draw_order_matches_monomorphized() {
        // The generic kernel with R = SmallRng must reproduce the legacy
        // dyn-erased draws exactly, for every interaction variant.
        let t = Torus2d::new(16);
        let mut occ = DenseOccupancy::new(t.num_nodes());
        occ.rebuild(&[3, 3, 40, 41, 90, 200, 200, 200]);
        let movement = vec![MovementModel::Pure; 8];
        for interaction in [
            Interaction::pure(),
            Interaction {
                avoidance: Some(0.5),
                flee: false,
            },
            Interaction {
                avoidance: Some(0.25),
                flee: true,
            },
            Interaction {
                avoidance: None,
                flee: true,
            },
        ] {
            for seed in 0..20 {
                let start = [3u32, 3, 40, 41, 90, 200, 200, 200];
                let mut mono_pos = start;
                let mut mono_rng = SmallRng::seed_from_u64(seed);
                step_slice(
                    &t,
                    &mut mono_pos,
                    &movement,
                    &occ,
                    &interaction,
                    &mut mono_rng,
                );
                let mut dyn_pos = start;
                let mut base = SmallRng::seed_from_u64(seed);
                let dyn_rng: &mut dyn RngCore = &mut base;
                step_slice(&t, &mut dyn_pos, &movement, &occ, &interaction, dyn_rng);
                assert_eq!(mono_pos, dyn_pos, "{interaction:?} seed {seed}");
            }
        }
    }

    #[test]
    fn batched_pure_kernel_matches_step_slice() {
        // Same draws, same destinations, same residual RNG state — on a
        // power-of-two degree (torus), a non-power-of-two degree
        // (hypercube dims=5), degree 2 (ring), and the complete graph's
        // uniform-resample walk.
        fn check<T: Topology>(topo: T, span: u64, n: usize, seed: u64) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut reference: Vec<u32> = (0..n)
                .map(|i| (i as u64 % topo.num_nodes()) as u32)
                .collect();
            let mut batched = reference.clone();
            let movement = vec![MovementModel::Pure; n];
            let occ = DenseOccupancy::new(topo.num_nodes());
            step_slice(
                &topo,
                &mut reference,
                &movement,
                &occ,
                &Interaction::pure(),
                &mut rng,
            );
            let after_ref = rng.next_u64();
            let mut rng = SmallRng::seed_from_u64(seed);
            step_slice_pure_batched::<false, _, _>(&topo, span, &mut batched, &mut rng);
            assert_eq!(reference, batched);
            assert_eq!(after_ref, rng.next_u64(), "residual RNG state differs");
        }
        for seed in 0..6 {
            check(Torus2d::new(16), 4, 1000, seed);
            check(Hypercube::new(5), 5, 321, seed);
            check(Ring::new(77), 2, 130, seed);
            check(CompleteGraph::new(1000), 1000, 500, seed);
        }
    }

    /// Stay probabilities for the lazy kernel tests: the ends, a value
    /// whose threshold is 1, two ordinary values, and the largest value
    /// below 1.
    const LAZY_PROBS: [f64; 6] = [0.0, 1e-300, 0.3, 0.5, 1.0 - f64::EPSILON / 2.0, 1.0];

    #[test]
    fn lazy_stay_threshold_is_gen_bool() {
        let scale = 1.0 / (1u64 << 53) as f64;
        for p in LAZY_PROBS {
            let t = lazy_stay_threshold(p);
            let top = (1u64 << 53) - 1;
            let probes = [0, 1, 2, t.saturating_sub(1), t, t + 1, top - 1, top];
            for x in probes.into_iter().filter(|&x| x <= top) {
                assert_eq!(x < t, (x as f64) * scale < p, "p {p:e} word {x}");
            }
        }
    }

    #[test]
    fn lazy_block_kernel_matches_step_slice() {
        // Same positions as the per-agent kernel on a fresh block RNG,
        // for every block size and spans 2, 4, 8 and 16 (the complete
        // graph's resample walk included).
        fn check<T: Topology>(topo: &T, span: u64) {
            let occ = DenseOccupancy::new(topo.num_nodes());
            for p in LAZY_PROBS {
                let movement = vec![MovementModel::lazy(p); STREAM_BLOCK];
                for n in 1..=STREAM_BLOCK {
                    let start: Vec<u32> = (0..n)
                        .map(|i| ((i as u64 * 7) % topo.num_nodes()) as u32)
                        .collect();
                    let seed = n as u64 ^ p.to_bits();
                    let mut reference = start.clone();
                    let mut rng = SmallRng::seed_from_u64(seed);
                    let pure = Interaction::pure();
                    step_slice(topo, &mut reference, &movement[..n], &occ, &pure, &mut rng);
                    let mut lazy = start;
                    let mut rng = SmallRng::seed_from_u64(seed);
                    step_block_lazy(topo, span, p, &mut lazy, &mut rng);
                    assert_eq!(reference, lazy, "span {span} p {p:e} n {n}");
                }
            }
        }
        check(&Ring::new(77), 2);
        check(&Torus2d::new(16), 4);
        check(&TorusKd::new(4, 5), 8);
        check(&Hypercube::new(16), 16);
        check(&CompleteGraph::new(16), 16);
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn lazy_block_kernel_rejects_oversize_block() {
        let t = Torus2d::new(4);
        let mut pos = vec![0u32; STREAM_BLOCK + 1];
        step_block_lazy(&t, 4, 0.5, &mut pos, &mut SmallRng::seed_from_u64(1));
    }

    #[test]
    fn timed_batched_kernel_is_bit_identical_to_untimed() {
        fn check<T: Topology>(topo: T, span: u64, n: usize, seed: u64) {
            let mut plain: Vec<u32> = (0..n)
                .map(|i| (i as u64 % topo.num_nodes()) as u32)
                .collect();
            let mut timed = plain.clone();
            let mut rng = SmallRng::seed_from_u64(seed);
            let untimed = step_slice_pure_batched::<false, _, _>(&topo, span, &mut plain, &mut rng);
            assert_eq!(untimed, (0, 0), "the untimed kernel reads no clock");
            let after_plain = rng.next_u64();
            let mut rng = SmallRng::seed_from_u64(seed);
            let (draw_ns, apply_ns) =
                step_slice_pure_batched::<true, _, _>(&topo, span, &mut timed, &mut rng);
            assert_eq!(plain, timed);
            assert_eq!(after_plain, rng.next_u64(), "residual RNG state differs");
            // Sanity: both phases ran (clock may be coarse, so only
            // require the totals not to be simultaneously zero for a
            // non-trivial slice).
            assert!(draw_ns > 0 || apply_ns > 0 || n < SAMPLE_BATCH);
        }
        for seed in 0..4 {
            check(Torus2d::new(16), 4, 1000, seed);
            check(Hypercube::new(5), 5, 321, seed);
            check(Ring::new(77), 2, 130, seed);
            check(CompleteGraph::new(1000), 1000, 500, seed);
        }
    }

    #[test]
    fn interaction_validation() {
        let mut i = Interaction::pure();
        assert!(i.is_pure());
        i.set_avoidance(Some(0.5));
        assert!(!i.is_pure());
        i.set_avoidance(None);
        assert!(i.is_pure());
    }

    #[test]
    #[should_panic(expected = "avoidance probability")]
    fn bad_avoidance_rejected() {
        let mut i = Interaction::pure();
        i.set_avoidance(Some(-0.1));
    }
}
