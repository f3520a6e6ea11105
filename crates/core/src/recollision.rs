//! Measurement APIs for the paper's core technical quantities:
//! re-collision probability curves (Lemma 4 / Lemma 9 and the Section 4
//! analogues) and collision-count moments (Lemma 11, Corollaries 15/16).
//!
//! Each quantity comes in two flavours:
//!
//! * **exact** — the walk-distribution evolution in
//!   [`antdensity_graphs::dist`]: `recollision_series` (Lemma 4),
//!   `max_probability_series` (Lemma 9's bound target, which also bounds
//!   Lemma 4's conditional form) and `return_probability_series`
//!   (Corollary 10), with no sampling noise (preferred for shape
//!   verification) — plus [`expected_equalizations`] below;
//! * **Monte-Carlo** — trials of one or two interaction-free walks run
//!   as the agents of one engine per fixed-size batch, fanned out over
//!   `antdensity_engine::pool::run_trials` (validates sampled walks
//!   against the exact math, and scales to quantities with no closed
//!   form, like conditional-on-path moments).

use antdensity_engine::pool::run_trials;
use antdensity_engine::Engine;
use antdensity_graphs::{dist, NodeId, Topology};
use antdensity_stats::moments::CentralMoments;
use antdensity_stats::rng::SeedSequence;
use std::ops::ControlFlow;

/// Monte-Carlo re-collision curve: fraction of `trials` walk pairs (both
/// from `start`) that share a node at each lag `0..=t`. Deterministic in
/// `(seed, trials)`; independent of `threads`.
pub fn mc_recollision_curve<T: Topology + Sync>(
    topo: &T,
    start: NodeId,
    t: u64,
    trials: u64,
    seed: u64,
    threads: usize,
) -> Vec<f64> {
    let (_, mut hits) = walk_trials(topo, 2, Some(start), t, trials, seed, threads, same_node);
    hits[0] = trials;
    hits.into_iter().map(|c| c as f64 / trials as f64).collect()
}

/// Expected number of equalizations of a `t`-step walk from `start`,
/// computed exactly: `Σ_{m=1..t} P[return at m]`.
pub fn expected_equalizations<T: Topology>(topo: &T, start: NodeId, t: u64) -> f64 {
    dist::return_probability_series(topo, start, t)[1..]
        .iter()
        .sum()
}

/// Central moments (orders `1..=max_order`, centered on the exact mean
/// `t/A`) of the pairwise collision count `c_j` — the object of
/// **Lemma 11**: `E[c̄ⱼᵏ] ≤ (t/A)·wᵏ·k!·logᵏ(2t)` on the 2-d torus. Both
/// agents start at independent uniform nodes; `c_j` counts the rounds
/// (after moving) in which they share a node.
pub fn pair_count_moments<T: Topology + Sync>(
    topo: &T,
    t: u64,
    max_order: u32,
    trials: u64,
    seed: u64,
    threads: usize,
) -> CentralMoments {
    let center = t as f64 / topo.num_nodes() as f64;
    let (counts, _) = walk_trials(topo, 2, None, t, trials, seed, threads, same_node);
    moments(center, max_order, counts)
}

/// Central moments of the visit count of a `t`-step walk (uniform start)
/// to a fixed target node — **Corollary 15**'s variable, centered on its
/// exact mean `t/A`.
pub fn visit_count_moments<T: Topology + Sync>(
    topo: &T,
    target: NodeId,
    t: u64,
    max_order: u32,
    trials: u64,
    seed: u64,
    threads: usize,
) -> CentralMoments {
    let center = t as f64 / topo.num_nodes() as f64;
    let at_target = |walk: &[NodeId]| walk[0] == target;
    let (counts, _) = walk_trials(topo, 1, None, t, trials, seed, threads, at_target);
    moments(center, max_order, counts)
}

/// Central moments of the equalization count of a `t`-step walk from
/// `start` — **Corollary 16**'s variable, centered on its exact mean
/// (computed by distribution evolution).
pub fn equalization_moments<T: Topology + Sync>(
    topo: &T,
    start: NodeId,
    t: u64,
    max_order: u32,
    trials: u64,
    seed: u64,
    threads: usize,
) -> CentralMoments {
    let center = expected_equalizations(topo, start, t);
    let at_start = |walk: &[NodeId]| walk[0] == start;
    let (counts, _) = walk_trials(topo, 1, Some(start), t, trials, seed, threads, at_start);
    moments(center, max_order, counts)
}

/// Central moments about `center` of the samples `xs`.
fn moments(center: f64, max_order: u32, xs: Vec<u64>) -> CentralMoments {
    let mut cm = CentralMoments::new(center, max_order);
    xs.into_iter().for_each(|x| cm.push(x as f64));
    cm
}

/// Whether a trial's two walks share a node.
fn same_node(pair: &[NodeId]) -> bool {
    pair[0] == pair[1]
}

/// Trials per engine: fixed, so a sampler's result depends on
/// `(seed, trials)` alone, whatever the thread count.
const TRIALS_PER_ENGINE: u64 = 256;

/// The Monte-Carlo sampler behind every measurement above: runs `trials`
/// trials of `walks` independent walks each for `t` rounds, all placed
/// at `start` or, for `None`, uniformly, and counts the rounds after
/// whose move `hit` holds for a trial's positions. Returns the hits per
/// trial and per round `0..=t` (round 0 is never counted). Every batch
/// of [`TRIALS_PER_ENGINE`] trials is one engine whose agents
/// `k·walks ..` are trial `k`'s walks; the batches fan out over
/// [`run_trials`].
#[allow(clippy::too_many_arguments)]
fn walk_trials<T: Topology + Sync>(
    topo: &T,
    walks: usize,
    start: Option<NodeId>,
    t: u64,
    trials: u64,
    seed: u64,
    threads: usize,
    hit: impl Fn(&[NodeId]) -> bool + Sync,
) -> (Vec<u64>, Vec<u64>) {
    let seq = SeedSequence::new(seed);
    let steps = seq.subsequence(1);
    let batches = trials.div_ceil(TRIALS_PER_ENGINE);
    let per_batch = run_trials(batches, threads, seq.subsequence(0), |b, rng| {
        let in_batch = TRIALS_PER_ENGINE.min(trials - b * TRIALS_PER_ENGINE) as usize;
        let mut engine =
            Engine::new(topo, in_batch * walks).with_seed_sequence(steps.subsequence(b));
        match start {
            Some(v) => engine.place_at(&vec![v; in_batch * walks]),
            None => engine.place_uniform(rng),
        }
        let (mut per_trial, mut per_round) = (vec![0; in_batch], vec![0; t as usize + 1]);
        let mut positions = Vec::with_capacity(in_batch * walks);
        engine.run(t, |engine| {
            positions.clear();
            positions.extend(engine.agent_positions().map(|(_, v)| v));
            let round = &mut per_round[engine.round() as usize];
            for (count, trial) in per_trial.iter_mut().zip(positions.chunks_exact(walks)) {
                if hit(trial) {
                    *count += 1;
                    *round += 1;
                }
            }
            ControlFlow::Continue(())
        });
        (per_trial, per_round)
    });
    let mut all = (Vec::with_capacity(trials as usize), vec![0; t as usize + 1]);
    for (per_trial, per_round) in per_batch {
        all.0.extend(per_trial);
        all.1
            .iter_mut()
            .zip(per_round)
            .for_each(|(sum, x)| *sum += x);
    }
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use antdensity_graphs::{CompleteGraph, Ring, Torus2d};

    /// The Lemma 11 moment bound with explicit constant `w`:
    /// `(t/A)·wᵏ·k!·logᵏ(2t)`.
    fn lemma11_bound(t: u64, a: u64, k: u32, w: f64) -> f64 {
        let log2t = (2.0 * t as f64).ln();
        let mut kfact = 1.0;
        for i in 1..=k as u64 {
            kfact *= i as f64;
        }
        (t as f64 / a as f64) * w.powi(k as i32) * kfact * log2t.powi(k as i32)
    }

    #[test]
    fn exact_and_mc_recollision_agree() {
        let topo = Torus2d::new(8);
        let t = 12;
        let exact = dist::recollision_series(&topo, 0, t);
        let mc = mc_recollision_curve(&topo, 0, t, 60_000, 1, 4);
        for m in 0..=t as usize {
            // 60k trials: 5-sigma band on a proportion is ~0.01
            assert!(
                (exact[m] - mc[m]).abs() < 0.012,
                "lag {m}: exact {} vs mc {}",
                exact[m],
                mc[m]
            );
        }
    }

    #[test]
    fn recollision_curve_respects_lemma4_shape() {
        // exact curve <= C * (1/(m+1) + 1/A) for a single modest C.
        let topo = Torus2d::new(32); // A = 1024
        let t = 128;
        let curve = dist::recollision_series(&topo, 0, t);
        let a = 1024.0;
        for (m, &p) in curve.iter().enumerate() {
            let envelope = 1.0 / (m as f64 + 1.0) + 1.0 / a;
            assert!(
                p <= 4.0 * envelope,
                "lag {m}: p {p} exceeds 4x envelope {envelope}"
            );
        }
    }

    #[test]
    fn max_prob_dominates_recollision() {
        let topo = Torus2d::new(16);
        let rec = dist::recollision_series(&topo, 0, 40);
        let max = dist::max_probability_series(&topo, 0, 40);
        for m in 0..rec.len() {
            assert!(rec[m] <= max[m] + 1e-12);
        }
    }

    #[test]
    fn expected_equalizations_log_growth_on_torus() {
        // E[equalizations] = Theta(log t) on the 2-d torus (Cor. 10 sum).
        let topo = Torus2d::new(64);
        let e1 = expected_equalizations(&topo, 0, 64);
        let e2 = expected_equalizations(&topo, 0, 256);
        let e3 = expected_equalizations(&topo, 0, 1024);
        // log growth: equal increments per 4x
        let inc1 = e2 - e1;
        let inc2 = e3 - e2;
        assert!((inc1 - inc2).abs() < 0.15, "increments {inc1} vs {inc2}");
    }

    #[test]
    fn pair_count_first_moment_near_zero() {
        // centered at the true mean t/A, the first central moment ~ 0.
        let topo = Torus2d::new(8);
        let cm = pair_count_moments(&topo, 32, 4, 40_000, 2, 4);
        assert!(cm.moment(1).abs() < 0.02, "first moment {}", cm.moment(1));
        assert!(cm.moment(2) > 0.0);
    }

    #[test]
    fn pair_count_moments_bounded_by_lemma11_shape() {
        let topo = Torus2d::new(16); // A = 256
        let t = 64;
        let cm = pair_count_moments(&topo, t, 4, 60_000, 3, 4);
        // fit w from k = 2, then check k = 3, 4 hold with the same w (x4
        // slack for constants).
        let m2 = cm.abs_moment(2);
        let w = (m2 / lemma11_bound(t, 256, 2, 1.0)).sqrt().max(0.1);
        for k in 3..=4u32 {
            let bound = lemma11_bound(t, 256, k, w) * 8.0;
            assert!(
                cm.abs_moment(k) <= bound,
                "k = {k}: moment {} vs bound {bound} (w = {w})",
                cm.abs_moment(k)
            );
        }
    }

    #[test]
    fn visit_moments_on_complete_graph_are_binomial() {
        // On CompleteGraph visits to a fixed node are Binomial(t, 1/A):
        // variance = t * (1/A)(1 - 1/A).
        let topo = CompleteGraph::new(32);
        let t = 64;
        let cm = visit_count_moments(&topo, 5, t, 2, 60_000, 4, 4);
        let p = 1.0 / 32.0;
        let expected_var = t as f64 * p * (1.0 - p);
        assert!(
            (cm.moment(2) - expected_var).abs() < 0.1,
            "variance {} vs {expected_var}",
            cm.moment(2)
        );
    }

    #[test]
    fn equalization_moments_ring_larger_than_torus() {
        // Corollary 16 vs ring: sqrt(t) equalizations on the ring vs log t
        // on the torus — second moments reflect it.
        let ring = Ring::new(1024);
        let torus = Torus2d::new(32);
        let t = 256;
        let ring_cm = equalization_moments(&ring, 0, t, 2, 20_000, 5, 4);
        let torus_cm = equalization_moments(&torus, 0, t, 2, 20_000, 6, 4);
        assert!(
            ring_cm.moment(2) > 3.0 * torus_cm.moment(2),
            "ring var {} vs torus var {}",
            ring_cm.moment(2),
            torus_cm.moment(2)
        );
    }

    #[test]
    fn mc_curve_deterministic_and_thread_independent() {
        let topo = Torus2d::new(8);
        let a = mc_recollision_curve(&topo, 3, 6, 500, 9, 1);
        let b = mc_recollision_curve(&topo, 3, 6, 500, 9, 4);
        assert_eq!(a, b);
    }
}
