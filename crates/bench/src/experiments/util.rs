//! Shared helpers for experiment modules.

use antdensity_engine::pool::{default_threads, run_trials};
use antdensity_engine::{Scenario, TopologySpec};
use antdensity_stats::quantile;
use antdensity_stats::rng::SeedSequence;

/// Pools per-agent relative errors from `runs` independent executions
/// of an Algorithm 1 [`Scenario`] and returns the requested error
/// quantiles. Trials fan out over threads; each trial runs the scenario
/// single-threaded (the outer fan-out already saturates the cores), and
/// every trial is a pure function of `(spec, derived seed)`.
pub(crate) fn scenario_error_quantiles(
    topology: TopologySpec,
    num_agents: usize,
    rounds: u64,
    runs: u64,
    seed: u64,
    qs: &[f64],
) -> Vec<f64> {
    let seq = SeedSequence::new(seed);
    let threads = default_threads();
    let spec = Scenario::new(topology, num_agents, rounds);
    let per_run = run_trials(runs, threads, seq, |i, _| {
        spec.run(seq.derive(i ^ 0xE1E1)).relative_errors()
    });
    let pooled: Vec<f64> = per_run.into_iter().flatten().collect();
    quantile::quantiles(&pooled, qs)
}

/// Pools per-agent estimates from `runs` executions of an Algorithm 1
/// [`Scenario`]; returns `(grand_mean, standard_error_of_mean,
/// sample_count)`.
pub(crate) fn scenario_mean_estimate(
    topology: TopologySpec,
    num_agents: usize,
    rounds: u64,
    runs: u64,
    seed: u64,
) -> (f64, f64, u64) {
    let seq = SeedSequence::new(seed);
    let threads = default_threads();
    let spec = Scenario::new(topology, num_agents, rounds);
    // Per-run means are i.i.d. across runs; agents within a run are
    // correlated, so the standard error is computed over run means.
    let run_means = run_trials(runs, threads, seq, |i, _| {
        spec.run(seq.derive(i ^ 0xE2E2)).mean_estimate()
    });
    let n = run_means.len() as f64;
    let mean = run_means.iter().sum::<f64>() / n;
    let var = run_means
        .iter()
        .map(|m| (m - mean) * (m - mean))
        .sum::<f64>()
        / (n - 1.0).max(1.0);
    (mean, (var / n).sqrt(), runs)
}

/// Geometric sweep `start, start*2, …, ≤ end` (inclusive of `end` when it
/// is a power-of-two multiple of `start`).
pub(crate) fn pow2_sweep(start: u64, end: u64) -> Vec<u64> {
    let mut v = Vec::new();
    let mut t = start;
    while t <= end {
        v.push(t);
        t = t.saturating_mul(2);
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pow2_sweep_covers_range() {
        assert_eq!(pow2_sweep(4, 32), vec![4, 8, 16, 32]);
        assert_eq!(pow2_sweep(5, 21), vec![5, 10, 20]);
        assert_eq!(pow2_sweep(8, 8), vec![8]);
    }

    #[test]
    fn error_quantiles_are_ordered() {
        let qs = [0.1, 0.5, 0.9, 1.0];
        let q = scenario_error_quantiles(TopologySpec::Ring { nodes: 64 }, 9, 32, 4, 1, &qs);
        assert_eq!(q.len(), qs.len());
        assert!(q[0] >= 0.0);
        assert!(q.windows(2).all(|w| w[0] <= w[1]), "{q:?}");
    }

    #[test]
    fn scenario_quantiles_match_shape_and_order() {
        let q =
            scenario_error_quantiles(TopologySpec::Torus2d { side: 8 }, 9, 32, 4, 1, &[0.5, 0.9]);
        assert_eq!(q.len(), 2);
        assert!(q[0] <= q[1]);
    }

    #[test]
    fn scenario_quantiles_deterministic() {
        let run =
            || scenario_error_quantiles(TopologySpec::Complete { nodes: 64 }, 9, 32, 6, 7, &[0.9]);
        assert_eq!(run(), run());
    }

    #[test]
    fn mean_estimate_near_truth() {
        let (mean, se, _) =
            scenario_mean_estimate(TopologySpec::Torus2d { side: 8 }, 17, 64, 16, 2);
        let truth = 16.0 / 64.0; // 16 others on A = 64 nodes
        assert!(
            (mean - truth).abs() < 6.0 * se + 0.02,
            "mean {mean} se {se}"
        );
    }
}
