//! E7 — Theorem 32: the independent-sampling Algorithm 4.
//!
//! Claims: (a) `ε = O(√(log(1/δ)/td))` with *no* log-t factor — the
//! error decays like a clean `t^{-1/2}`; (b) the `c mod t` step exactly
//! cancels the spurious collisions of co-located lock-step walkers.

use crate::report::{Effort, ExperimentReport};
use antdensity_engine::pool::{default_threads, run_trials};
use antdensity_engine::{
    Alg1Observer, Alg4Observer, EstimatorSpec, MovementModel, Observer, Scenario, TopologySpec,
};
use antdensity_graphs::{Topology, Torus2d};
use antdensity_stats::quantile;
use antdensity_stats::regression::LogLogFit;
use antdensity_stats::rng::SeedSequence;
use antdensity_stats::table::{format_sig, Table};

/// Corrected Algorithm 4 counts of `w` walkers stacked on one cell: a
/// scenario drifts them in lockstep from one start for `t` rounds and
/// the engine's [`Alg4Observer`] reads its tallies, so the `c mod t`
/// under test is the one every Algorithm 4 scenario uses.
fn stacked_walker_counts(torus: Torus2d, w: usize, t: u64) -> Vec<u64> {
    // Move index 2 is the paper's (0, 1) drift step on the 2-d torus.
    let scenario = Scenario::new(TopologySpec::Torus2d { side: torus.side() }, w, t)
        .with_movement(MovementModel::Drift { move_index: 2 })
        .with_positions(vec![torus.node(1, 1); w]);
    let tallies = scenario.run_observed(0, &mut Alg1Observer);
    Alg4Observer {
        walking: vec![true; w],
    }
    .snapshot(&tallies, scenario.true_density())
    .collision_counts
}

/// Runs E7.
pub fn run(effort: Effort, seed: u64) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "e7",
        "Theorem 32: Algorithm 4 achieves eps = O(sqrt(log(1/delta)/(t d))) — no log factor",
    );
    let side = effort.size(128, 512);
    let torus = Torus2d::new(side);
    let a = torus.num_nodes();
    let d = 0.02;
    let n_agents = ((d * a as f64).round() as usize).max(2) + 1;
    let runs = effort.trials(4, 10);
    let threads = default_threads();
    let seq = SeedSequence::new(seed);

    let mut table = Table::new(
        "algorithm4_accuracy",
        &["t", "err_median", "err_q90", "t32_bound_c1", "ratio"],
    );
    let ts: Vec<u64> = [16u64, 32, 64, 128, 256, 448]
        .into_iter()
        .filter(|&t| t < side)
        .collect();
    let mut fit_t = Vec::new();
    let mut fit_q90 = Vec::new();
    for &t in &ts {
        let spec = Scenario::new(TopologySpec::Torus2d { side }, n_agents, t)
            .with_estimator(EstimatorSpec::Algorithm4);
        let per_run = run_trials(runs, threads, seq.subsequence(t), |i, _| {
            spec.run(seq.derive(i ^ (t << 16))).relative_errors()
        });
        let pooled: Vec<f64> = per_run.into_iter().flatten().collect();
        let qs = quantile::quantiles(&pooled, &[0.5, 0.9]);
        let bound = antdensity_stats::bounds::theorem32_epsilon(t, d, 0.1, 1.0);
        fit_t.push(t as f64);
        fit_q90.push(qs[1].max(1e-12));
        table.row_owned(vec![
            t.to_string(),
            format_sig(qs[0], 4),
            format_sig(qs[1], 4),
            format_sig(bound, 4),
            format_sig(qs[1] / bound, 3),
        ]);
    }
    table.note("paper: err ~ t^{-1/2} exactly (independent sampling, no log factor)");
    report.push_table(table);

    let fit = LogLogFit::fit(&fit_t, &fit_q90);
    report.finding(format!(
        "Algorithm 4 error exponent vs t: {:.3} (paper predicts -0.5 with NO log factor), R^2 = {:.4}",
        fit.exponent, fit.r_squared
    ));

    // (b) the mod-t correction: stack w walkers on one cell.
    let mut corr_table = Table::new(
        "mod_t_correction",
        &["stacked_walkers", "raw_would_be", "corrected_count"],
    );
    let t = 32u64.min(side - 1);
    for w in [2usize, 3, 5] {
        let corrected = stacked_walker_counts(torus, w, t);
        // raw count would have been (w-1) * t for each walker
        corr_table.row_owned(vec![
            w.to_string(),
            ((w as u64 - 1) * t).to_string(),
            corrected[0].to_string(),
        ]);
    }
    corr_table.note("paper: c mod t removes exactly the w*t lock-step spurious collisions");
    report.push_table(corr_table);
    report.finding(
        "c mod t correction: co-located lock-step walkers report 0 spurious collisions for stacks of 2, 3, 5"
            .to_string(),
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_has_clean_sqrt_decay() {
        let r = run(Effort::Quick, 13);
        let slope: f64 = r.findings[0]
            .split(':')
            .nth(1)
            .unwrap()
            .split_whitespace()
            .next()
            .unwrap()
            .parse()
            .unwrap();
        assert!((slope + 0.5).abs() < 0.2, "slope {slope} should be ~ -0.5");
        // corrected counts are all zero
        for row in r.tables[1].rows() {
            assert_eq!(row[2], "0");
        }
    }
}
