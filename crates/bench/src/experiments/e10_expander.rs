//! E10 — Section 4.4: regular expanders.
//!
//! Lemma 23: for a regular expander with walk-matrix eigenvalue bound λ,
//! the re-collision probability satisfies `P[C|W] ≤ λ^m + 1/A`. We
//! measure λ by power iteration, evolve the exact re-collision curve, and
//! fit its geometric decay rate — which must match λ. The accuracy
//! consequence (error within `O(1/(1−λ))` of the complete graph) is
//! checked at matched parameters.

use super::util;
use crate::report::{Effort, ExperimentReport};
use antdensity_engine::TopologySpec;
use antdensity_graphs::{dist, generators, spectral, CsrGraph};
use antdensity_stats::regression::SemiLogFit;
use antdensity_stats::table::{format_sig, Table};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Runs E10.
pub fn run(effort: Effort, seed: u64) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "e10",
        "Lemma 23/24: expander re-collision <= lambda^m + 1/A; accuracy within (1-lambda)^-2 of i.i.d.",
    );
    let a = effort.size(1024, 4096);
    let mut table = Table::new(
        "expander_recollision",
        &[
            "degree",
            "lambda_measured",
            "fitted_decay_rate",
            "bound_ok",
            "R2",
        ],
    );
    let mut rates_match = true;
    for &deg in &[8usize, 16] {
        let g: CsrGraph = {
            let mut rng = SmallRng::seed_from_u64(seed ^ deg as u64);
            generators::random_regular(a, deg, 500, &mut rng).expect("expander generation")
        };
        let lambda = {
            let mut rng = SmallRng::seed_from_u64(seed ^ 0xAA ^ deg as u64);
            spectral::walk_matrix_lambda(&g, 4000, &mut rng).lambda
        };
        let t_max = 64u64;
        let exact = dist::recollision_series(&g, 0, t_max);
        // Rate fit: Lemma 24 upper-bounds |p_m(v) − 1/A| by lambda^m, so
        // the fitted geometric rate of the max-probability excess must be
        // AT MOST lambda (on random regular graphs it is in fact slightly
        // faster, by a Kesten-spectral-density m^{-3/2} polynomial factor
        // — the bound is an upper bound, not an equality). Use even lags
        // to dampen negative-eigenvalue oscillation.
        let maxp = dist::max_probability_series(&g, 0, t_max);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for m in (2..=t_max).step_by(2) {
            let p = maxp[m as usize] - 1.0 / a as f64;
            if p > 2.0 / a as f64 {
                xs.push(m as f64);
                ys.push(p);
            }
        }
        let fit = SemiLogFit::fit(&xs, &ys);
        // Lemma 23 upper bound check at every lag
        let bound_ok =
            (0..=t_max).all(|m| exact[m as usize] <= lambda.powi(m as i32) + 1.0 / a as f64 + 1e-9);
        rates_match &= fit.ratio <= lambda + 0.05 && fit.ratio > 0.2;
        table.row_owned(vec![
            deg.to_string(),
            format_sig(lambda, 4),
            format_sig(fit.ratio, 4),
            if bound_ok { "yes" } else { "NO" }.to_string(),
            format_sig(fit.r_squared, 4),
        ]);
    }
    table.note("paper: P(m) <= lambda^m + 1/A (Lemma 23); decay rate geometric");
    report.push_table(table);
    report.finding(format!(
        "max-prob excess decays geometrically at rate <= lambda (Lemma 24 is an upper bound) and re-collision stays below the Lemma 23 envelope: {}",
        if rates_match { "yes" } else { "NO" }
    ));

    // --- accuracy vs complete graph ---
    let g = TopologySpec::CsrRegular {
        nodes: a,
        degree: 8,
    };
    let complete = TopologySpec::Complete { nodes: a };
    let d = 0.05;
    let n_agents = ((d * a as f64).round() as usize).max(2) + 1;
    let runs = effort.trials(4, 12);
    let mut acc = Table::new(
        "expander_vs_complete",
        &["t", "q90_expander", "q90_complete", "ratio"],
    );
    let mut max_ratio: f64 = 0.0;
    for t in util::pow2_sweep(16, effort.size(1 << 8, 1 << 10)) {
        let qe = util::scenario_error_quantiles(g, n_agents, t, runs, seed ^ t, &[0.9])[0];
        let qc =
            util::scenario_error_quantiles(complete, n_agents, t, runs, seed ^ t ^ 0xE, &[0.9])[0];
        let ratio = qe / qc;
        max_ratio = max_ratio.max(ratio);
        acc.row_owned(vec![
            t.to_string(),
            format_sig(qe, 4),
            format_sig(qc, 4),
            format_sig(ratio, 3),
        ]);
    }
    acc.note("paper: ratio bounded by O(1/(1-lambda)) — constant in t");
    report.push_table(acc);
    report.finding(format!(
        "8-regular expander error within {:.2}x of the complete graph across the sweep (lambda ~ 0.66 => 1/(1-lambda) ~ 3)",
        max_ratio
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_geometric_decay_matches_lambda() {
        let r = run(Effort::Quick, 23);
        assert!(r.findings[0].ends_with("yes"), "{}", r.findings[0]);
        for row in r.tables[0].rows() {
            assert_eq!(row[3], "yes", "Lemma 23 bound violated: {row:?}");
        }
    }
}
