//! E14 — Section 5.1.4: burn-in.
//!
//! Claims: the total-variation distance of a seed-started walk to
//! stationarity decays geometrically with rate ≈ λ, so
//! `M = O(log(|E|/δ)/(1−λ))` steps suffice; and size estimates started
//! from a seed vertex are biased until burn-in is long enough, after
//! which they match stationary-start estimates.

use crate::report::{Effort, ExperimentReport};
use antdensity_graphs::{generators, spectral, CsrGraph, Topology};
use antdensity_netsize::algorithm2::{Algorithm2, StartMode};
use antdensity_netsize::{burnin, median};
use antdensity_stats::regression::SemiLogFit;
use antdensity_stats::table::{format_sig, Table};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Runs E14.
pub fn run(effort: Effort, seed: u64) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "e14",
        "Section 5.1.4: burn-in — TV decays at rate lambda; estimates unbias once TV < delta",
    );
    let v = effort.size(256, 512);
    let mut rng = SmallRng::seed_from_u64(seed);
    let graphs: Vec<(&str, CsrGraph)> = vec![
        (
            "regular8_fast",
            generators::random_regular(v, 8, 500, &mut rng).expect("regular"),
        ),
        (
            "ws_k4_b0.05_slow",
            generators::watts_strogatz(v, 4, 0.05, &mut rng).expect("ws"),
        ),
    ];

    // --- TV decay rate vs lambda ---
    let mut tv_table = Table::new(
        "tv_decay",
        &[
            "graph",
            "lambda",
            "fitted_tv_rate",
            "M_recommended",
            "TV_at_M",
        ],
    );
    let mut rates_ok = true;
    for (name, g) in &graphs {
        let lambda = {
            let mut r = SmallRng::seed_from_u64(seed ^ name.len() as u64);
            spectral::walk_matrix_lambda(g, 8000, &mut r).lambda
        };
        let m_rec = burnin::recommended_burnin(g, 0.05, Some(lambda), 1.0);
        let horizon = (2 * m_rec).clamp(50, 20_000);
        let profile = burnin::tv_profile(g, 0, horizon);
        // fit geometric decay over the mid-range (skip transient, stop
        // before numerical floor)
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for (m, &tv) in profile.iter().enumerate() {
            if tv > 1e-9 && tv < 0.5 && m > 2 {
                xs.push(m as f64);
                ys.push(tv);
            }
        }
        let fit = SemiLogFit::fit(&xs, &ys);
        rates_ok &= (fit.ratio - lambda).abs() < 0.08;
        tv_table.row_owned(vec![
            name.to_string(),
            format_sig(lambda, 4),
            format_sig(fit.ratio, 4),
            m_rec.to_string(),
            format_sig(profile[(m_rec as usize).min(profile.len() - 1)], 5),
        ]);
    }
    tv_table.note("paper: TV ~ lambda^m; M = log(|E|/delta)/(1-lambda) brings TV below delta");
    report.push_table(tv_table);
    report.finding(format!(
        "fitted TV decay rate matches lambda within 0.08 on both graphs: {}",
        if rates_ok { "yes" } else { "NO" }
    ));

    // --- effect on the size estimate ---
    let (_, slow) = &graphs[1];
    let lambda_slow = {
        let mut r = SmallRng::seed_from_u64(seed ^ 0x51);
        spectral::walk_matrix_lambda(slow, 8000, &mut r).lambda
    };
    let m_full = burnin::recommended_burnin(slow, 0.05, Some(lambda_slow), 1.0);
    let mut bias_table = Table::new(
        "estimate_vs_burnin",
        &["burnin_steps", "median_estimate", "rel_err"],
    );
    let walks = effort.size(96, 160) as usize;
    let rounds = 48u64;
    let reps = 9;
    let mut errs = Vec::new();
    for &frac in &[0.0f64, 0.25, 1.0, 2.0] {
        let steps = (m_full as f64 * frac).round() as u64;
        let boosted = median::median_boosted(
            Algorithm2::new(walks, rounds),
            slow,
            slow.avg_degree(),
            StartMode::SeedWithBurnin {
                seed_vertex: 0,
                steps,
            },
            reps,
            seed ^ steps,
        );
        let rel = (boosted.estimate - v as f64).abs() / v as f64;
        errs.push(rel);
        bias_table.row_owned(vec![
            steps.to_string(),
            format_sig(boosted.estimate, 1),
            format_sig(rel, 3),
        ]);
    }
    bias_table.note(
        "paper: estimates from under-burned walks are biased (clustered walkers over-collide)",
    );
    report.push_table(bias_table);
    let improved = errs[0] > errs[2];
    report.finding(format!(
        "zero burn-in error {:.3} vs full-M burn-in error {:.3} — burn-in removes the seed-clustering bias: {}",
        errs[0],
        errs[2],
        if improved { "yes" } else { "NO" }
    ));
    let _ = slow.num_nodes();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_tv_rate_matches_lambda() {
        let r = run(Effort::Quick, 41);
        assert!(r.findings[0].ends_with("yes"), "{}", r.findings[0]);
    }
}
