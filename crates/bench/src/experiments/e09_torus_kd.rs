//! E9 — Section 4.3: k-dimensional tori, k ≥ 3.
//!
//! Lemma 22: re-collision probability `O(1/(m+1)^{k/2} + 1/A)`, so
//! `B(t) = O(1)` and density estimation matches independent sampling up
//! to constants. We verify the per-k decay exponents exactly and compare
//! estimation error on the 3-d torus against the complete graph at
//! matched parameters — the ratio must stay bounded (no log factor).

use super::util;
use crate::report::{Effort, ExperimentReport};
use antdensity_engine::TopologySpec;
use antdensity_graphs::{dist, Topology, TorusKd};
use antdensity_stats::regression::LogLogFit;
use antdensity_stats::table::{format_sig, Table};

/// Runs E9.
pub fn run(effort: Effort, seed: u64) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "e9",
        "Lemma 22: k-dim torus re-collision ~ (m+1)^{-k/2}; k >= 3 matches independent sampling",
    );

    // --- exact decay exponents for k = 2, 3, 4 ---
    let mut slope_table = Table::new(
        "kd_torus_recollision_slopes",
        &["k", "side", "A", "fitted_slope", "paper_slope", "R2"],
    );
    let configs: &[(u32, u64)] = &[(2, 48), (3, 32), (4, 12)];
    let mut slopes_ok = true;
    for &(k, side) in configs {
        let torus = TorusKd::new(k, side);
        let a = torus.num_nodes() as f64;
        let t_max = effort.size(96, 256);
        let exact = dist::recollision_series(&torus, 0, t_max);
        // Fit from m = 4 onward (small-m lattice corrections steepen the
        // apparent slope) and stop well before the 1/A stationarity floor.
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for m in 4..=t_max {
            let p = exact[m as usize] - 1.0 / a;
            if p > 10.0 / a {
                xs.push(m as f64 + 1.0);
                ys.push(p);
            }
        }
        let fit = LogLogFit::fit(&xs, &ys);
        let predicted = -(k as f64) / 2.0;
        slopes_ok &= (fit.exponent - predicted).abs() < 0.3;
        slope_table.row_owned(vec![
            k.to_string(),
            side.to_string(),
            (a as u64).to_string(),
            format_sig(fit.exponent, 3),
            format_sig(predicted, 3),
            format_sig(fit.r_squared, 4),
        ]);
    }
    slope_table.note("paper: slope = -k/2 per Lemma 22 (k = 2 shown for contrast)");
    report.push_table(slope_table);
    report.finding(format!(
        "re-collision decay exponents match -k/2 for k = 2, 3, 4: {}",
        if slopes_ok { "yes" } else { "NO" }
    ));

    // --- 3-d torus accuracy vs complete graph ---
    let side3 = effort.size(10, 16);
    let torus3 = TopologySpec::TorusKd {
        dims: 3,
        side: side3,
    };
    let a3 = torus3.num_nodes();
    let complete = TopologySpec::Complete { nodes: a3 };
    let d = 0.05;
    let n_agents = ((d * a3 as f64).round() as usize).max(2) + 1;
    let runs = effort.trials(4, 12);
    let mut acc_table = Table::new(
        "torus3d_vs_complete",
        &["t", "q90_torus3d", "q90_complete", "ratio"],
    );
    let mut ratios = Vec::new();
    for t in util::pow2_sweep(16, effort.size(1 << 9, 1 << 11)) {
        let q3 = util::scenario_error_quantiles(torus3, n_agents, t, runs, seed ^ t, &[0.9])[0];
        let qc =
            util::scenario_error_quantiles(complete, n_agents, t, runs, seed ^ t ^ 0x3D, &[0.9])[0];
        let ratio = q3 / qc;
        ratios.push(ratio);
        acc_table.row_owned(vec![
            t.to_string(),
            format_sig(q3, 4),
            format_sig(qc, 4),
            format_sig(ratio, 3),
        ]);
    }
    let max_ratio = ratios.iter().cloned().fold(0.0, f64::max);
    acc_table.note("paper: ratio bounded by a constant (B(t) = O(1)) — no log growth");
    report.push_table(acc_table);
    report.finding(format!(
        "3-d torus / complete-graph error ratio stays <= {:.2} across the whole t sweep — matches independent sampling up to constants",
        max_ratio
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_slopes_match_k_over_2() {
        let r = run(Effort::Quick, 19);
        assert!(r.findings[0].ends_with("yes"), "{}", r.findings[0]);
    }

    #[test]
    fn quick_run_ratio_bounded() {
        let r = run(Effort::Quick, 19);
        let max_ratio: f64 = r.findings[1]
            .split("<= ")
            .nth(1)
            .unwrap()
            .split_whitespace()
            .next()
            .unwrap()
            .parse()
            .unwrap();
        assert!(
            max_ratio < 6.0,
            "ratio {max_ratio} should stay constant-ish"
        );
    }
}
