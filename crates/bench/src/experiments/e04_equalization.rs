//! E4 — Corollary 10: the equalization (return-to-origin) probability on
//! the torus is `Θ(1/(m+1)) + O(1/A)` for even `m` and exactly 0 for odd
//! `m`.
//!
//! The Θ makes this stronger than E3: we verify a two-sided band, i.e.
//! `P(m)·(m+1)` stays inside a fixed `[c_lo, c_hi]` window across the
//! whole power-law regime.

use crate::report::{Effort, ExperimentReport};
use antdensity_graphs::{dist, Topology, Torus2d};
use antdensity_stats::regression::LogLogFit;
use antdensity_stats::table::{format_sig, Table};

/// Runs E4.
pub fn run(effort: Effort, _seed: u64) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "e4",
        "Corollary 10: equalization probability Theta(1/(m+1)) at even lags, 0 at odd lags",
    );
    let side = effort.size(32, 64);
    let torus = Torus2d::new(side);
    let a = torus.num_nodes() as f64;
    let t_max = effort.size(512, 2048);
    let series = dist::return_probability_series(&torus, 0, t_max);

    // odd lags must vanish exactly
    let odd_max = (1..=t_max as usize)
        .step_by(2)
        .map(|m| series[m])
        .fold(0.0, f64::max);

    let mut table = Table::new(
        "equalization_torus",
        &["m", "P_return", "P_times_m_plus_1", "within_theta_band"],
    );
    let mut normalized: Vec<f64> = Vec::new();
    let mut fit_m = Vec::new();
    let mut fit_p = Vec::new();
    for k in 1..=11u32 {
        let m = 1u64 << k; // even lags
        if m > t_max {
            break;
        }
        let p = series[m as usize];
        let norm = p * (m as f64 + 1.0);
        if p - 1.0 / a > 5.0 / a {
            normalized.push(norm);
            fit_m.push(m as f64 + 1.0);
            fit_p.push(p - 1.0 / a);
        }
        table.row_owned(vec![
            m.to_string(),
            format_sig(p, 6),
            format_sig(norm, 4),
            "-".to_string(),
        ]);
    }
    let lo = normalized.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = normalized.iter().cloned().fold(0.0, f64::max);
    table.note("paper: P*(m+1) must sit in a fixed [c_lo, c_hi] band (the Theta)");
    report.push_table(table);

    let fit = LogLogFit::fit(&fit_m, &fit_p);
    report.finding(format!(
        "even-lag slope of P(m) - 1/A: {:.3} (paper predicts -1), R^2 = {:.4}",
        fit.exponent, fit.r_squared
    ));
    report.finding(format!(
        "Theta band: P(m)*(m+1) in [{:.3}, {:.3}] — ratio hi/lo = {:.2} (bounded, as Theta requires)",
        lo,
        hi,
        hi / lo
    ));
    report.finding(format!(
        "odd-lag return probability: max = {:.1e} (paper: exactly 0 — bipartite torus)",
        odd_max
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_verifies_theta_and_parity() {
        let r = run(Effort::Quick, 0);
        // odd lags vanish
        assert!(r.findings[2].contains("0.0e0") || r.findings[2].contains("max = 0"));
        // the Theta band is genuinely bounded
        let band_line = &r.findings[1];
        let ratio: f64 = band_line
            .split("ratio hi/lo = ")
            .nth(1)
            .unwrap()
            .split_whitespace()
            .next()
            .unwrap()
            .parse()
            .unwrap();
        assert!(ratio < 4.0, "Theta band ratio {ratio} too wide");
    }
}
