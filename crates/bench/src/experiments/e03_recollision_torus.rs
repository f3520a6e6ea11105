//! E3 — Lemma 4 / Lemma 9: the torus re-collision probability is
//! `O(1/(m+1) + 1/A)`.
//!
//! Exact check: evolve the walk distribution from the collision node; the
//! re-collision probability at lag `m` is `Σ_v p_m(v)²` and the
//! single-walk point-probability bound of Lemma 9 is `max_v p_m(v)`.
//! We fit the log–log slope of `P(m) − 1/A` (expect −1), verify the
//! Lemma 9 envelope with one constant across all lags, and cross-check a
//! Monte-Carlo run of the simulation engine against the exact curve.
//! The path-conditioned form of Lemma 4 is bounded by `max_v p_m(v)`
//! uniformly over conditioning paths, so verifying Lemma 9 verifies it
//! for *every* path.

use crate::report::{Effort, ExperimentReport};
use antdensity_core::recollision;
use antdensity_graphs::{dist, Topology, Torus2d};
use antdensity_stats::regression::LogLogFit;
use antdensity_stats::table::{format_sig, Table};

/// Runs E3.
pub fn run(effort: Effort, seed: u64) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "e3",
        "Lemma 4 / Lemma 9: torus re-collision probability O(1/(m+1) + 1/A)",
    );
    let side = effort.size(32, 64);
    let torus = Torus2d::new(side);
    let a = torus.num_nodes() as f64;
    let t_max = effort.size(512, 2048);
    let start = torus.node(side / 2, side / 2);

    let exact = dist::recollision_series(&torus, start, t_max);
    let maxp = dist::max_probability_series(&torus, start, t_max);
    let mc_lags = effort.size(64, 128);
    let mc_trials = effort.trials(20_000, 100_000);
    let mc = recollision::mc_recollision_curve(
        &torus,
        start,
        mc_lags,
        mc_trials,
        seed,
        antdensity_engine::pool::default_threads(),
    );

    let mut table = Table::new(
        "recollision_torus",
        &[
            "m",
            "P_exact",
            "P_minus_1_over_A",
            "envelope",
            "ratio",
            "maxprob",
            "P_mc",
        ],
    );
    let lags: Vec<u64> = (0..=11)
        .map(|k| 1u64 << k)
        .filter(|&m| m <= t_max)
        .collect();
    for &m in &lags {
        let p = exact[m as usize];
        let excess = (p - 1.0 / a).max(0.0);
        let env = 1.0 / (m as f64 + 1.0) + 1.0 / a;
        let mc_cell = if m <= mc_lags {
            format_sig(mc[m as usize], 5)
        } else {
            "-".to_string()
        };
        table.row_owned(vec![
            m.to_string(),
            format_sig(p, 6),
            format_sig(excess, 6),
            format_sig(env, 6),
            format_sig(p / env, 3),
            format_sig(maxp[m as usize], 6),
            mc_cell,
        ]);
    }
    table.note("paper: ratio = P/envelope bounded by a constant for all m (Lemma 4)");
    report.push_table(table);

    // Slope fit over the power-law regime (before the 1/A floor bites):
    // keep lags where excess > 5/A.
    let (mut xs, mut ys) = (Vec::new(), Vec::new());
    for m in 2..=t_max {
        let excess = exact[m as usize] - 1.0 / a;
        if excess > 5.0 / a {
            xs.push(m as f64 + 1.0);
            ys.push(excess);
        }
    }
    let fit = LogLogFit::fit(&xs, &ys);
    report.finding(format!(
        "log-log slope of P(m) - 1/A over m in [2, {}]: {:.3} (paper predicts -1), R^2 = {:.4}",
        xs.last().map(|x| *x as u64).unwrap_or(0),
        fit.exponent,
        fit.r_squared
    ));

    // Envelope constant (Lemma 4): max over lags of P/envelope.
    let c = lags
        .iter()
        .map(|&m| exact[m as usize] / (1.0 / (m as f64 + 1.0) + 1.0 / a))
        .fold(0.0, f64::max);
    report.finding(format!(
        "Lemma 4 envelope constant: P(m) <= {:.2} * (1/(m+1) + 1/A) for all checked lags",
        c
    ));

    // Lemma 9 (conditional form): max_v p_m(v) under the same envelope.
    let c9 = lags
        .iter()
        .map(|&m| maxp[m as usize] / (1.0 / (m as f64 + 1.0) + 1.0 / a))
        .fold(0.0, f64::max);
    report.finding(format!(
        "Lemma 9 (uniform over conditioning paths): max_v p_m(v) <= {:.2} * (1/(m+1) + 1/A)",
        c9
    ));

    // MC vs exact agreement.
    let max_dev = (0..=mc_lags as usize)
        .map(|m| (mc[m] - exact[m]).abs())
        .fold(0.0, f64::max);
    report.finding(format!(
        "Monte-Carlo engine vs exact distribution: max deviation {:.4} over lags 0..={} ({} trials)",
        max_dev, mc_lags, mc_trials
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_finds_inverse_m_decay() {
        let r = run(Effort::Quick, 5);
        // slope finding must be close to -1
        let slope_line = &r.findings[0];
        assert!(slope_line.contains("paper predicts -1"), "{slope_line}");
        // extract the fitted slope from the line
        let slope: f64 = slope_line
            .split(':')
            .nth(1)
            .unwrap()
            .split_whitespace()
            .next()
            .unwrap()
            .parse()
            .unwrap();
        assert!((slope + 1.0).abs() < 0.2, "slope {slope} should be ~ -1");
    }
}
