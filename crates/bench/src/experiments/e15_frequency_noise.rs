//! E15 — Section 5.2 and Section 6.1: property frequency, noisy sensing,
//! biased walks.
//!
//! * **Frequency** (§5.2): `f̃_P = d̃_P/d̃` lands in the two-sided
//!   `(1∓ε)/(1±ε)` band around `f_P` for several property fractions.
//! * **Noise** (§6.1): with detection probability `p` and spurious rate
//!   `s`, the raw estimate concentrates on `p·d + s`; the correction
//!   `(d̃−s)/p` restores unbiasedness.
//! * **Bias** (§6.1): a perturbed step distribution (nonuniform over the
//!   five moves) leaves the estimator unbiased — drift is common to all
//!   agents, so relative motion is still a mean-zero random walk — and
//!   the error still decays like `~t^{-1/2}` (constants change only).

use super::util;
use crate::report::{Effort, ExperimentReport};
use antdensity_engine::{EstimatorSpec, MovementModel, NoiseSpec, Scenario, TopologySpec};
use antdensity_stats::regression::LogLogFit;
use antdensity_stats::table::{format_sig, Table};

/// Runs E15.
pub fn run(effort: Effort, seed: u64) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "e15",
        "Section 5.2 + 6.1: relative frequency estimation; noisy detection corrected; biased walks still concentrate",
    );
    let side = effort.size(16, 32);
    let torus = TopologySpec::Torus2d { side };
    let a = torus.num_nodes();
    let num_agents = ((0.1 * a as f64) as usize).max(20) + 1;
    let d = (num_agents as f64 - 1.0) / a as f64;

    // ---------- Part A: frequency ----------
    let rounds = effort.size(512, 2048);
    let mut freq_table = Table::new(
        "property_frequency",
        &["f_P", "mean_f_estimate", "rel_err", "frac_in_band_eps_0.3"],
    );
    let mut freq_ok = true;
    for &frac in &[0.1f64, 0.25, 0.5] {
        let k = ((num_agents as f64) * frac).round() as usize;
        // Small property groups (k as low as 3) make a single run's mean
        // swing by ~15% on seed luck alone; average over a few master
        // seeds so the check tests the estimator, not the seed.
        let freq_runs = 3u64;
        let truth = k as f64 / num_agents as f64;
        // The paper's two-sided band `[(1−ε)/(1+ε)·f, (1+ε)/(1−ε)·f]`
        // at ε = 0.3; agents with no encounters (f̃ undefined) miss it.
        let (lo, hi) = (truth * 0.7 / 1.3, truth * 1.3 / 0.7);
        let spec = Scenario::new(torus, num_agents, rounds)
            .with_estimator(EstimatorSpec::RelativeFrequency { property_agents: k });
        let mut mean = 0.0;
        let mut band = 0.0;
        for r in 0..freq_runs {
            let freqs: Vec<f64> = spec
                .run(seed ^ k as u64 ^ (r << 17))
                .frequencies()
                .into_iter()
                .flatten()
                .collect();
            let run_mean = if freqs.is_empty() {
                0.0
            } else {
                freqs.iter().sum::<f64>() / freqs.len() as f64
            };
            let in_band = freqs.iter().filter(|&&f| f >= lo && f <= hi).count();
            mean += run_mean / freq_runs as f64;
            band += in_band as f64 / num_agents as f64 / freq_runs as f64;
        }
        let rel = (mean - truth).abs() / truth;
        freq_ok &= rel < 0.15;
        freq_table.row_owned(vec![
            format_sig(truth, 3),
            format_sig(mean, 4),
            format_sig(rel, 3),
            format_sig(band, 3),
        ]);
    }
    freq_table.note("paper: f_estimate in [(1-e)/(1+e) f, (1+e)/(1-e) f] whp");
    report.push_table(freq_table);
    report.finding(format!(
        "relative-frequency estimates within 15% of truth for f_P in {{0.1, 0.25, 0.5}}: {}",
        if freq_ok { "yes" } else { "NO" }
    ));

    // ---------- Part B: noisy collision detection ----------
    let runs = effort.trials(6, 20);
    let mut noise_table = Table::new(
        "noisy_detection",
        &[
            "detect_p",
            "spurious_s",
            "raw_mean",
            "expected_raw",
            "corrected_mean",
            "d",
        ],
    );
    let mut noise_ok = true;
    for &(p, s) in &[(1.0f64, 0.0f64), (0.7, 0.0), (0.4, 0.0), (0.7, 0.02)] {
        let noise = NoiseSpec::new(p, s);
        let spec = Scenario::new(torus, num_agents, rounds).with_noise(noise);
        let mut raw_sum = 0.0;
        for r in 0..runs {
            raw_sum += spec
                .run(seed ^ 0xB0 ^ (r << 9) ^ (p.to_bits() >> 40) ^ (s.to_bits() >> 44))
                .mean_estimate();
        }
        let raw_mean = raw_sum / runs as f64;
        let expected = p * d + s;
        let corrected = noise.correct(raw_mean);
        noise_ok &= (corrected - d).abs() / d < 0.1;
        noise_table.row_owned(vec![
            format_sig(p, 2),
            format_sig(s, 3),
            format_sig(raw_mean, 4),
            format_sig(expected, 4),
            format_sig(corrected, 4),
            format_sig(d, 4),
        ]);
    }
    noise_table.note("paper (6.1): raw concentrates on p*d + s; (raw - s)/p restores d");
    report.push_table(noise_table);
    report.finding(format!(
        "noise-corrected estimates within 10% of d for all (p, s) settings: {}",
        if noise_ok { "yes" } else { "NO" }
    ));

    // ---------- Part C: biased (perturbed) walks ----------
    let bias = MovementModel::biased(vec![0.3, 0.2, 0.3, 0.2]); // drift +x, +y
    let mut bias_table = Table::new("biased_walk_error", &["t", "q90_biased", "q90_pure"]);
    let mut ts = Vec::new();
    let mut qb = Vec::new();
    for t in util::pow2_sweep(32, effort.size(1 << 9, 1 << 11)) {
        let biased = Scenario::new(torus, num_agents, t).with_movement(bias.clone());
        let pooled_biased: Vec<f64> = (0..runs)
            .flat_map(|r| biased.run(seed ^ 0xB1A5 ^ (r << 11) ^ t).relative_errors())
            .collect();
        let q_biased = antdensity_stats::quantile::quantile(&pooled_biased, 0.9);
        let q_pure =
            util::scenario_error_quantiles(torus, num_agents, t, runs, seed ^ t ^ 0xF, &[0.9])[0];
        ts.push(t as f64);
        qb.push(q_biased.max(1e-12));
        bias_table.row_owned(vec![
            t.to_string(),
            format_sig(q_biased, 4),
            format_sig(q_pure, 4),
        ]);
    }
    let fit = LogLogFit::fit(&ts, &qb);
    bias_table.note("paper (6.1): common drift cancels in relative motion; concentration survives");
    report.push_table(bias_table);
    report.finding(format!(
        "biased-walk error exponent vs t: {:.3} (still ~ -0.5; bias changes constants, not rates), R^2 = {:.3}",
        fit.exponent, fit.r_squared
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_all_three_parts_pass() {
        let r = run(Effort::Quick, 43);
        assert!(r.findings[0].ends_with("yes"), "{}", r.findings[0]);
        assert!(r.findings[1].ends_with("yes"), "{}", r.findings[1]);
        let slope: f64 = r.findings[2]
            .split(':')
            .nth(1)
            .unwrap()
            .split_whitespace()
            .next()
            .unwrap()
            .parse()
            .unwrap();
        assert!(slope < -0.25, "biased walk must still concentrate: {slope}");
    }
}
