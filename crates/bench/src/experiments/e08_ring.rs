//! E8 — Section 4.2: the ring's poor local mixing.
//!
//! Lemma 20: re-collision probability `O(1/√(m+1) + 1/A)` — log–log
//! slope −1/2 (vs −1 on the 2-d torus). Theorem 21: accuracy only
//! `ε = O(√(1/(√t·d·δ)))`, i.e. the error decays like `t^{-1/4}` — half
//! the torus' rate. Both shapes are verified here.

use super::util;
use crate::report::{Effort, ExperimentReport};
use antdensity_engine::TopologySpec;
use antdensity_graphs::{dist, Ring};
use antdensity_stats::regression::LogLogFit;
use antdensity_stats::table::{format_sig, Table};

/// Runs E8.
pub fn run(effort: Effort, seed: u64) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "e8",
        "Lemma 20 / Theorem 21: ring re-collision ~ m^{-1/2}; error converges only as t^{-1/4}",
    );
    // --- re-collision shape (exact) ---
    let a_exact = effort.size(2048, 8192);
    let ring = Ring::new(a_exact);
    let t_max = effort.size(512, 2048);
    let exact = dist::recollision_series(&ring, 0, t_max);
    let mut rec_table = Table::new(
        "ring_recollision",
        &["m", "P_exact", "envelope_sqrt", "ratio"],
    );
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for k in 1..=11u32 {
        let m = 1u64 << k;
        if m > t_max {
            break;
        }
        let p = exact[m as usize];
        let env = 1.0 / ((m as f64 + 1.0).sqrt()) + 1.0 / a_exact as f64;
        rec_table.row_owned(vec![
            m.to_string(),
            format_sig(p, 6),
            format_sig(env, 6),
            format_sig(p / env, 3),
        ]);
    }
    for m in 2..=t_max {
        let p = exact[m as usize] - 1.0 / a_exact as f64;
        if p > 5.0 / a_exact as f64 {
            xs.push(m as f64 + 1.0);
            ys.push(p);
        }
    }
    let rec_fit = LogLogFit::fit(&xs, &ys);
    rec_table.note("paper: ratio bounded (Lemma 20); slope -1/2 vs torus' -1");
    report.push_table(rec_table);
    report.finding(format!(
        "ring re-collision slope: {:.3} (paper predicts -0.5), R^2 = {:.4}",
        rec_fit.exponent, rec_fit.r_squared
    ));

    // --- estimation error decay (Theorem 21) ---
    let a_sim = effort.size(2048, 8192);
    let ring_sim = TopologySpec::Ring { nodes: a_sim };
    let d = 0.05;
    let n_agents = ((d * a_sim as f64).round() as usize).max(2) + 1;
    let runs = effort.trials(4, 12);
    let mut est_table = Table::new(
        "ring_accuracy",
        &["t", "err_median", "err_q90", "thm21_bound_c1", "ratio"],
    );
    let mut ft = Vec::new();
    let mut fq = Vec::new();
    let t_hi = effort.size(1 << 11, 1 << 13);
    for t in util::pow2_sweep(64, t_hi) {
        let qs = util::scenario_error_quantiles(
            ring_sim,
            n_agents,
            t,
            runs,
            seed ^ (t << 4),
            &[0.5, 0.9],
        );
        let bound = antdensity_stats::bounds::theorem21_epsilon(t, d, 0.1, 1.0);
        ft.push(t as f64);
        fq.push(qs[1].max(1e-12));
        est_table.row_owned(vec![
            t.to_string(),
            format_sig(qs[0], 4),
            format_sig(qs[1], 4),
            format_sig(bound, 4),
            format_sig(qs[1] / bound, 3),
        ]);
    }
    let est_fit = LogLogFit::fit(&ft, &fq);
    est_table.note("paper: error ~ t^{-1/4} — half the torus' convergence rate");
    report.push_table(est_table);
    report.finding(format!(
        "ring error exponent vs t: {:.3} (paper predicts ~ -0.25, vs ~ -0.5 on the torus), R^2 = {:.4}",
        est_fit.exponent, est_fit.r_squared
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_shows_half_power_recollision() {
        let r = run(Effort::Quick, 17);
        let slope: f64 = r.findings[0]
            .split(':')
            .nth(1)
            .unwrap()
            .split_whitespace()
            .next()
            .unwrap()
            .parse()
            .unwrap();
        assert!((slope + 0.5).abs() < 0.1, "recollision slope {slope}");
    }

    #[test]
    fn quick_run_error_decays_slower_than_torus() {
        let r = run(Effort::Quick, 17);
        let slope: f64 = r.findings[1]
            .split(':')
            .nth(1)
            .unwrap()
            .split_whitespace()
            .next()
            .unwrap()
            .parse()
            .unwrap();
        // ring exponent should be clearly shallower than -0.45
        assert!(slope > -0.45, "ring exponent {slope} too steep");
        assert!(slope < -0.05, "ring exponent {slope} should still decay");
    }
}
