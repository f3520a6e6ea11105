//! E5 — Lemma 11 / Corollaries 15–16: moment bounds for collision counts.
//!
//! Lemma 11: `E[c̄ⱼᵏ | W] ≤ (t/A)·wᵏ·k!·logᵏ(2t)` for a single constant
//! `w`. The testable consequence: the normalised moment
//!
//! `w_k := ( E[|c̄ⱼ|ᵏ] / (k!·(t/A)) )^{1/k} / log(2t)`
//!
//! must be (approximately) constant in `k` *and* in `t`. We estimate
//! moments for k = 1..6 at two values of `t` and report the `w_k` table;
//! analogous tables cover node visits (Cor. 15) and equalizations
//! (Cor. 16, whose bound has no `t/A` prefactor).

use crate::report::{Effort, ExperimentReport};
use antdensity_core::recollision;
use antdensity_engine::pool::default_threads;
use antdensity_graphs::{Topology, Torus2d};
use antdensity_stats::table::{format_sig, Table};

fn factorial(k: u32) -> f64 {
    (1..=k as u64).map(|i| i as f64).product::<f64>().max(1.0)
}

/// Runs E5.
pub fn run(effort: Effort, seed: u64) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "e5",
        "Lemma 11 / Corollaries 15-16: k-th moment bounds for collision, visit and equalization counts",
    );
    let side = effort.size(16, 32);
    let torus = Torus2d::new(side);
    let a = torus.num_nodes();
    let trials = effort.trials(30_000, 300_000);
    let max_k = 6u32;
    let threads = default_threads();
    let ts = [a / 4, a];

    // --- pairwise collision counts (Lemma 11) ---
    let mut pair_table = Table::new("lemma11_pair_moments", &["t", "k", "E|c_bar|^k", "w_k"]);
    let mut w_values: Vec<f64> = Vec::new();
    for &t in &ts {
        let cm = recollision::pair_count_moments(&torus, t, max_k, trials, seed ^ t, threads);
        let log2t = (2.0 * t as f64).ln();
        for k in 1..=max_k {
            let m = cm.abs_moment(k);
            let w_k = (m / (factorial(k) * t as f64 / a as f64)).powf(1.0 / k as f64) / log2t;
            if k >= 2 {
                w_values.push(w_k);
            }
            pair_table.row_owned(vec![
                t.to_string(),
                k.to_string(),
                format_sig(m, 5),
                format_sig(w_k, 4),
            ]);
        }
    }
    pair_table.note("paper: w_k must be bounded by a constant w for all k and t");
    report.push_table(pair_table);
    let w_min = w_values.iter().cloned().fold(f64::INFINITY, f64::min);
    let w_max = w_values.iter().cloned().fold(0.0, f64::max);
    report.finding(format!(
        "Lemma 11: fitted w_k stable in [{:.3}, {:.3}] across k = 2..6 and t in {{A/4, A}} (ratio {:.2})",
        w_min,
        w_max,
        w_max / w_min
    ));

    // --- visit counts (Corollary 15) ---
    let t_vis = ts[1];
    let cm_vis =
        recollision::visit_count_moments(&torus, 0, t_vis, max_k, trials, seed ^ 0x515, threads);
    let mut visit_table = Table::new(
        "corollary15_visit_moments",
        &["k", "E|c_bar|^k", "bound_w1"],
    );
    let log2t = (2.0 * t_vis as f64).ln();
    let mut vis_ok = true;
    for k in 1..=max_k {
        let m = cm_vis.abs_moment(k);
        // Cor. 15 bound shape with w = 1: (t/A) k! log^{k-1}(2t)
        let shape = (t_vis as f64 / a as f64) * factorial(k) * log2t.powi(k as i32 - 1);
        vis_ok &= m <= shape * 16.0; // generous constant slack
        visit_table.row_owned(vec![k.to_string(), format_sig(m, 5), format_sig(shape, 5)]);
    }
    visit_table.note("paper: moments <= (t/A) w^k k! log^{k-1}(2t) for fixed w");
    report.push_table(visit_table);
    report.finding(format!(
        "Corollary 15 (visits): all k <= 6 moments below the bound shape with constant <= 16: {}",
        if vis_ok { "yes" } else { "NO" }
    ));

    // --- equalizations (Corollary 16) ---
    let cm_eq =
        recollision::equalization_moments(&torus, 0, t_vis, max_k, trials, seed ^ 0xE16, threads);
    let mut eq_table = Table::new(
        "corollary16_equalization_moments",
        &["k", "E|c_bar|^k", "bound_w1"],
    );
    let mut eq_ok = true;
    for k in 1..=max_k {
        let m = cm_eq.abs_moment(k);
        // Cor. 16 bound shape with w = 1: k! log^k(2t)
        let shape = factorial(k) * log2t.powi(k as i32);
        eq_ok &= m <= shape; // w = 1 is already generous here
        eq_table.row_owned(vec![k.to_string(), format_sig(m, 5), format_sig(shape, 5)]);
    }
    eq_table.note("paper: moments <= w^k k! log^k(2t) for fixed w");
    report.push_table(eq_table);
    report.finding(format!(
        "Corollary 16 (equalizations): all k <= 6 moments below k! log^k(2t) at w = 1: {}",
        if eq_ok { "yes" } else { "NO" }
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_moment_bounds_hold() {
        let r = run(Effort::Quick, 7);
        assert_eq!(r.tables.len(), 3);
        assert!(r.findings[1].ends_with("yes"), "{}", r.findings[1]);
        assert!(r.findings[2].ends_with("yes"), "{}", r.findings[2]);
    }

    #[test]
    fn factorial_small() {
        assert_eq!(factorial(1), 1.0);
        assert_eq!(factorial(4), 24.0);
    }
}
