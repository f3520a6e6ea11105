//! E13 — Theorem 31: average-degree estimation by inverse-degree
//! sampling (Algorithm 3).
//!
//! Claims: the estimator `D = Σ 1/deg(wⱼ)/n` is unbiased for `1/deḡ`;
//! its error decays like `1/√n`; and the budget
//! `n = Θ(deḡ/(deg_min·ε²·δ))` delivers `(1±ε)` accuracy w.p. `1−δ`.

use crate::report::{Effort, ExperimentReport};
use antdensity_graphs::{generators, CsrGraph};
use antdensity_netsize::degree;
use antdensity_stats::regression::LogLogFit;
use antdensity_stats::table::{format_sig, Table};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Runs E13.
pub fn run(effort: Effort, seed: u64) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "e13",
        "Theorem 31: inverse-degree sampling estimates the average degree at the 1/sqrt(n) rate",
    );
    let v = effort.size(400, 1000);
    let mut rng = SmallRng::seed_from_u64(seed);
    let graphs: Vec<(&str, CsrGraph)> = vec![
        (
            "ba_m3",
            generators::barabasi_albert(v, 3, &mut rng).expect("ba"),
        ),
        (
            "ws_k6_b0.1",
            generators::watts_strogatz(v, 6, 0.1, &mut rng).expect("ws"),
        ),
        (
            "regular8",
            generators::random_regular(v, 8, 500, &mut rng).expect("regular"),
        ),
    ];

    let reps = effort.trials(30, 100);
    let mut table = Table::new("degree_error_decay", &["graph", "n_samples", "rms_rel_err"]);
    let mut exponent_ok = true;
    for (name, g) in &graphs {
        let truth = 1.0 / g.avg_degree();
        let mut ns = Vec::new();
        let mut errs = Vec::new();
        for k in 4..=11u32 {
            let n = 1usize << k;
            let rms = {
                let se: f64 = (0..reps)
                    .map(|r| {
                        let est = degree::estimate_avg_degree(g, n, seed ^ (r << 13) ^ n as u64);
                        let rel = (est.inverse_avg_degree - truth) / truth;
                        rel * rel
                    })
                    .sum::<f64>()
                    / reps as f64;
                se.sqrt()
            };
            ns.push(n as f64);
            errs.push(rms.max(1e-12));
            table.row_owned(vec![name.to_string(), n.to_string(), format_sig(rms, 5)]);
        }
        let fit = LogLogFit::fit(&ns, &errs);
        // regular graphs are exact at any n; only check the decay where
        // there is error to decay.
        if errs[0] > 1e-9 {
            exponent_ok &= (fit.exponent + 0.5).abs() < 0.15;
        }
    }
    table.note("paper: rms error ~ n^{-1/2} (Chebyshev on i.i.d. inverse degrees)");
    report.push_table(table);
    report.finding(format!(
        "error decay exponent is -1/2 (within 0.15) on irregular graphs: {}",
        if exponent_ok { "yes" } else { "NO" }
    ));

    // budget coverage
    let (eps, delta) = (0.1, 0.1);
    let mut cov = Table::new(
        "theorem31_budget",
        &["graph", "required_n", "coverage", "target"],
    );
    let mut cov_ok = true;
    for (name, g) in &graphs {
        let n = degree::required_samples(g, eps, delta, 1.0);
        let truth = 1.0 / g.avg_degree();
        let trials = effort.trials(40, 200);
        let hit = (0..trials)
            .filter(|&r| {
                let est = degree::estimate_avg_degree(g, n, seed ^ 0xD0 ^ (r << 7));
                (est.inverse_avg_degree - truth).abs() <= eps * truth
            })
            .count();
        let coverage = hit as f64 / trials as f64;
        cov_ok &= coverage >= 1.0 - delta;
        cov.row_owned(vec![
            name.to_string(),
            n.to_string(),
            format_sig(coverage, 3),
            format_sig(1.0 - delta, 3),
        ]);
    }
    cov.note("paper: n = deg_avg/(deg_min eps^2 delta) samples give coverage >= 1 - delta");
    report.push_table(cov);
    report.finding(format!(
        "Theorem 31 budget achieves >= 1 - delta coverage on all graphs: {}",
        if cov_ok { "yes" } else { "NO" }
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_validates_budget_and_rate() {
        let r = run(Effort::Quick, 37);
        assert!(r.findings[0].ends_with("yes"), "{}", r.findings[0]);
        assert!(r.findings[1].ends_with("yes"), "{}", r.findings[1]);
    }
}
