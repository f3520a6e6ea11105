//! E12 — Theorem 27 + Section 5.1.5: network-size estimation.
//!
//! Part A (Theorem 27): Algorithm 2, planned by Theorem 27 and boosted by
//! the median trick, recovers `|V|` within `(1±ε)` on expander,
//! preferential-attachment and small-world graphs.
//!
//! Part B (Section 5.1.5): on 3-dimensional tori, total link queries for
//! a fixed accuracy scale like `|V|^{(k+1)/2k} = |V|^{2/3}` for the
//! paper's algorithm versus `Θ(|V|^{2/k+1/2}) = |V|^{7/6}` for the
//! KLSC14 single-round baseline — the headline win of the application
//! section. We reproduce both exponents by sweeping the torus size with
//! burn-in charged to both methods.

use crate::report::{Effort, ExperimentReport};
use antdensity_graphs::{generators, spectral, CsrGraph, Topology, TorusKd};
use antdensity_netsize::algorithm2::{Algorithm2, StartMode};
use antdensity_netsize::katzir::Katzir;
use antdensity_netsize::{burnin, median, planner};
use antdensity_stats::regression::LogLogFit;
use antdensity_stats::table::{format_sig, Table};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Approximates the graph's re-collision sum `B(t)` by evolving the exact
/// self-collision series from a handful of stationary starts.
fn measured_b(graph: &CsrGraph, t: u64, starts: &[u64]) -> f64 {
    starts
        .iter()
        .map(|&s| {
            antdensity_core::recollision::exact_recollision_curve(graph, s, t)
                .iter()
                .sum::<f64>()
        })
        .fold(0.0, f64::max)
}

/// Runs E12.
pub fn run(effort: Effort, seed: u64) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "e12",
        "Theorem 27 + Section 5.1.5: size estimation accuracy and the |V|^(2/3) vs |V|^(7/6) query exponents",
    );

    // ---------- Part A: accuracy on diverse graphs ----------
    let v = effort.size(400, 1000);
    let (eps, delta) = (0.3, 0.2);
    let mut acc = Table::new(
        "netsize_accuracy",
        &[
            "graph",
            "V",
            "planned_n",
            "planned_t",
            "estimate",
            "rel_err",
            "within_eps",
        ],
    );
    let mut rng = SmallRng::seed_from_u64(seed);
    let graphs: Vec<(&str, CsrGraph)> = vec![
        (
            "regular8",
            generators::random_regular(v, 8, 500, &mut rng).expect("regular"),
        ),
        (
            "ba_m3",
            generators::barabasi_albert(v, 3, &mut rng).expect("ba"),
        ),
        (
            "ws_k6_b0.2",
            generators::watts_strogatz(v, 6, 0.2, &mut rng).expect("ws"),
        ),
    ];
    let mut all_within = true;
    for (name, g) in &graphs {
        let t = 64u64;
        let b = measured_b(g, t, &[0, v / 3, 2 * v / 3]);
        let plan = planner::plan_for_rounds(t, b, g.num_edges(), g.num_nodes(), eps, delta, 0, 1.0);
        let reps = median::repetitions_for(delta).min(11);
        let boosted = median::median_boosted(
            Algorithm2::new(plan.walks, plan.rounds),
            g,
            g.avg_degree(),
            StartMode::Stationary,
            reps,
            seed ^ g.num_edges(),
        );
        let rel = (boosted.estimate - v as f64).abs() / v as f64;
        let ok = rel <= eps;
        all_within &= ok;
        acc.row_owned(vec![
            name.to_string(),
            v.to_string(),
            plan.walks.to_string(),
            plan.rounds.to_string(),
            format_sig(boosted.estimate, 1),
            format_sig(rel, 3),
            if ok { "yes" } else { "NO" }.to_string(),
        ]);
    }
    acc.note("paper: Theorem 27's (n, t) yields a (1 +- eps) estimate whp (median-boosted)");
    report.push_table(acc);
    report.finding(format!(
        "Theorem 27 planning achieves (1 +- {eps}) size estimates on all three graph families: {}",
        if all_within { "yes" } else { "NO" }
    ));

    // ---------- Part B: 3-d torus query exponents ----------
    let sides: Vec<u64> = match effort {
        Effort::Quick => vec![5, 7, 9],
        Effort::Full => vec![5, 7, 9, 11, 13],
    };
    let mut qtable = Table::new(
        "torus3d_query_scaling",
        &[
            "V",
            "burnin_M",
            "ours_n",
            "ours_t",
            "ours_queries",
            "ours_err",
            "katzir_n",
            "katzir_queries",
            "katzir_err",
        ],
    );
    let mut vs = Vec::new();
    let mut ours_q = Vec::new();
    let mut katzir_q = Vec::new();
    for &side in &sides {
        // The torus as a simple graph with ascending neighbor lists: each
        // undirected edge once (odd sides >= 3 have no duplicate moves).
        let torus = TorusKd::new(3, side);
        let edges: Vec<(u64, u64)> = (0..torus.num_nodes())
            .flat_map(|v| {
                torus
                    .neighbors(v)
                    .filter(move |&u| v < u)
                    .map(move |u| (v, u))
            })
            .collect();
        let g = CsrGraph::from_edges(torus.num_nodes(), &edges).expect("odd-side 3-torus");
        let vol = g.num_nodes();
        let lambda = {
            let mut r = SmallRng::seed_from_u64(seed ^ side);
            spectral::walk_matrix_lambda(&g, 6000, &mut r).lambda
        };
        let m = burnin::recommended_burnin(&g, 0.1, Some(lambda), 0.5).max(4);
        // ours: t = Theta(M) (the paper's Section 5.1.5 choice).
        let t = m;
        let b = measured_b(&g, t.min(256), &[0]);
        let plan = planner::plan_for_rounds(t, b, g.num_edges(), vol, eps, delta, m, 1.0);
        let ours = median::median_boosted(
            Algorithm2::new(plan.walks, t),
            &g,
            g.avg_degree(),
            StartMode::SeedWithBurnin {
                seed_vertex: 0,
                steps: m,
            },
            5,
            seed ^ side ^ 0x0115,
        );
        let ours_queries = ours.queries.total();
        let ours_err = (ours.estimate - vol as f64).abs() / vol as f64;
        // Katzir: many walks, one counting round, burn-in each.
        let nk = Katzir::required_walks(&g, eps, delta, 1.0).max(2);
        let kat = median::median_boosted(
            Algorithm2::new(nk, 1),
            &g,
            g.avg_degree(),
            StartMode::SeedWithBurnin {
                seed_vertex: 0,
                steps: m,
            },
            5,
            seed ^ side ^ 0x0AA7,
        );
        let kat_queries = kat.queries.total();
        let kat_err = (kat.estimate - vol as f64).abs() / vol as f64;
        vs.push(vol as f64);
        ours_q.push(ours_queries as f64);
        katzir_q.push(kat_queries as f64);
        qtable.row_owned(vec![
            vol.to_string(),
            m.to_string(),
            plan.walks.to_string(),
            t.to_string(),
            ours_queries.to_string(),
            format_sig(ours_err, 3),
            nk.to_string(),
            kat_queries.to_string(),
            format_sig(kat_err, 3),
        ]);
    }
    qtable.note("paper (Section 5.1.5, k=3): ours ~ |V|^{2/3} queries, KLSC14 ~ |V|^{7/6}");
    report.push_table(qtable);

    let ours_fit = LogLogFit::fit(&vs, &ours_q);
    let kat_fit = LogLogFit::fit(&vs, &katzir_q);
    report.finding(format!(
        "query exponent vs |V|: ours {:.3} (paper ~0.67 + log factors), KLSC14 {:.3} (paper ~1.17) — ours scales strictly better: {}",
        ours_fit.exponent,
        kat_fit.exponent,
        if ours_fit.exponent < kat_fit.exponent { "yes" } else { "NO" }
    ));
    let last = vs.len() - 1;
    report.finding(format!(
        "at |V| = {}: ours used {} queries vs KLSC14 {} ({}x saving)",
        vs[last] as u64,
        ours_q[last] as u64,
        katzir_q[last] as u64,
        format_sig(katzir_q[last] / ours_q[last], 2),
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_ours_beats_katzir_scaling() {
        let r = run(Effort::Quick, 31);
        assert!(
            r.findings[1].ends_with("yes"),
            "scaling comparison failed: {}",
            r.findings[1]
        );
    }
}
