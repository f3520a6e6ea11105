//! End-to-end validation of the paper's headline result (Theorem 1) and
//! its companions, across crates: graphs + walks + core + stats.

use antdensity::core::baseline::IidBaseline;
use antdensity::core::theory::TopologyClass;
use antdensity::engine::{Scenario, TopologySpec};
use antdensity::stats::quantile;

/// Pools relative errors of all agents over several seeds.
fn pooled_errors(
    topo: TopologySpec,
    agents: usize,
    t: u64,
    seeds: std::ops::Range<u64>,
) -> Vec<f64> {
    let spec = Scenario::new(topo, agents, t);
    seeds.flat_map(|s| spec.run(s).relative_errors()).collect()
}

#[test]
fn theorem1_band_covers_90_percent() {
    // d = 0.125 on a 32x32 torus, t = 1024, delta = 0.1: the q90 error
    // must be below the Theorem 1 epsilon with a modest constant.
    let torus = TopologySpec::Torus2d { side: 32 };
    let agents = 129; // d = 128/1024 = 0.125
    let d = 0.125;
    let t = 1024;
    let errs = pooled_errors(torus, agents, t, 0..6);
    let q90 = quantile::quantile(&errs, 0.9);
    let bound_c1 = antdensity::stats::bounds::theorem1_epsilon(t, d, 0.1, 1.0);
    assert!(
        q90 <= bound_c1,
        "q90 error {q90} should sit below the c1 = 1 Theorem 1 bound {bound_c1}"
    );
    // and the bound is not vacuous: the error is within a factor ~10
    assert!(
        q90 > bound_c1 / 30.0,
        "bound should be in the right ballpark"
    );
}

#[test]
fn error_decays_with_time_at_sqrt_rate_modulo_log() {
    let torus = TopologySpec::Torus2d { side: 32 };
    let agents = 129;
    let q90_at = |t: u64| {
        let errs = pooled_errors(torus, agents, t, 10..14);
        quantile::quantile(&errs, 0.9)
    };
    let e_256 = q90_at(256);
    let e_4096 = q90_at(4096);
    // 16x more rounds: sqrt factor alone gives 4x; the log ratio
    // log(8192)/log(512) ~ 1.44 shaves it to ~2.8x. Accept [2, 6].
    let improvement = e_256 / e_4096;
    assert!(
        (2.0..=6.5).contains(&improvement),
        "error improvement over 16x rounds was {improvement}"
    );
}

#[test]
fn torus_within_log_factor_of_iid_baseline() {
    // Section 1.1 "nearly matches": at the same (A, d, t) the torus q90
    // error is within ~log(2t) of the complete-graph/i.i.d. error.
    let torus = TopologySpec::Torus2d { side: 32 };
    let a = torus.num_nodes();
    let agents = 129;
    let t = 512;
    let torus_q90 = quantile::quantile(&pooled_errors(torus, agents, t, 20..24), 0.9);
    let iid = IidBaseline::new(agents as u64 - 1, a, t).run(2000, 99);
    let iid_q90 = quantile::quantile(&iid.relative_errors(), 0.9);
    let gap = torus_q90 / iid_q90;
    let log2t = (2.0 * t as f64).ln();
    assert!(
        gap <= log2t,
        "torus/iid error gap {gap} should not exceed log(2t) = {log2t}"
    );
    assert!(gap >= 0.8, "torus cannot beat i.i.d. sampling: gap {gap}");
}

#[test]
fn theory_planner_rounds_suffice_empirically() {
    // Ask the theory module for a round budget, run it, verify coverage.
    // Theorem 1 requires t <= A, so the planner domain is capped at A —
    // which also means the torus must be large enough for the requested
    // accuracy to be reachable at all (side 32 is not; side 128 is).
    let torus = TopologySpec::Torus2d { side: 128 }; // A = 16384
    let a = torus.num_nodes();
    let d = 0.125;
    let agents = (d * a as f64) as usize + 1; // 2049
    let class = TopologyClass::Torus2d { nodes: a };
    let (eps, delta) = (0.5, 0.1);
    let t = class
        .rounds_for(eps, delta, d, a)
        .expect("torus budget must exist within t <= A");
    let errs = pooled_errors(torus, agents, t, 30..32);
    let within = errs.iter().filter(|&&e| e <= eps).count() as f64 / errs.len() as f64;
    assert!(
        within >= 1.0 - delta,
        "planned t = {t} gave only {within} coverage at eps = {eps}"
    );
}

#[test]
fn union_bound_all_agents_simultaneously() {
    // The paper's remark after Theorem 1: with delta' = delta/n, ALL n
    // agents are accurate simultaneously whp. Check on a healthy config.
    let torus = TopologySpec::Torus2d { side: 16 }; // A = 256
    let agents = 65; // d = 0.25
    let t = 4096;
    let mut bad_runs = 0;
    let runs = 5;
    for s in 40..40 + runs {
        let run = Scenario::new(torus, agents, t).run(s);
        // every agent within 50%?
        if run.fraction_within(0.5) < 1.0 {
            bad_runs += 1;
        }
    }
    assert!(
        bad_runs <= 1,
        "{bad_runs}/{runs} runs had some agent outside the 50% band at t = {t}"
    );
}
