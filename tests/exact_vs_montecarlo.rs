//! Cross-validation: the Monte-Carlo simulation engine against the exact
//! distribution-evolution engine, on every topology family. If these two
//! independent implementations agree, both are almost certainly right.

use antdensity::core::recollision;
use antdensity::engine::pool::run_trials;
use antdensity::graphs::{dist, Hypercube, Ring, Topology, Torus2d, TorusKd};
use antdensity::stats::rng::SeedSequence;

fn mc_return_curve<T: Topology + Sync>(topo: &T, start: u64, t: u64, trials: u64) -> Vec<f64> {
    let seq = SeedSequence::new(0xC0FFEE);
    let results = run_trials(trials, 4, seq, |_, rng| {
        let mut v = start;
        let mut hits = vec![false; t as usize + 1];
        hits[0] = true;
        for m in 1..=t {
            v = topo.random_neighbor(v, rng);
            hits[m as usize] = v == start;
        }
        hits
    });
    let mut counts = vec![0u64; t as usize + 1];
    for h in &results {
        for (m, &hit) in h.iter().enumerate() {
            if hit {
                counts[m] += 1;
            }
        }
    }
    counts
        .into_iter()
        .map(|c| c as f64 / trials as f64)
        .collect()
}

#[test]
fn return_probabilities_agree_on_torus() {
    let topo = Torus2d::new(8);
    let t = 16;
    let exact = dist::return_probability_series(&topo, 0, t);
    let mc = mc_return_curve(&topo, 0, t, 60_000);
    for m in 0..=t as usize {
        assert!(
            (exact[m] - mc[m]).abs() < 0.01,
            "lag {m}: exact {} vs mc {}",
            exact[m],
            mc[m]
        );
    }
}

#[test]
fn recollision_agrees_on_ring() {
    let ring = Ring::new(64);
    let t = 24;
    let exact = dist::recollision_series(&ring, 0, t);
    let mc = recollision::mc_recollision_curve(&ring, 0, t, 60_000, 7, 4);
    for m in 0..=t as usize {
        assert!(
            (exact[m] - mc[m]).abs() < 0.012,
            "lag {m}: exact {} vs mc {}",
            exact[m],
            mc[m]
        );
    }
}

#[test]
fn recollision_agrees_on_hypercube() {
    let h = Hypercube::new(6);
    let t = 16;
    let exact = dist::recollision_series(&h, 0, t);
    let mc = recollision::mc_recollision_curve(&h, 0, t, 60_000, 9, 4);
    for m in 0..=t as usize {
        assert!(
            (exact[m] - mc[m]).abs() < 0.012,
            "lag {m}: exact {} vs mc {}",
            exact[m],
            mc[m]
        );
    }
}

#[test]
fn recollision_agrees_on_3d_torus() {
    let t3 = TorusKd::new(3, 5);
    let t = 12;
    let exact = dist::recollision_series(&t3, 0, t);
    let mc = recollision::mc_recollision_curve(&t3, 0, t, 60_000, 11, 4);
    for m in 0..=t as usize {
        assert!(
            (exact[m] - mc[m]).abs() < 0.012,
            "lag {m}: exact {} vs mc {}",
            exact[m],
            mc[m]
        );
    }
}

#[test]
fn visit_counts_match_expectation_from_distribution() {
    // E[visits to target] = sum over m of P[walk at target at m], with a
    // uniform start — equals t/A by stationarity. Check both identities.
    let topo = Torus2d::new(8);
    let a = topo.num_nodes() as f64;
    let t = 32u64;
    let trials = 80_000u64;
    let cm = recollision::visit_count_moments(&topo, 5, t, 1, trials, 0xBEEF, 4);
    let mc_mean = cm.center() + cm.moment(1);
    assert!(
        (mc_mean - t as f64 / a).abs() < 0.02,
        "mc mean {mc_mean} vs t/A {}",
        t as f64 / a
    );
}

#[test]
fn equalization_expectation_matches_exact_sum() {
    let topo = Torus2d::new(8);
    let t = 32u64;
    let exact_mean = recollision::expected_equalizations(&topo, 0, t);
    let trials = 80_000u64;
    let cm = recollision::equalization_moments(&topo, 0, t, 1, trials, 0xFACE, 4);
    let mc_mean = cm.center() + cm.moment(1);
    assert!(
        (mc_mean - exact_mean).abs() < 0.03,
        "mc {mc_mean} vs exact {exact_mean}"
    );
}
