//! End-to-end tests of the application pipelines: network-size
//! estimation (Section 5.1), frequency estimation with noise (Sections
//! 5.2 and 6.1), and the ring-vs-torus contrast (Section 4).

use antdensity::core::noise::CollisionNoise;
use antdensity::engine::{EstimatorSpec, Scenario, TopologySpec};
use antdensity::graphs::{generators, spectral, Topology};
use antdensity::netsize::algorithm2::{Algorithm2, StartMode};
use antdensity::netsize::{burnin, degree, median, planner};
use rand::rngs::SmallRng;
use rand::SeedableRng;

#[test]
fn full_netsize_pipeline_from_seed_vertex() {
    // The realistic crawl: unknown graph, one seed profile. Estimate the
    // average degree, compute burn-in from measured lambda, plan (n, t),
    // run median-boosted Algorithm 2, land within 30%.
    let mut rng = SmallRng::seed_from_u64(0xF00D);
    let g = generators::barabasi_albert(1200, 3, &mut rng).expect("generation");
    let truth = g.num_nodes() as f64;

    let deg = degree::estimate_avg_degree(&g, 3000, 5);
    assert!((deg.avg_degree - g.avg_degree()).abs() / g.avg_degree() < 0.1);

    let lambda = spectral::walk_matrix_lambda(&g, 4000, &mut rng).lambda;
    assert!(lambda < 1.0, "BA graphs are non-bipartite and connected");
    let m = burnin::recommended_burnin(&g, 0.1, Some(lambda), 0.5);

    let plan = planner::plan_for_rounds(64, 3.0, g.num_edges(), g.num_nodes(), 0.25, 0.2, m, 1.0);
    let boosted = median::median_boosted(
        Algorithm2::new(plan.walks, plan.rounds),
        &g,
        deg.avg_degree,
        StartMode::SeedWithBurnin {
            seed_vertex: 0,
            steps: m,
        },
        9,
        0x9A9A,
    );
    let rel = (boosted.estimate - truth).abs() / truth;
    assert!(
        rel < 0.3,
        "pipeline estimate {} vs truth {truth} (rel {rel})",
        boosted.estimate
    );
    // query accounting is complete
    assert_eq!(
        boosted.queries.burnin,
        9 * plan.walks as u64 * m,
        "burn-in queries must be metered for every repetition"
    );
}

#[test]
fn netsize_works_across_graph_families() {
    let mut rng = SmallRng::seed_from_u64(0xFA11);
    let families: Vec<(&str, antdensity::graphs::CsrGraph)> = vec![
        (
            "regular",
            generators::random_regular(600, 6, 500, &mut rng).expect("regular"),
        ),
        (
            "smallworld",
            generators::watts_strogatz(600, 6, 0.3, &mut rng).expect("ws"),
        ),
        (
            "erdos",
            generators::erdos_renyi_connected(600, 0.02, 50, &mut rng).expect("er"),
        ),
    ];
    for (name, g) in families {
        let boosted = median::median_boosted(
            Algorithm2::new(150, 48),
            &g,
            g.avg_degree(),
            StartMode::Stationary,
            9,
            0xF0 ^ g.num_edges(),
        );
        let rel = (boosted.estimate - 600.0).abs() / 600.0;
        assert!(
            rel < 0.3,
            "{name}: estimate {} (rel {rel})",
            boosted.estimate
        );
    }
}

#[test]
fn frequency_pipeline_with_noise_correction() {
    // Property frequency estimation under a noisy sensor, corrected.
    let torus = TopologySpec::Torus2d { side: 16 }; // A = 256
    let num_agents = 65; // d = 0.25
    let d = 64.0 / 256.0;
    let noise = CollisionNoise::new(0.6, 0.0);
    let runs = 8;
    let mut raw = 0.0;
    let noisy = Scenario::new(torus, num_agents, 512).with_noise(noise);
    for s in 0..runs {
        raw += noisy.run(s).mean_estimate();
    }
    let raw_mean = raw / runs as f64;
    // raw concentrates on p*d
    assert!(
        (raw_mean - 0.6 * d).abs() < 0.02,
        "raw noisy mean {raw_mean} should be ~ {}",
        0.6 * d
    );
    let corrected = noise.correct(raw_mean);
    assert!(
        (corrected - d).abs() < 0.03,
        "corrected {corrected} should recover d = {d}"
    );

    // frequency ratio is noise-free even WITHOUT correction when both
    // counters share the sensor (the p cancels in the ratio). Verify with
    // the clean estimator as the reference.
    let freq: Vec<f64> = Scenario::new(torus, num_agents, 1024)
        .with_estimator(EstimatorSpec::RelativeFrequency {
            property_agents: 16,
        })
        .run(3)
        .frequencies()
        .into_iter()
        .flatten()
        .collect();
    assert!(!freq.is_empty(), "dense enough");
    let f = freq.iter().sum::<f64>() / freq.len() as f64;
    let truth = 16.0 / num_agents as f64;
    assert!((f - truth).abs() < 0.06, "frequency {f} vs truth {truth}");
}

#[test]
fn ring_needs_quadratically_more_rounds_than_torus() {
    // The operational consequence of Section 4.2: matching the torus'
    // accuracy on the ring takes far more rounds. Compare q90 errors at
    // equal budgets.
    let a = 1024u64;
    let agents = 129;
    let t = 512;
    let pool = |runs: std::ops::Range<u64>, topo: TopologySpec| -> f64 {
        let spec = Scenario::new(topo, agents, t);
        let errs: Vec<f64> = runs.flat_map(|s| spec.run(s).relative_errors()).collect();
        antdensity::stats::quantile::quantile(&errs, 0.9)
    };
    let ring_err = pool(0..5, TopologySpec::Ring { nodes: a });
    let torus_err = pool(0..5, TopologySpec::Torus2d { side: 32 });
    assert!(
        ring_err > 1.5 * torus_err,
        "ring q90 {ring_err} should clearly exceed torus q90 {torus_err}"
    );
}
