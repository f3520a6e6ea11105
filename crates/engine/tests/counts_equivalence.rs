//! The count-based stepping equivalence contract.
//!
//! [`CountsEngine`] collapses agents into per-node occupancy counts, so
//! it cannot (and does not) reproduce the agent engine's bit streams.
//! What it guarantees instead is **distributional** equivalence: a
//! uniform multinomial split of a node's count is exactly the law of
//! that many independent pure-walk draws, so every statistic of the
//! occupancy process — stationary visit distributions, estimator error
//! curves — agrees with the agent-level engine. These tests pin that
//! contract the same way `csr_equivalence.rs` pins the CSR chain
//! against the native one: statistically, across unrelated seeds.
//!
//! Determinism, by contrast, is still exact: for a fixed seed the
//! counts trajectory is bit-identical across thread counts and
//! schedules, and pinned by a golden table.

use antdensity_engine::counts::SMALL_COUNT_MAX;
use antdensity_engine::{CountsEngine, Engine, EstimatorSpec, NoiseSpec, Scenario, TopologySpec};
use antdensity_graphs::{Ring, Topology, Torus2d};
use antdensity_stats::rng::SeedSequence;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::BTreeMap;

/// Time-averaged per-node visit distribution of a counts run.
fn counts_visit_distribution<T: Topology + Sync>(topo: T, agents: u64, seed: u64) -> Vec<f64> {
    let nodes = topo.num_nodes() as usize;
    let rounds = 1500u64;
    let mut engine = CountsEngine::new(topo, agents).with_seed_sequence(SeedSequence::new(seed));
    engine.place_uniform(&SeedSequence::new(seed ^ 0x9e37));
    let mut visits = vec![0u64; nodes];
    for _ in 0..rounds {
        engine.step_round();
        for (v, &c) in engine.counts().iter().enumerate() {
            visits[v] += c;
        }
    }
    let total = (agents * rounds) as f64;
    visits.iter().map(|&v| v as f64 / total).collect()
}

/// Same statistic from the agent-level engine (an independent seed).
fn agent_visit_distribution<T: Topology>(topo: T, agents: usize, seed: u64) -> Vec<f64> {
    let nodes = topo.num_nodes() as usize;
    let rounds = 1500u64;
    let mut engine = Engine::new(topo, agents);
    let mut rng = SmallRng::seed_from_u64(seed);
    engine.place_uniform(&mut rng);
    let mut visits = vec![0u64; nodes];
    for _ in 0..rounds {
        engine.step_round(&mut rng);
        for (_, p) in engine.agent_positions() {
            visits[p as usize] += 1;
        }
    }
    let total = (agents as u64 * rounds) as f64;
    visits.iter().map(|&v| v as f64 / total).collect()
}

/// Stationary occupancy of the counts walk matches the agent walk on
/// the same chain — L1-close across unrelated seeds, and both near the
/// uniform stationary distribution of these regular topologies.
#[test]
fn counts_stationary_occupancy_matches_agent_engine() {
    let counts = counts_visit_distribution(Ring::new(16), 64, 1);
    let agent = agent_visit_distribution(Ring::new(16), 64, 2);
    let l1: f64 = counts.iter().zip(&agent).map(|(a, b)| (a - b).abs()).sum();
    assert!(l1 < 0.10, "ring visit distributions differ: L1 = {l1}");
    let uniform = 1.0 / 16.0;
    for (label, dist) in [("counts", &counts), ("agent", &agent)] {
        let worst = dist
            .iter()
            .map(|p| (p - uniform).abs() / uniform)
            .fold(0.0f64, f64::max);
        assert!(
            worst < 0.25,
            "{label} ring occupancy far from uniform: {worst}"
        );
    }

    let counts = counts_visit_distribution(Torus2d::new(6), 64, 3);
    let agent = agent_visit_distribution(Torus2d::new(6), 64, 4);
    let l1: f64 = counts.iter().zip(&agent).map(|(a, b)| (a - b).abs()).sum();
    assert!(l1 < 0.10, "torus visit distributions differ: L1 = {l1}");
}

/// The Algorithm 1 population-mean estimate from the counts path has the
/// same center as the agent path's: both grand means sit on the true
/// density, and on each other, across independent trials.
#[test]
fn counts_mean_estimate_matches_agent_path_distributionally() {
    let spec = Scenario::new(TopologySpec::Torus2d { side: 16 }, 33, 128);
    let trials = 24u64;
    let mut counts_grand = 0.0;
    let mut agent_grand = 0.0;
    for seed in 0..trials {
        let c = spec.run_counts(seed);
        assert_eq!(c.rounds, 128);
        assert_eq!(c.num_agents, 33);
        counts_grand += c.mean_estimate;
        agent_grand += spec.run(seed).mean_estimate();
    }
    let d = spec.true_density();
    let counts_mean = counts_grand / trials as f64;
    let agent_mean = agent_grand / trials as f64;
    assert!(
        (counts_mean - d).abs() < 0.015,
        "counts grand mean {counts_mean} vs true density {d}"
    );
    assert!(
        (counts_mean - agent_mean).abs() < 0.02,
        "paths disagree: counts {counts_mean}, agent {agent_mean}"
    );
}

/// For one seed the counts outcome is exact: identical across repeats
/// and across thread counts (block streams are fixed per round; workers
/// merge by exact addition).
#[test]
fn counts_outcome_is_deterministic_and_thread_invariant() {
    let spec = Scenario::new(TopologySpec::Torus2d { side: 64 }, 40_000, 24);
    let reference = spec.run_counts(7);
    assert_eq!(spec.run_counts(7), reference, "same seed must repeat");
    for threads in [2usize, 3, 8] {
        let outcome = spec.clone().with_threads(threads).run_counts(7);
        assert_eq!(outcome, reference, "threads {threads} changed the outcome");
    }
}

/// Scheduled snapshots are prefixes of one trajectory: the checkpoint at
/// `t` equals a dedicated `rounds = t` run with the same seed, because
/// round streams are derived per round (a shorter run draws a strict
/// prefix of a longer one).
#[test]
fn counts_scheduled_snapshots_are_run_prefixes() {
    let long = Scenario::new(TopologySpec::Torus2d { side: 16 }, 500, 64);
    let snapshots = long.run_counts_scheduled(11, &[16, 64]);
    assert_eq!(snapshots.len(), 2);
    let short = Scenario::new(TopologySpec::Torus2d { side: 16 }, 500, 16);
    assert_eq!(snapshots[0], short.run_counts(11));
    assert_eq!(snapshots[1], long.run_counts(11));
}

/// Eligibility: exactly the scenarios whose population state is a pure
/// function of occupancy counts qualify.
#[test]
fn counts_compatibility_predicate() {
    let base = Scenario::new(TopologySpec::Torus2d { side: 8 }, 20, 16);
    assert!(base.counts_compatible());
    assert!(Scenario::new(
        TopologySpec::CsrRegular {
            nodes: 64,
            degree: 6
        },
        20,
        16
    )
    .counts_compatible());
    assert!(!base.clone().with_avoidance(0.5).counts_compatible());
    assert!(!base.clone().with_flee().counts_compatible());
    assert!(!base
        .clone()
        .with_movement(antdensity_engine::MovementModel::lazy(0.3))
        .counts_compatible());
    assert!(!base
        .clone()
        .with_noise(NoiseSpec::new(0.8, 0.1))
        .counts_compatible());
    assert!(!base
        .clone()
        .with_estimator(EstimatorSpec::Quorum { threshold: 0.1 })
        .counts_compatible());
    assert!(!Scenario::new(TopologySpec::Complete { nodes: 64 }, 20, 16).counts_compatible());
}

/// Incompatible scenarios are rejected loudly, not silently degraded.
#[test]
#[should_panic(expected = "count-based stepping needs")]
fn counts_rejects_incompatible_scenarios() {
    Scenario::new(TopologySpec::Torus2d { side: 8 }, 20, 16)
        .with_flee()
        .run_counts(1);
}

/// Upper `α = 1e-4` critical value of χ² with `df` degrees of freedom
/// (Wilson–Hilferty; z = 3.719). Seeds are fixed, so a pass is stable.
fn chi2_critical(df: usize) -> f64 {
    let k = df as f64;
    let a = 2.0 / (9.0 * k);
    k * (1.0 - a + 3.719 * a.sqrt()).powi(3)
}

/// Exact Multinomial(c; 1/d, …, 1/d) probability of `split`.
fn uniform_multinomial_pmf(split: &[u64]) -> f64 {
    let d = split.len() as f64;
    let c: u64 = split.iter().sum();
    let ln_fact = |n: u64| (1..=n).map(|k| (k as f64).ln()).sum::<f64>();
    let ln_p = ln_fact(c) - split.iter().map(|&k| ln_fact(k)).sum::<f64>() - c as f64 * d.ln();
    ln_p.exp()
}

/// Every way to split `c` agents over `d` neighbors.
fn compositions(c: u64, d: usize) -> Vec<Vec<u64>> {
    if d == 1 {
        return vec![vec![c]];
    }
    (0..=c)
        .flat_map(|k| {
            compositions(c - k, d - 1).into_iter().map(move |mut rest| {
                rest.insert(0, k);
                rest
            })
        })
        .collect()
}

/// The per-neighbor split of one node's count follows the exact uniform
/// multinomial, on both samplers: χ² goodness of fit of the joint split
/// over independent seeds, at `c ∈ {1, 2, 5, SMALL_COUNT_MAX}` (staged
/// per-agent draws) and `SMALL_COUNT_MAX + 1` (the multinomial chain).
/// Outcomes expected fewer than five times pool into one cell.
#[test]
fn per_node_split_matches_the_exact_multinomial() {
    let torus = Torus2d::new(8);
    let node = torus.node(3, 5);
    let neighbors: Vec<usize> = (0..4).map(|i| torus.neighbor(node, i) as usize).collect();
    let samples = 20_000u64;
    for c in [1, 2, 5, SMALL_COUNT_MAX, SMALL_COUNT_MAX + 1] {
        let mut observed: BTreeMap<Vec<u64>, u64> = BTreeMap::new();
        for seed in 0..samples {
            let mut engine =
                CountsEngine::new(torus, 0).with_seed_sequence(SeedSequence::new(seed));
            let mut counts = vec![0u64; 64];
            counts[node as usize] = c;
            engine.set_counts(&counts);
            engine.step_round();
            let split: Vec<u64> = neighbors.iter().map(|&v| engine.counts()[v]).collect();
            assert_eq!(
                split.iter().sum::<u64>(),
                c,
                "c = {c}: agents left the neighborhood"
            );
            *observed.entry(split).or_default() += 1;
        }
        let (mut stat, mut df) = (0.0, 0usize);
        let (mut pooled_obs, mut pooled_exp) = (0.0, 0.0);
        for split in compositions(c, 4) {
            let expected = uniform_multinomial_pmf(&split) * samples as f64;
            let obs = observed.get(&split).copied().unwrap_or(0) as f64;
            if expected < 5.0 {
                pooled_obs += obs;
                pooled_exp += expected;
            } else {
                stat += (obs - expected).powi(2) / expected;
                df += 1;
            }
        }
        if pooled_exp >= 5.0 {
            stat += (pooled_obs - pooled_exp).powi(2) / pooled_exp;
            df += 1;
        }
        let df = df - 1;
        let critical = chi2_critical(df);
        assert!(
            stat < critical,
            "c = {c}: χ² = {stat:.1} over {df} df exceeds {critical:.1}"
        );
    }
}

/// Two-sample Kolmogorov–Smirnov statistic `sup |F_a − F_b|`.
fn ks_statistic(mut a: Vec<f64>, mut b: Vec<f64>) -> f64 {
    a.sort_by(f64::total_cmp);
    b.sort_by(f64::total_cmp);
    let (mut i, mut j, mut d) = (0usize, 0usize, 0.0f64);
    while i < a.len() && j < b.len() {
        let x = a[i].min(b[j]);
        while i < a.len() && a[i] <= x {
            i += 1;
        }
        while j < b.len() && b[j] <= x {
            j += 1;
        }
        d = d.max((i as f64 / a.len() as f64 - j as f64 / b.len() as f64).abs());
    }
    d
}

/// What users read: the per-trial Algorithm 1 mean estimate. The counts
/// path and the agent path draw it from one law, at the paper's sparse
/// density (d = 0.25, almost every node staged) and at d = 1 — a
/// two-sample KS test over independent seeds.
#[test]
fn counts_estimates_match_agent_estimates_in_law() {
    let trials = 300u64;
    for agents in [65usize, 257] {
        let spec = Scenario::new(TopologySpec::Torus2d { side: 16 }, agents, 24);
        let counts: Vec<f64> = (0..trials)
            .map(|seed| spec.run_counts(seed).mean_estimate)
            .collect();
        let agent: Vec<f64> = (0..trials)
            .map(|seed| spec.run(10_000 + seed).mean_estimate())
            .collect();
        let d = ks_statistic(counts, agent);
        // α = 1e-3: c(α) = 1.949, scaled by √((n + m) / nm).
        let critical = 1.949 * (2.0 / trials as f64).sqrt();
        assert!(
            d < critical,
            "density {}: KS D = {d:.3} exceeds {critical:.3}",
            spec.true_density()
        );
    }
}

/// The pinned trajectories of the sampler version in
/// `COUNTS_SAMPLER_VERSION`: cumulative encounter tallies at each
/// checkpoint, on a regular torus, a ring and an irregular CSR graph,
/// at densities that use the staged sampler, the multinomial one, or
/// both; each graph spans two stream blocks, so two threads take the
/// parallel path. A change that moves these bits must bump the version
/// (it orphans sweep checkpoints and cached shards) and re-pin here.
#[test]
fn counts_scheduled_outcomes_are_pinned() {
    let cases: [(&str, usize, [u128; 3]); 5] = [
        ("torus2d:40", 401, [80, 710, 3_836]),
        ("torus2d:40", 40_000, [999_462, 8_002_400, 39_993_042]),
        ("ring:1500", 1_500, [1_458, 12_124, 59_282]),
        ("ring:1500", 30_000, [598_422, 4_795_084, 23_977_128]),
        ("csr:grid-holes:40:3:0.2", 320, [68, 654, 3_450]),
    ];
    let checkpoints = [1u64, 8, 40];
    for (topology, agents, expected) in cases {
        let topology: TopologySpec = topology.parse().unwrap();
        let spec = Scenario::new(topology, agents, 40);
        for threads in [1usize, 2] {
            let outcomes = spec
                .clone()
                .with_threads(threads)
                .run_counts_scheduled(2016, &checkpoints);
            let got: Vec<u128> = outcomes.iter().map(|o| o.total_encounters).collect();
            assert_eq!(
                got, expected,
                "{topology} agents {agents} threads {threads}"
            );
            for (o, &t) in outcomes.iter().zip(&checkpoints) {
                assert_eq!(o.rounds, t);
                assert_eq!(o.num_agents, agents as u64);
            }
        }
    }
}
