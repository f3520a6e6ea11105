//! Golden vectors pinning `Scenario::run`'s exact outcomes across the
//! observer-pipeline refactor.
//!
//! The committed file `tests/golden/scenario_outcomes.txt` was generated
//! from the pre-observer (legacy match-arm) implementation of
//! `Scenario::run`, with every float serialized as its IEEE-754 bit
//! pattern. The streaming observer pipeline must reproduce each outcome
//! **bit for bit** — any drift in RNG stream layout, noise draw order,
//! estimator math, or snapshot bookkeeping fails here first.
//!
//! A second file, `tests/golden/lazy_outcomes.txt`, pins lazy-walk
//! (`lazy:p`) trajectories in the same format. It was generated before
//! the batched lazy kernel existed, so it proves that kernel draws the
//! same bits as the per-agent `step_slice` path it replaced.
//!
//! Regenerate (only when the determinism contract is *deliberately*
//! changed) with:
//!
//! ```text
//! cargo test -p antdensity-engine --test observer_golden -- --ignored regenerate
//! ```

use antdensity_engine::{
    EngineConfig, EstimatorSpec, MovementModel, NoiseSpec, Scenario, ScenarioOutcome, TopologySpec,
    WorkerPool,
};
use std::sync::Arc;

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/scenario_outcomes.txt"
);

const LAZY_GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/lazy_outcomes.txt"
);

const MAGIC: &str = "antdensity-observer-golden v1";

/// The pinned grid: every topology family the paper analyses × every
/// estimator × perfect and noisy sensing × two seeds. Algorithm 4 cases
/// off the 2-d torus are skipped (its Theorem 32 precondition), and its
/// torus runs use `rounds < side`.
fn cases() -> Vec<(String, Scenario, u64)> {
    let topologies = [
        TopologySpec::Torus2d { side: 8 },
        TopologySpec::Ring { nodes: 64 },
        TopologySpec::Hypercube { dims: 6 },
        TopologySpec::Complete { nodes: 64 },
    ];
    let estimators = [
        EstimatorSpec::Algorithm1,
        EstimatorSpec::Algorithm4,
        EstimatorSpec::Quorum { threshold: 0.1 },
        EstimatorSpec::RelativeFrequency { property_agents: 4 },
    ];
    let noises = [None, Some(NoiseSpec::new(0.8, 0.1))];
    let mut out = Vec::new();
    for topology in topologies {
        for estimator in &estimators {
            if matches!(estimator, EstimatorSpec::Algorithm4)
                && !matches!(topology, TopologySpec::Torus2d { .. })
            {
                continue;
            }
            let rounds = if matches!(estimator, EstimatorSpec::Algorithm4) {
                6 // < side = 8
            } else {
                16
            };
            for noise in noises {
                for seed in [1u64, 2] {
                    let mut scenario =
                        Scenario::new(topology, 12, rounds).with_estimator(estimator.clone());
                    if let Some(n) = noise {
                        scenario = scenario.with_noise(n);
                    }
                    let label = format!(
                        "{topology} agents 12 rounds {rounds} {estimator} noise {} seed {seed}",
                        noise.map_or("none".to_string(), |n| n.to_string()),
                    );
                    out.push((label, scenario, seed));
                }
            }
        }
    }
    out
}

/// The pinned lazy-walk grid: power-of-two spans (torus2d, ring,
/// hypercube:4) and other spans (hypercube:6, complete:100), populations
/// of 300 and 600 agents (both end in a partial 256-agent stream block),
/// and stay probabilities 0, 0.3 and 1.
fn lazy_cases() -> Vec<(String, Scenario, u64)> {
    let topologies = [
        TopologySpec::Torus2d { side: 16 },
        TopologySpec::Ring { nodes: 512 },
        TopologySpec::Hypercube { dims: 4 },
        TopologySpec::Hypercube { dims: 6 },
        TopologySpec::Complete { nodes: 100 },
    ];
    let mut out = Vec::new();
    for topology in topologies {
        for agents in [300usize, 600] {
            for stay_prob in [0.0, 0.3, 1.0] {
                let movement = MovementModel::lazy(stay_prob);
                let scenario = Scenario::new(topology, agents, 12).with_movement(movement.clone());
                let label = format!("{topology} agents {agents} rounds 12 {movement} seed 3");
                out.push((label, scenario, 3));
            }
        }
    }
    out
}

/// Runs every lazy case on `threads` workers. With more than one thread
/// the engine is forced onto a private pool of that size (no inline
/// fallback), so the per-block streams really are split across workers.
fn render_lazy(threads: usize) -> String {
    let mut text = format!("{MAGIC}\n");
    for (label, scenario, seed) in lazy_cases() {
        let scenario = if threads > 1 {
            scenario
                .with_threads(threads)
                .with_worker_pool(Arc::new(WorkerPool::new(threads)))
                .with_engine_config(EngineConfig {
                    min_chunks_per_worker: 1,
                    inline_step_threshold: 0,
                    ..EngineConfig::default()
                })
        } else {
            scenario
        };
        text.push_str(&render(&label, &scenario.run(seed)));
    }
    text
}

fn hex(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

fn hex_list(vs: &[f64]) -> String {
    vs.iter().map(|&v| hex(v)).collect::<Vec<_>>().join(" ")
}

fn bit_list(vs: &[bool]) -> String {
    vs.iter().map(|&b| if b { '1' } else { '0' }).collect()
}

/// Serializes one outcome exactly (floats as bit patterns) so golden
/// comparison is a string equality with readable diffs.
fn render(label: &str, outcome: &ScenarioOutcome) -> String {
    let mut s = format!("case {label}\n");
    s.push_str(&format!("rounds {}\n", outcome.rounds));
    s.push_str(&format!("true_density {}\n", hex(outcome.true_density)));
    s.push_str(&format!("estimates {}\n", hex_list(&outcome.estimates)));
    s.push_str(&format!(
        "counts {}\n",
        outcome
            .collision_counts
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(" ")
    ));
    s.push_str(&format!(
        "property {}\n",
        outcome
            .property_estimates
            .as_deref()
            .map_or("-".to_string(), hex_list)
    ));
    s.push_str(&format!(
        "decisions {}\n",
        outcome
            .quorum_decisions
            .as_deref()
            .map_or("-".to_string(), bit_list)
    ));
    s.push_str(&format!(
        "walking {}\n",
        outcome.walking.as_deref().map_or("-".to_string(), bit_list)
    ));
    s.push_str("end\n");
    s
}

fn render_all() -> String {
    let mut text = format!("{MAGIC}\n");
    for (label, scenario, seed) in cases() {
        text.push_str(&render(&label, &scenario.run(seed)));
    }
    text
}

#[test]
fn scenario_outcomes_match_committed_golden_vectors() {
    // Run the whole grid with telemetry AND trace capture fully on:
    // the golden match below proves instrumentation observes without
    // influencing a single bit (the determinism guarantee of
    // `antdensity-telemetry`).
    antdensity_telemetry::set_enabled(true);
    antdensity_telemetry::set_tracing(true);
    let golden = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden file missing — run the ignored `regenerate` test and commit the output");
    let current = render_all();
    antdensity_telemetry::set_tracing(false);
    antdensity_telemetry::set_enabled(false);
    assert!(
        antdensity_telemetry::snapshot().counter("engine.rounds") > 0,
        "telemetry was live during the golden run"
    );
    assert!(
        !antdensity_telemetry::take_trace().is_empty(),
        "trace capture was live during the golden run"
    );
    assert_matches_golden(&golden, &current, "");
}

/// Compares `current` with `golden` case by case for a readable
/// failure, then as whole texts. `context` is appended to the drift
/// message.
fn assert_matches_golden(golden: &str, current: &str, context: &str) {
    let golden_cases: Vec<&str> = golden.split("case ").skip(1).collect();
    let current_cases: Vec<&str> = current.split("case ").skip(1).collect();
    assert_eq!(
        golden_cases.len(),
        current_cases.len(),
        "case grid changed — regenerate the golden file deliberately"
    );
    for (g, c) in golden_cases.iter().zip(&current_cases) {
        assert_eq!(
            g,
            c,
            "outcome drifted from the golden vector for `case {}`{context}",
            g.lines().next().unwrap_or("?")
        );
    }
    assert_eq!(golden, current);
}

#[test]
fn lazy_outcomes_match_committed_golden_vectors() {
    let golden = std::fs::read_to_string(LAZY_GOLDEN_PATH).expect(
        "lazy golden file missing — run the ignored `regenerate` test and commit the output",
    );
    for threads in [1, 2] {
        let current = render_lazy(threads);
        assert_matches_golden(&golden, &current, &format!(" on {threads} threads"));
    }
}

/// Regenerates the golden files from the current implementation. Kept
/// `#[ignore]`d: running it is a *deliberate* decision to re-pin the
/// determinism contract.
#[test]
#[ignore = "rewrites the golden vectors; run only to deliberately re-pin"]
fn regenerate() {
    let path = std::path::Path::new(GOLDEN_PATH);
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    std::fs::write(path, render_all()).unwrap();
    std::fs::write(LAZY_GOLDEN_PATH, render_lazy(1)).unwrap();
}
