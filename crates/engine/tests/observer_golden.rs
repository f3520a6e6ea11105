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
//! A third file, `tests/golden/input_outcomes.txt`, pins the scenario
//! inputs beyond the spec grammar: explicit start positions (spread and
//! stacked), two disjoint groups, and a run stopped early by its
//! observer. Group and early-stop cases render the returned
//! [`EncounterTallies`] (`group g` lines are encounters with group `g`).
//!
//! Regenerate (only when the determinism contract is *deliberately*
//! changed) with:
//!
//! ```text
//! cargo test -p antdensity-engine --test observer_golden -- --ignored regenerate
//! ```

use antdensity_engine::{
    Alg1Observer, EncounterTallies, EstimatorSpec, MovementModel, NoiseSpec, Observer, RoundEvents,
    Scenario, ScenarioOutcome, TopologySpec,
};

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/scenario_outcomes.txt"
);

const LAZY_GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/lazy_outcomes.txt"
);

const INPUT_GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/input_outcomes.txt"
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

fn render_lazy() -> String {
    let mut text = format!("{MAGIC}\n");
    for (label, scenario, seed) in lazy_cases() {
        text.push_str(&render(&label, &scenario.run(seed)));
    }
    text
}

/// Stops the run at the first round after which some agent has met
/// others `at_least` times in total.
struct StopAtTotal {
    at_least: u64,
    totals: Vec<u64>,
}

impl Observer for StopAtTotal {
    fn on_round(&mut self, ev: &RoundEvents<'_>) {
        self.totals.resize(ev.counts.len(), 0);
        for (t, &c) in self.totals.iter_mut().zip(ev.counts) {
            *t += u64::from(c);
        }
    }

    fn done(&self) -> bool {
        self.totals.iter().any(|&t| t >= self.at_least)
    }

    fn snapshot(&self, tallies: &EncounterTallies, true_density: f64) -> ScenarioOutcome {
        Alg1Observer.snapshot(tallies, true_density)
    }
}

fn render_tallies(label: &str, tallies: &EncounterTallies) -> String {
    let join = |vs: &[u64]| vs.iter().map(u64::to_string).collect::<Vec<_>>().join(" ");
    let mut s = format!("case {label}\n");
    s.push_str(&format!("rounds {}\n", tallies.rounds()));
    s.push_str(&format!("counts {}\n", join(tallies.totals())));
    let n = tallies.totals().len();
    for (g, row) in tallies
        .group_totals()
        .unwrap_or_default()
        .chunks_exact(n)
        .enumerate()
    {
        s.push_str(&format!("group {g} {}\n", join(row)));
    }
    s.push_str("end\n");
    s
}

/// The pinned input grid: spread and stacked explicit starts (the
/// stacked drifters meet each other every round), two groups with and
/// without noise, and an early stop.
fn render_inputs() -> String {
    let torus = TopologySpec::Torus2d { side: 8 };
    let spread: Vec<u64> = (0..12).map(|a| a * 5 % 64).collect();
    let mut text = format!("{MAGIC}\n");
    for (label, scenario) in [
        (
            "torus2d:8 agents 12 rounds 16 alg1 positions a*5%64 seed 1",
            Scenario::new(torus, 12, 16).with_positions(spread),
        ),
        (
            "torus2d:8 agents 6 rounds 6 drift:2 positions stacked@9 seed 1",
            Scenario::new(torus, 6, 6)
                .with_movement(MovementModel::Drift { move_index: 2 })
                .with_positions(vec![9; 6]),
        ),
        (
            "ring:64 agents 8 rounds 16 alg1 positions stacked@0 seed 1",
            Scenario::new(TopologySpec::Ring { nodes: 64 }, 8, 16).with_positions(vec![0; 8]),
        ),
    ] {
        text.push_str(&render(label, &scenario.run(1)));
    }
    let groups = Scenario::new(torus, 12, 16).with_groups(&[3, 4]);
    for (label, scenario) in [
        (
            "torus2d:8 agents 12 rounds 16 groups 3,4 seed 1",
            groups.clone(),
        ),
        (
            "torus2d:8 agents 12 rounds 16 groups 3,4 noise sense:0.8:0.1 seed 1",
            groups.with_noise(NoiseSpec::new(0.8, 0.1)),
        ),
    ] {
        text.push_str(&render_tallies(
            label,
            &scenario.run_observed(1, &mut Alg1Observer),
        ));
    }
    let mut stop = StopAtTotal {
        at_least: 3,
        totals: Vec::new(),
    };
    let stopped = Scenario::new(torus, 12, 16).run_observed(1, &mut stop);
    text.push_str(&render_tallies(
        "torus2d:8 agents 12 rounds 16 stop-at-total 3 seed 1",
        &stopped,
    ));
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

/// The tests that switch the process-global telemetry flags hold this,
/// so one does not switch them under the other.
static TELEMETRY_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[test]
fn scenario_outcomes_match_committed_golden_vectors() {
    let _g = TELEMETRY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
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
    assert_matches_golden(&golden, &current);
}

#[test]
fn scenario_outcomes_match_golden_vectors_with_sampled_round_timing() {
    let _g = TELEMETRY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // Telemetry on and trace capture off: the engines time only one
    // round in 16 and count the others, a path the traced run above
    // never takes. It too must leave every bit as it is.
    let golden = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden file missing — run the ignored `regenerate` test and commit the output");
    let rounds_before = antdensity_telemetry::snapshot().counter("engine.rounds");
    antdensity_telemetry::set_enabled(true);
    let current = render_all();
    antdensity_telemetry::set_enabled(false);
    assert!(
        antdensity_telemetry::snapshot().counter("engine.rounds") > rounds_before,
        "telemetry was live during the golden run"
    );
    assert_matches_golden(&golden, &current);
}

/// Compares `current` with `golden` case by case for a readable
/// failure, then as whole texts.
fn assert_matches_golden(golden: &str, current: &str) {
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
            "outcome drifted from the golden vector for `case {}`",
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
    assert_matches_golden(&golden, &render_lazy());
}

#[test]
fn input_outcomes_match_committed_golden_vectors() {
    let golden = std::fs::read_to_string(INPUT_GOLDEN_PATH).expect(
        "input golden file missing — run the ignored `regenerate` test and commit the output",
    );
    assert_matches_golden(&golden, &render_inputs());
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
    std::fs::write(LAZY_GOLDEN_PATH, render_lazy()).unwrap();
    std::fs::write(INPUT_GOLDEN_PATH, render_inputs()).unwrap();
}
