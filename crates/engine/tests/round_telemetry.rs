//! Round telemetry totals: with telemetry on, every stepped round lands
//! in the process-global registry exactly once, whichever kernel
//! stepped it.
//!
//! The registry is process-global, so this binary holds only these
//! tests and each one takes [`LOCK`]: the deltas between two snapshots
//! are then exactly what the test's own engines added.

use antdensity_engine::{Engine, MovementModel, Scenario, TopologySpec};
use antdensity_stats::rng::SeedSequence;
use antdensity_telemetry as telemetry;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::{Mutex, MutexGuard};

static LOCK: Mutex<()> = Mutex::new(());

const ROUNDS: u64 = 24;
const AGENTS: usize = 300;

/// The metrics one engine kind reports per round.
const ENGINE_SPANS: [&str; 4] = [
    "engine.round",
    "engine.rng_draw",
    "engine.apply_moves",
    "engine.occupancy_rebuild",
];

/// Takes the binary-wide lock and turns telemetry on; trace capture
/// stays off unless a test turns it on.
fn live() -> MutexGuard<'static, ()> {
    let guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    telemetry::set_enabled(true);
    guard
}

/// Counter values and histogram counts of the named metrics.
fn totals(counters: &[&str], spans: &[&str]) -> Vec<u64> {
    let snap = telemetry::snapshot();
    counters
        .iter()
        .map(|c| snap.counter(c))
        .chain(
            spans
                .iter()
                .map(|s| snap.histogram(s).map_or(0, |h| h.count)),
        )
        .collect()
}

/// What running `f` adds to `engine.rounds`, `engine.agent_steps` and
/// the four engine span counts, in that order.
fn engine_delta(f: impl FnOnce()) -> Vec<u64> {
    let counters = ["engine.rounds", "engine.agent_steps"];
    let before = totals(&counters, &ENGINE_SPANS);
    f();
    let after = totals(&counters, &ENGINE_SPANS);
    after.iter().zip(&before).map(|(a, b)| a - b).collect()
}

/// A [`ROUNDS`]-round, [`AGENTS`]-agent Algorithm 1 scenario on a 2-d torus.
fn scenario(movement: MovementModel) -> Scenario {
    Scenario::new(TopologySpec::Torus2d { side: 32 }, AGENTS, ROUNDS).with_movement(movement)
}

/// The delta a run whose kernel splits draws from moves must add.
fn with_split(rounds: u64) -> Vec<u64> {
    vec![
        rounds,
        rounds * AGENTS as u64,
        rounds,
        rounds,
        rounds,
        rounds,
    ]
}

/// The delta a run without a draw/apply split must add.
fn without_split(rounds: u64) -> Vec<u64> {
    vec![rounds, rounds * AGENTS as u64, rounds, 0, 0, rounds]
}

#[test]
fn pure_rounds_count_once_per_round() {
    let _g = live();
    let delta = engine_delta(|| {
        scenario(MovementModel::Pure).run(3);
    });
    telemetry::set_enabled(false);
    assert_eq!(delta, with_split(ROUNDS));
}

#[test]
fn lazy_rounds_count_once_per_round() {
    let _g = live();
    let delta = engine_delta(|| {
        scenario(MovementModel::lazy(0.3)).run(4);
    });
    telemetry::set_enabled(false);
    assert_eq!(delta, without_split(ROUNDS));
}

#[test]
fn per_agent_rounds_count_once_per_round() {
    let _g = live();
    let delta = engine_delta(|| {
        scenario(MovementModel::Pure).with_avoidance(0.5).run(5);
    });
    telemetry::set_enabled(false);
    assert_eq!(delta, without_split(ROUNDS));
}

#[test]
fn counts_rounds_count_once_per_round() {
    let _g = live();
    let counters = ["counts.rounds", "counts.agent_steps"];
    let before = totals(&counters, &["counts.round"]);
    let outcome = scenario(MovementModel::Pure).run_counts(6);
    let after = totals(&counters, &["counts.round"]);
    telemetry::set_enabled(false);
    assert_eq!(outcome.rounds, ROUNDS);
    let delta: Vec<u64> = after.iter().zip(&before).map(|(a, b)| a - b).collect();
    assert_eq!(delta, [ROUNDS, ROUNDS * AGENTS as u64, ROUNDS]);
}

#[test]
fn a_cloned_engine_counts_only_its_own_rounds() {
    let _g = live();
    let delta = engine_delta(|| {
        let mut engine = Engine::new(antdensity_graphs::Torus2d::new(32), AGENTS)
            .with_seed_sequence(SeedSequence::new(7));
        engine.place_uniform(&mut SmallRng::seed_from_u64(8));
        for _ in 0..10 {
            engine.step_round();
        }
        let mut copy = engine.clone();
        for _ in 0..4 {
            copy.step_round();
        }
        drop(engine);
        drop(copy);
    });
    telemetry::set_enabled(false);
    assert_eq!(delta, with_split(14));
}

#[test]
fn rounds_untimed_with_telemetry_off_count_nothing() {
    let _g = live();
    telemetry::set_enabled(false);
    let delta = engine_delta(|| {
        scenario(MovementModel::Pure).run(9);
    });
    assert_eq!(delta, vec![0; 6]);
}

#[test]
fn trace_capture_emits_one_event_per_round_and_phase() {
    let _g = live();
    telemetry::set_tracing(true);
    let _ = telemetry::take_trace();
    let delta = engine_delta(|| {
        scenario(MovementModel::Pure).run(10);
    });
    telemetry::set_tracing(false);
    telemetry::set_enabled(false);
    let events = telemetry::take_trace();
    assert_eq!(delta, with_split(ROUNDS));
    for name in ENGINE_SPANS {
        let n = events.iter().filter(|e| e.name == name).count() as u64;
        assert_eq!(n, ROUNDS, "{name} events");
    }
    let round = events
        .iter()
        .find(|e| e.name == "engine.round")
        .expect("a round event");
    assert_eq!(round.args[0], ("agents", AGENTS as f64));
}
