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
use std::ops::ControlFlow;
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
fn run_counts_the_rounds_that_step_round_counts() {
    let _g = live();
    let stepped = |by_hand: bool| {
        engine_delta(|| {
            let mut engine = Engine::new(antdensity_graphs::Torus2d::new(32), AGENTS)
                .with_seed_sequence(SeedSequence::new(7));
            engine.place_uniform(&mut SmallRng::seed_from_u64(8));
            if by_hand {
                for _ in 0..20 {
                    engine.step_round();
                }
            } else {
                let mut seen = 0;
                let rounds = engine.run(30, |_| {
                    seen += 1;
                    if seen == 20 {
                        ControlFlow::Break(())
                    } else {
                        ControlFlow::Continue(())
                    }
                });
                assert_eq!(rounds, 20);
            }
        })
    };
    let (by_hand, looped) = (stepped(true), stepped(false));
    telemetry::set_enabled(false);
    assert_eq!(looped, by_hand);
    assert_eq!(looped, with_split(20));
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

/// Sums (ns) of the named histograms.
fn sums(spans: &[&str]) -> Vec<u64> {
    let snap = telemetry::snapshot();
    spans
        .iter()
        .map(|s| snap.histogram(s).map_or(0, |h| h.sum_ns))
        .collect()
}

/// With trace capture off only one round in 16 is timed, yet every span
/// still counts every round, and each span's weighted sum is positive.
#[test]
fn sampled_timing_keeps_every_span_count_exact() {
    let _g = live();
    for rounds in [1, 15, 16, 17, 512] {
        let before = sums(&ENGINE_SPANS);
        let delta = engine_delta(|| {
            Scenario::new(TopologySpec::Torus2d { side: 32 }, AGENTS, rounds).run(11);
        });
        let after = sums(&ENGINE_SPANS);
        assert_eq!(delta, with_split(rounds), "{rounds} rounds");
        for ((name, a), b) in ENGINE_SPANS.iter().zip(&after).zip(&before) {
            assert!(a > b, "{name} sum_ns did not grow over {rounds} rounds");
        }

        let counters = ["counts.rounds", "counts.agent_steps"];
        let before = totals(&counters, &["counts.round"]);
        let sum_before = sums(&["counts.round"]);
        Scenario::new(TopologySpec::Torus2d { side: 32 }, AGENTS, rounds).run_counts(12);
        let after = totals(&counters, &["counts.round"]);
        let delta: Vec<u64> = after.iter().zip(&before).map(|(a, b)| a - b).collect();
        assert_eq!(
            delta,
            [rounds, rounds * AGENTS as u64, rounds],
            "{rounds} counts rounds"
        );
        assert!(
            sums(&["counts.round"])[0] > sum_before[0],
            "{rounds} counts rounds"
        );
    }
    telemetry::set_enabled(false);
}

/// A kernel switch between timed rounds is itself timed, so the pure
/// rounds' draw/apply spans count exactly the pure rounds.
#[test]
fn a_kernel_switch_keeps_split_counts_exact() {
    let _g = live();
    let delta = engine_delta(|| {
        let mut engine = Engine::new(antdensity_graphs::Torus2d::new(32), AGENTS)
            .with_seed_sequence(SeedSequence::new(9));
        engine.place_uniform(&mut SmallRng::seed_from_u64(10));
        for _ in 0..10 {
            engine.step_round();
        }
        engine.set_movement_all(&MovementModel::lazy(0.3));
        for _ in 0..10 {
            engine.step_round();
        }
    });
    telemetry::set_enabled(false);
    assert_eq!(delta, [20, 20 * AGENTS as u64, 20, 10, 10, 20]);
}
