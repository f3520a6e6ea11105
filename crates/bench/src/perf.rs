//! Machine-readable engine throughput benchmarks: `BENCH_engine.json`.
//!
//! This module is the workspace's kernel benchmark harness and its
//! tracked perf trajectory. `repro bench` times the engine's stepping
//! paths — the monomorphized sequential kernel, the worker-pool parallel
//! path across worker counts, the CSR gather kernel, observer fusion and
//! the other [`GROUPS`] — and writes one JSON file that CI uploads as an
//! artifact, so every change's throughput is comparable to the last.
//! The daemon, the wire and the shard cache are timed end to end by
//! `perfbench/` (its `serve_mixed` workload), not here.
//!
//! The JSON schema (documented in README.md):
//!
//! ```json
//! {
//!   "bench": "engine",
//!   "mode": "quick",
//!   "topology": "torus2d_512",
//!   "samples": 5,
//!   "results": [
//!     {
//!       "group": "parallel_scaling",
//!       "impl": "pool",
//!       "agents": 16384,
//!       "workers": 4,
//!       "effective_workers": 4,
//!       "ns_per_agent_step": 14.21,
//!       "msteps_per_sec": 70.37
//!     }
//!   ]
//! }
//! ```
//!
//! All figures are medians over `samples` timed batches. `workers` is
//! the *requested* worker count; `effective_workers` is what the
//! implementation actually ran after its own caps (the pool path caps
//! at the schedule-chunk supply) — compare rows with matching effective
//! parallelism. Timings move with the host, so compare ratios between
//! rows measured on one host, not absolute figures across hosts.

use crate::report::Effort;
use antdensity_engine::sampling::{
    fill_uniform_indices, fill_uniform_indices_lanes, lane_rngs, RNG_LANES,
};
use antdensity_engine::step::step_slice_pure_batched;
use antdensity_engine::{
    CountsEngine, DenseOccupancy, Engine, EngineConfig, WorkerPool, STREAM_BLOCK,
};
use antdensity_graphs::{generators, CsrGraph, Topology, Torus2d};
use antdensity_stats::rng::SeedSequence;
use antdensity_stats::table::Table;
use antdensity_telemetry::Json;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// One timed configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineBenchResult {
    /// Benchmark family (`sequential` or `parallel_scaling`).
    pub group: &'static str,
    /// Implementation under test (`mono`, `pool`, ...).
    pub implementation: &'static str,
    /// Population size.
    pub agents: usize,
    /// Requested worker count (1 for the sequential group).
    pub workers: usize,
    /// Worker count the implementation actually used after its caps.
    pub effective_workers: usize,
    /// Median wall-clock per agent-step, nanoseconds.
    pub ns_per_agent_step: f64,
    /// Throughput in millions of agent-steps per second.
    pub msteps_per_sec: f64,
}

/// The whole `BENCH_engine.json` payload.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineBenchReport {
    /// `quick` or `full`.
    pub mode: &'static str,
    /// Median samples per configuration.
    pub samples: usize,
    /// All timed configurations.
    pub results: Vec<EngineBenchResult>,
}

/// Times `rounds` invocations of `round`, `samples` times, and returns
/// the median nanoseconds per invocation.
fn median_ns_per_round<F: FnMut()>(mut round: F, rounds: u64, samples: usize) -> f64 {
    // warm-up: one batch
    for _ in 0..rounds {
        round();
    }
    let mut times: Vec<u128> = (0..samples)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..rounds {
                round();
            }
            t.elapsed().as_nanos()
        })
        .collect();
    times.sort_unstable();
    times[times.len() / 2] as f64 / rounds as f64
}

/// Rounds per timed batch: aim for a fixed number of agent-steps so
/// every configuration gets comparable measurement mass.
fn rounds_for(agents: usize, effort: Effort) -> u64 {
    let target_steps = effort.trials(2_000_000, 8_000_000);
    (target_steps / agents as u64).clamp(4, 4096)
}

const SIDE: u64 = 512;
const SAMPLES: usize = 5;

fn result(
    group: &'static str,
    implementation: &'static str,
    agents: usize,
    workers: usize,
    effective_workers: usize,
    ns_per_round: f64,
) -> EngineBenchResult {
    let ns_per_agent_step = ns_per_round / agents as f64;
    EngineBenchResult {
        group,
        implementation,
        agents,
        workers,
        effective_workers,
        ns_per_agent_step,
        msteps_per_sec: 1e3 / ns_per_agent_step,
    }
}

/// Every benchmark family `repro bench` can run. `--group NAME`
/// restricts a run to one entry; the JSON written then carries only
/// that family, and a `--compare` gate evaluates just its rows (the
/// baseline's other families are simply not matched).
pub const GROUPS: &[&str] = &[
    "sequential",
    "parallel_scaling",
    "csr_stepping",
    "observer_fusion",
    "telemetry_overhead",
    "dist_sweep",
    "mega_scale",
    "rng_batch",
];

/// Runs the engine benchmark suite. `Quick` times 1k/16k agents (the CI
/// smoke configuration); `Full` adds 256k agents and more steps per
/// sample.
pub fn run_engine_bench(effort: Effort) -> EngineBenchReport {
    run_engine_bench_group(effort, None).expect("no group filter to reject")
}

/// [`run_engine_bench`] restricted to one benchmark family from
/// [`GROUPS`] (`None` runs everything) — the `repro bench --group`
/// entry point, so a single family can be re-measured without paying
/// for the whole suite.
///
/// # Errors
///
/// Returns a message naming the known groups if `group` is not one of
/// them.
pub fn run_engine_bench_group(
    effort: Effort,
    group: Option<&str>,
) -> Result<EngineBenchReport, String> {
    if let Some(g) = group {
        if !GROUPS.contains(&g) {
            return Err(format!(
                "unknown bench group `{g}` (known: {})",
                GROUPS.join(", ")
            ));
        }
    }
    let want = |name: &str| group.is_none_or(|g| g == name);
    let agent_grid: &[usize] = match effort {
        Effort::Quick => &[1024, 16_384],
        Effort::Full => &[1024, 16_384, 262_144],
    };
    let mut results = Vec::new();

    for &agents in agent_grid {
        let rounds = rounds_for(agents, effort);

        if want("sequential") {
            // Sequential legacy-order path (monomorphized + batched
            // kernel).
            let mut engine = Engine::new(Torus2d::new(SIDE), agents);
            let mut rng = SmallRng::seed_from_u64(1);
            engine.place_uniform(&mut rng);
            let ns = median_ns_per_round(|| engine.step_round(&mut rng), rounds, SAMPLES);
            results.push(result("sequential", "mono", agents, 1, 1, ns));
        }

        for workers in [1usize, 2, 4, 8] {
            if !want("parallel_scaling") {
                break;
            }
            // Persistent-pool path. An explicit pool pins the worker
            // cap regardless of the host's core count, and
            // STREAM_BLOCK-sized chunks with min_chunks_per_worker: 1
            // keep the chunk supply from collapsing the worker count at
            // small populations. Residual caps still apply (e.g. 1024
            // agents = 4 chunks can feed at most 4 workers), so the
            // worker count that actually ran is recorded alongside the
            // requested one.
            let mut engine = Engine::new(Torus2d::new(SIDE), agents)
                .with_seed_sequence(SeedSequence::new(7))
                .with_threads(workers)
                .with_worker_pool(Arc::new(WorkerPool::new(workers)))
                .with_config(EngineConfig {
                    schedule_chunk: STREAM_BLOCK,
                    min_chunks_per_worker: 1,
                    // Measure raw pool scaling even at 1k agents (the
                    // default threshold would collapse those rows to the
                    // inline path and hide the hand-off cost the
                    // baseline tracks).
                    inline_step_threshold: 0,
                    blocked_round_threshold: usize::MAX,
                });
            let mut rng = SmallRng::seed_from_u64(2);
            engine.place_uniform(&mut rng);
            let effective = engine.parallel_workers();
            let ns = median_ns_per_round(|| engine.step_round_parallel(), rounds, SAMPLES);
            results.push(result(
                "parallel_scaling",
                "pool",
                agents,
                workers,
                effective,
                ns,
            ));
        }
    }

    if want("csr_stepping") {
        bench_csr_stepping(effort, agent_grid, &mut results);
    }
    if want("observer_fusion") {
        bench_observer_fusion(effort, &mut results);
    }
    if want("telemetry_overhead") {
        bench_telemetry_overhead(effort, agent_grid, &mut results);
    }
    if want("dist_sweep") {
        bench_dist_sweep(effort, &mut results);
    }
    if want("mega_scale") {
        bench_mega_scale(effort, &mut results);
    }
    if want("rng_batch") {
        bench_rng_batch(effort, &mut results);
    }

    Ok(EngineBenchReport {
        mode: match effort {
            Effort::Quick => "quick",
            Effort::Full => "full",
        },
        samples: SAMPLES,
        results,
    })
}

/// Side of the mega-scale bench torus: `64² = 4096` nodes keeps the
/// whole count vector cache-resident while populations go to millions,
/// so the mean occupancy sits in the hundreds — the regime the
/// count-based representation exists for.
const MEGA_SIDE: u64 = 64;

/// The mega-scale stepping group: the per-agent engine against the
/// count-based [`CountsEngine`] on the identical pure-walk workload.
/// Throughput is counted in **delivered** agent-steps — one counts
/// round advances every one of the `agents` walkers — so the two rows
/// compare directly even though the counts row touches O(nodes) state
/// instead of O(agents). The paths agree distributionally, not
/// bitwise; `engine/tests/counts_equivalence.rs` pins that contract.
fn bench_mega_scale(effort: Effort, results: &mut Vec<EngineBenchResult>) {
    let agent_grid: &[usize] = match effort {
        Effort::Quick => &[1 << 20],
        Effort::Full => &[1 << 20, 1 << 22],
    };
    for &agents in agent_grid {
        // Few rounds per batch: the agent-level row at 2^20+ agents is
        // the slow side and bounds the suite's wall clock.
        let rounds = 4;

        let mut engine = Engine::new(Torus2d::new(MEGA_SIDE), agents);
        let mut rng = SmallRng::seed_from_u64(9);
        engine.place_uniform(&mut rng);
        let ns = median_ns_per_round(|| engine.step_round(&mut rng), rounds, SAMPLES);
        results.push(result("mega_scale", "agent_level", agents, 1, 1, ns));

        let mut engine = CountsEngine::new(Torus2d::new(MEGA_SIDE), agents as u64)
            .with_seed_sequence(SeedSequence::new(9));
        engine.place_uniform(&SeedSequence::new(10));
        let ns = median_ns_per_round(|| engine.step_round(), rounds, SAMPLES);
        results.push(result("mega_scale", "counts", agents, 1, 1, ns));
    }
}

/// Slots per fill in the `rng_batch` group — a few streaming blocks'
/// worth, large enough that per-call setup vanishes.
const RNG_BATCH_LEN: usize = 1 << 16;

/// The batched-RNG group: filling a buffer of degree-6 neighbor
/// indices four ways. `scalar_draws` is the agent-level kernel's
/// per-draw sampler (`gen_range` per slot, zone recomputed every
/// call); `seq_fill` drains one generator through the batched fill
/// with the Lemire zone hoisted out of the loop; `lane_fill`
/// additionally interleaves [`RNG_LANES`] deterministic lane
/// generators so consecutive slots never wait on one xoshiro state
/// chain; `bulk_u64` is the raw word fill (`SmallRng::fill_u64`) with
/// no index mapping at all — the upper bound the samplers chase.
///
/// Degree 6 on purpose: a non-power-of-two span (the random-regular
/// CSR workload) exercises the Lemire rejection path, where per-draw
/// setup dominates the scalar sampler. Power-of-two spans collapse
/// every variant to a single mask per word and all four rows sit at
/// the raw-generation bound. `agents` is the buffer length and
/// ns/step is ns per filled slot.
fn bench_rng_batch(effort: Effort, results: &mut Vec<EngineBenchResult>) {
    let rounds = rounds_for(RNG_BATCH_LEN, effort);
    let span = 6u64;
    let mut buf = vec![0u32; RNG_BATCH_LEN];

    let mut rng = SmallRng::seed_from_u64(11);
    let ns = median_ns_per_round(
        || {
            for slot in buf.iter_mut() {
                *slot = rng.gen_range(0..span) as u32;
            }
            std::hint::black_box(&mut buf);
        },
        rounds,
        SAMPLES,
    );
    results.push(result("rng_batch", "scalar_draws", RNG_BATCH_LEN, 1, 1, ns));

    let mut rng = SmallRng::seed_from_u64(11);
    let ns = median_ns_per_round(
        || {
            fill_uniform_indices(span, &mut buf, &mut rng);
            std::hint::black_box(&mut buf);
        },
        rounds,
        SAMPLES,
    );
    results.push(result("rng_batch", "seq_fill", RNG_BATCH_LEN, 1, 1, ns));

    let mut lanes = lane_rngs(&SeedSequence::new(11), 0);
    debug_assert_eq!(lanes.len(), RNG_LANES);
    let ns = median_ns_per_round(
        || {
            fill_uniform_indices_lanes(span, &mut buf, &mut lanes);
            std::hint::black_box(&mut buf);
        },
        rounds,
        SAMPLES,
    );
    results.push(result("rng_batch", "lane_fill", RNG_BATCH_LEN, 1, 1, ns));

    let mut words = vec![0u64; RNG_BATCH_LEN];
    let mut rng = SmallRng::seed_from_u64(12);
    let ns = median_ns_per_round(
        || {
            rng.fill_u64(&mut words);
            std::hint::black_box(&mut words);
        },
        rounds,
        SAMPLES,
    );
    results.push(result("rng_batch", "bulk_u64", RNG_BATCH_LEN, 1, 1, ns));
}

/// Node count of the random-regular CSR bench graph. Modest on purpose:
/// the graph is built once per invocation (Steger–Wormald pairing) and
/// the group measures *stepping*, not generation.
const CSR_RR_NODES: u64 = 65_536;
/// Degree of the random-regular CSR bench graph (non-power-of-two-free
/// on purpose: 8 exercises the mask path of the batched sampler).
const CSR_RR_DEGREE: usize = 8;

/// The pluggable-backend stepping group: the CSR rebuild of the bench
/// torus against the native torus (identical batched kernel and RNG
/// stream; the native path applies moves with branchless wrap
/// arithmetic, the CSR path with an offset load plus a target gather),
/// and a random `8`-regular CSR graph — the "bring your own graph"
/// workload with no structured fast path at all. Sequential stepping:
/// the group isolates the per-agent topology cost, not scheduling.
fn bench_csr_stepping(effort: Effort, agent_grid: &[usize], results: &mut Vec<EngineBenchResult>) {
    let csr_torus = CsrGraph::from_topology(&Torus2d::new(SIDE));
    let mut build_rng = SmallRng::seed_from_u64(42);
    let random_regular =
        generators::random_regular(CSR_RR_NODES, CSR_RR_DEGREE, 1000, &mut build_rng)
            .expect("bench graph parameters are valid");
    for &agents in agent_grid {
        let rounds = rounds_for(agents, effort);

        let mut engine = Engine::new(Torus2d::new(SIDE), agents);
        let mut rng = SmallRng::seed_from_u64(3);
        engine.place_uniform(&mut rng);
        let ns = median_ns_per_round(|| engine.step_round(&mut rng), rounds, SAMPLES);
        results.push(result("csr_stepping", "torus_native", agents, 1, 1, ns));

        let mut engine = Engine::new(csr_torus.clone(), agents);
        let mut rng = SmallRng::seed_from_u64(3);
        engine.place_uniform(&mut rng);
        let ns = median_ns_per_round(|| engine.step_round(&mut rng), rounds, SAMPLES);
        results.push(result("csr_stepping", "torus_csr", agents, 1, 1, ns));

        let mut engine = Engine::new(random_regular.clone(), agents);
        let mut rng = SmallRng::seed_from_u64(3);
        engine.place_uniform(&mut rng);
        let ns = median_ns_per_round(|| engine.step_round(&mut rng), rounds, SAMPLES);
        results.push(result(
            "csr_stepping",
            "random_regular_csr",
            agents,
            1,
            1,
            ns,
        ));
    }
}

/// The multi-estimator single-pass group: one fused
/// [`Scenario::run_streamed`] pass (Algorithm 1 + quorum + relative
/// frequency taps, each on a 4-checkpoint rounds schedule) against the
/// twelve dedicated `Scenario::run` invocations it replaces. Both
/// implementations deliver the identical set of outcomes, so throughput
/// is counted in **delivered** agent-steps — the rounds the unfused
/// path must simulate — making the fused rows' higher Msteps/s exactly
/// the observer-pipeline win.
fn bench_observer_fusion(effort: Effort, results: &mut Vec<EngineBenchResult>) {
    use antdensity_engine::{EstimatorSpec, ObserverTap, Scenario, Schedule, TopologySpec};

    let agent_grid: &[usize] = match effort {
        Effort::Quick => &[1024],
        Effort::Full => &[1024, 4096],
    };
    let checkpoints: [u64; 4] = [16, 32, 64, 128];
    for &agents in agent_grid {
        let topology = TopologySpec::Torus2d { side: 256 };
        let estimators = [
            EstimatorSpec::Algorithm1,
            EstimatorSpec::Quorum { threshold: 0.1 },
            EstimatorSpec::RelativeFrequency {
                property_agents: agents / 4,
            },
        ];
        let delivered_steps: u64 =
            agents as u64 * checkpoints.iter().sum::<u64>() * estimators.len() as u64;
        let base = Scenario::new(topology, agents, *checkpoints.last().expect("non-empty"));
        let taps: Vec<ObserverTap> = estimators
            .iter()
            .map(|e| ObserverTap {
                estimator: e.clone(),
                schedule: Schedule::new(checkpoints.to_vec()).expect("static schedule"),
            })
            .collect();

        let mut seed = 0u64;
        let fused_ns = median_ns_per_round(
            || {
                seed += 1;
                std::hint::black_box(base.run_streamed(seed, &taps));
            },
            1,
            SAMPLES,
        );
        let mut seed = 0u64;
        let unfused_ns = median_ns_per_round(
            || {
                seed += 1;
                for estimator in &estimators {
                    for &rounds in &checkpoints {
                        let scenario = Scenario::new(topology, agents, rounds)
                            .with_estimator(estimator.clone());
                        std::hint::black_box(scenario.run(seed));
                    }
                }
            },
            1,
            SAMPLES,
        );
        for (implementation, ns) in [("fused", fused_ns), ("unfused", unfused_ns)] {
            let ns_per_delivered_step = ns / delivered_steps as f64;
            results.push(EngineBenchResult {
                group: "observer_fusion",
                implementation,
                agents,
                workers: 1,
                effective_workers: 1,
                ns_per_agent_step: ns_per_delivered_step,
                msteps_per_sec: 1e3 / ns_per_delivered_step,
            });
        }
    }
}

/// The telemetry cost-model group, proving the `antdensity-telemetry`
/// budget empirically:
///
/// * `untouched` — a hand-rolled replica of the single-worker
///   [`Engine::step_round_parallel`] round (same per-round
///   [`SeedSequence::subsequence`] derivation, same per-`STREAM_BLOCK`
///   stream split, same batched kernel, same occupancy rebuild) built
///   directly on the public kernel with **no** telemetry call sites at
///   all. Using [`Engine::step_round`] here would conflate the gate
///   cost with the mono kernel's different RNG regime (one continuous
///   stream versus one derived stream per block per round), a path
///   difference that predates telemetry;
/// * `disabled` — the instrumented [`Engine::step_round_parallel`] at
///   one worker with the global flag off: the per-round cost is exactly
///   one relaxed atomic load, so this row must sit within noise of
///   `untouched`;
/// * `enabled` — the same path with counters, spans, and the draw/apply
///   sub-phase clocks live (trace capture off), bounding what
///   `repro sweep` pays for always-on collection.
///
/// Single worker on purpose: scheduling noise would swamp the
/// few-nanosecond effect being measured.
fn bench_telemetry_overhead(
    effort: Effort,
    agent_grid: &[usize],
    results: &mut Vec<EngineBenchResult>,
) {
    let was_enabled = antdensity_telemetry::enabled();
    for &agents in agent_grid {
        let rounds = rounds_for(agents, effort);

        let topo = Torus2d::new(SIDE);
        let span = topo
            .regular_degree()
            .map(|d| d as u64)
            .expect("the 2-d torus is regular");
        let mut positions = vec![0u32; agents];
        let mut occ = DenseOccupancy::new(topo.num_nodes());
        let mut rng = SmallRng::seed_from_u64(5);
        for p in positions.iter_mut() {
            *p = topo.uniform_node(&mut rng) as u32;
        }
        occ.rebuild(&positions);
        let seeds = SeedSequence::new(7);
        let mut round = 0u64;
        let ns = median_ns_per_round(
            || {
                let round_seq = seeds.subsequence(round);
                for (j, block) in positions.chunks_mut(STREAM_BLOCK).enumerate() {
                    let mut rng = round_seq.rng(j as u64);
                    step_slice_pure_batched::<false, _, _>(&topo, span, block, &mut rng);
                }
                occ.rebuild(&positions);
                round += 1;
            },
            rounds,
            SAMPLES,
        );
        results.push(result("telemetry_overhead", "untouched", agents, 1, 1, ns));

        for (implementation, on) in [("disabled", false), ("enabled", true)] {
            antdensity_telemetry::set_enabled(on);
            let mut engine = Engine::new(Torus2d::new(SIDE), agents)
                .with_seed_sequence(SeedSequence::new(7))
                .with_threads(1);
            let mut rng = SmallRng::seed_from_u64(5);
            engine.place_uniform(&mut rng);
            let ns = median_ns_per_round(|| engine.step_round_parallel(), rounds, SAMPLES);
            antdensity_telemetry::set_enabled(false);
            results.push(result(
                "telemetry_overhead",
                implementation,
                agents,
                1,
                1,
                ns,
            ));
        }
    }
    antdensity_telemetry::set_enabled(was_enabled);
}

/// The distributed-sweep coordination group: one tiny four-cell sweep
/// executed three ways — the in-process shard runner (`inproc`), the
/// virtual-clock coordinator/worker simulator at four workers
/// (`dist_sim`), and the same simulator under a seeded fault plan
/// (`dist_sim_faulty`: one scripted worker kill plus one dropped
/// result, forcing a respawn and a lease re-issue). All three produce
/// byte-identical aggregates — `tests/dist_determinism.rs` pins that —
/// so the rows isolate what lease bookkeeping, blob serialisation, and
/// fault recovery cost on top of the shard compute itself. Throughput
/// is counted in delivered agent-steps (`Σ cells agents × rounds ×
/// trials`), the same work under every implementation.
fn bench_dist_sweep(effort: Effort, results: &mut Vec<EngineBenchResult>) {
    use antdensity_sweep::dist::{DistOptions, FaultPlan};
    use antdensity_sweep::{run_sweep, run_sweep_distributed, SweepOptions, SweepSpec};

    const DIST_WORKERS: usize = 4;
    let trials = effort.trials(2, 6);
    let spec_text = format!(
        "name = bench_dist\nseed = 3\ntrials = {trials}\n\
         topology = torus2d:8, complete:64\ndensity = 0.1, 0.25\n\
         rounds = 8\nestimator = alg1\n"
    );
    let spec = SweepSpec::parse(&spec_text).expect("bench spec is valid");
    let resolved = spec.resolve(false).expect("bench spec resolves");
    let delivered_steps: u64 = resolved
        .cells
        .iter()
        .map(|c| c.num_agents as u64 * c.rounds)
        .sum::<u64>()
        * resolved.trials;
    let agents: usize = resolved.cells.iter().map(|c| c.num_agents).sum();
    let opts = SweepOptions {
        workers: DIST_WORKERS,
        ..SweepOptions::default()
    };

    let mut push = |implementation: &'static str, ns: f64| {
        let ns_per_delivered_step = ns / delivered_steps as f64;
        results.push(EngineBenchResult {
            group: "dist_sweep",
            implementation,
            agents,
            workers: DIST_WORKERS,
            effective_workers: DIST_WORKERS,
            ns_per_agent_step: ns_per_delivered_step,
            msteps_per_sec: 1e3 / ns_per_delivered_step,
        });
    };

    let ns = median_ns_per_round(
        || {
            std::hint::black_box(run_sweep(&spec, &opts).expect("bench sweep runs"));
        },
        1,
        SAMPLES,
    );
    push("inproc", ns);

    let faulty = FaultPlan::parse("kill:lease2,drop:result@1").expect("bench fault plan parses");
    for (implementation, plan) in [("dist_sim", FaultPlan::none()), ("dist_sim_faulty", faulty)] {
        let dopts = DistOptions::sim(DIST_WORKERS, plan);
        let ns = median_ns_per_round(
            || {
                std::hint::black_box(
                    run_sweep_distributed(&spec, &opts, &dopts)
                        .expect("bench distributed sweep runs"),
                );
            },
            1,
            SAMPLES,
        );
        push(implementation, ns);
    }
}

impl EngineBenchReport {
    /// Serializes to the documented JSON schema; the two figures keep
    /// three decimals.
    pub fn to_json(&self) -> String {
        let results = self.results.iter().map(|r| {
            Json::obj([
                ("group", r.group.into()),
                ("impl", r.implementation.into()),
                ("agents", r.agents.into()),
                ("workers", r.workers.into()),
                ("effective_workers", r.effective_workers.into()),
                ("ns_per_agent_step", Json::rounded(r.ns_per_agent_step, 3)),
                ("msteps_per_sec", Json::rounded(r.msteps_per_sec, 3)),
            ])
        });
        Json::obj([
            ("bench", "engine".into()),
            ("mode", self.mode.into()),
            ("topology", format!("torus2d_{SIDE}").into()),
            ("samples", self.samples.into()),
            ("results", Json::Arr(results.collect())),
        ])
        .encode_pretty()
    }

    /// Writes `dir/BENCH_engine.json` and returns its path.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating the directory or file.
    pub fn write_json(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join("BENCH_engine.json");
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }

    /// Human-readable summary table plus each group's headline ratio.
    pub fn render(&self) -> String {
        let mut t = Table::new(
            "engine throughput",
            &[
                "group", "impl", "agents", "workers", "eff", "ns/step", "Msteps/s",
            ],
        );
        for r in &self.results {
            t.row_owned(vec![
                r.group.to_string(),
                r.implementation.to_string(),
                r.agents.to_string(),
                r.workers.to_string(),
                r.effective_workers.to_string(),
                format!("{:.2}", r.ns_per_agent_step),
                format!("{:.2}", r.msteps_per_sec),
            ]);
        }
        let mut out = t.render();
        for (agents, ratio) in self.fusion_speedups() {
            out.push_str(&format!(
                "  => fused observer pass vs dedicated per-(estimator, rounds) runs \
                 at {agents} agents: {ratio:.2}x\n"
            ));
        }
        for (agents, ratio) in self.csr_torus_ratios() {
            out.push_str(&format!(
                "  => CSR torus vs native torus at {agents} agents: {ratio:.2}x \
                 native throughput\n"
            ));
        }
        for t in self.telemetry_overheads() {
            out.push_str(&format!(
                "  => telemetry at {} agents: disabled {:.1}% / enabled {:.1}% \
                 overhead vs the untouched kernel\n",
                t.agents,
                (t.disabled_ratio - 1.0) * 100.0,
                (t.enabled_ratio - 1.0) * 100.0,
            ));
        }
        for (implementation, ratio) in self.dist_sweep_ratios() {
            out.push_str(&format!(
                "  => distributed sweep ({implementation}) vs in-process shard \
                 runner: {ratio:.2}x throughput\n"
            ));
        }
        for (agents, ratio) in self.mega_scale_speedups() {
            out.push_str(&format!(
                "  => count-based stepping vs agent-level at {agents} agents: \
                 {ratio:.2}x delivered agent-steps/s\n"
            ));
        }
        if let Some(ratio) = self.rng_batch_speedup() {
            out.push_str(&format!(
                "  => batched lane fill vs per-draw scalar sampling (span 6): \
                 {ratio:.2}x\n"
            ));
        }
        out
    }

    /// Counts-over-agent-level delivered-throughput ratios of the
    /// `mega_scale` group, by population — the headline the
    /// occupancy-count representation is judged by.
    pub fn mega_scale_speedups(&self) -> Vec<(usize, f64)> {
        let of = |imp: &str, agents: usize| {
            self.results
                .iter()
                .find(|r| r.group == "mega_scale" && r.implementation == imp && r.agents == agents)
        };
        self.results
            .iter()
            .filter(|r| r.group == "mega_scale" && r.implementation == "counts")
            .filter_map(|c| {
                of("agent_level", c.agents).map(|a| (c.agents, c.msteps_per_sec / a.msteps_per_sec))
            })
            .collect()
    }

    /// Lane-fill throughput of the `rng_batch` group relative to the
    /// agent-level kernel's per-draw scalar sampler (above 1 = the
    /// batched lanes beat per-call `gen_range`).
    pub fn rng_batch_speedup(&self) -> Option<f64> {
        let of = |imp: &str| {
            self.results
                .iter()
                .find(|r| r.group == "rng_batch" && r.implementation == imp)
        };
        Some(of("lane_fill")?.msteps_per_sec / of("scalar_draws")?.msteps_per_sec)
    }

    /// Coordinator/simulator throughput relative to the in-process
    /// shard runner for the `dist_sweep` group (1.0 = the coordination
    /// layer is free; the faulty row additionally absorbs one respawn
    /// and one lease re-issue).
    pub fn dist_sweep_ratios(&self) -> Vec<(&'static str, f64)> {
        let inproc = self
            .results
            .iter()
            .find(|r| r.group == "dist_sweep" && r.implementation == "inproc");
        let Some(inproc) = inproc else {
            return Vec::new();
        };
        self.results
            .iter()
            .filter(|r| r.group == "dist_sweep" && r.implementation != "inproc")
            .map(|r| (r.implementation, r.msteps_per_sec / inproc.msteps_per_sec))
            .collect()
    }

    /// Telemetry cost relative to the untouched sequential kernel, by
    /// agent count: `disabled_ratio`/`enabled_ratio` are
    /// time-per-agent-step ratios against the `untouched` row (1.0 =
    /// free; the disabled row's budget is "within noise").
    pub fn telemetry_overheads(&self) -> Vec<TelemetryOverhead> {
        let of = |imp: &str, agents: usize| {
            self.results.iter().find(|r| {
                r.group == "telemetry_overhead" && r.implementation == imp && r.agents == agents
            })
        };
        self.results
            .iter()
            .filter(|r| r.group == "telemetry_overhead" && r.implementation == "untouched")
            .filter_map(|u| {
                let disabled = of("disabled", u.agents)?;
                let enabled = of("enabled", u.agents)?;
                Some(TelemetryOverhead {
                    agents: u.agents,
                    disabled_ratio: disabled.ns_per_agent_step / u.ns_per_agent_step,
                    enabled_ratio: enabled.ns_per_agent_step / u.ns_per_agent_step,
                })
            })
            .collect()
    }

    /// CSR-rebuild-over-native throughput ratios of the `csr_stepping`
    /// group by agent count (1.0 = the gather-based CSR kernel keeps up
    /// with the branchless native torus arithmetic).
    pub fn csr_torus_ratios(&self) -> Vec<(usize, f64)> {
        self.results
            .iter()
            .filter(|r| r.group == "csr_stepping" && r.implementation == "torus_csr")
            .filter_map(|c| {
                self.results
                    .iter()
                    .find(|r| {
                        r.group == "csr_stepping"
                            && r.implementation == "torus_native"
                            && r.agents == c.agents
                    })
                    .map(|n| (c.agents, c.msteps_per_sec / n.msteps_per_sec))
            })
            .collect()
    }

    /// Fused-over-unfused delivered-throughput ratios of the
    /// `observer_fusion` group, by agent count.
    pub fn fusion_speedups(&self) -> Vec<(usize, f64)> {
        let of = |imp: &str, agents: usize| {
            self.results.iter().find(|r| {
                r.group == "observer_fusion" && r.implementation == imp && r.agents == agents
            })
        };
        self.results
            .iter()
            .filter(|r| r.group == "observer_fusion" && r.implementation == "fused")
            .filter_map(|f| {
                of("unfused", f.agents)
                    .map(|u| (f.agents, u.ns_per_agent_step / f.ns_per_agent_step))
            })
            .collect()
    }
}

/// Parses a `BENCH_engine.json` file written by
/// [`EngineBenchReport::to_json`]: a typed decoder over the workspace's
/// JSON value model ([`Json`]).
///
/// # Errors
///
/// Returns a message for malformed JSON, missing top-level fields, or
/// a result entry with a missing, mistyped or unknown field or label.
pub fn parse_json(text: &str) -> Result<EngineBenchReport, String> {
    // Interned &'static labels keep the parsed report type-identical to
    // a freshly measured one.
    fn intern(s: &str) -> Option<&'static str> {
        [
            "sequential",
            "parallel_scaling",
            "observer_fusion",
            "csr_stepping",
            "mono",
            "pool",
            "fused",
            "unfused",
            "torus_native",
            "torus_csr",
            "random_regular_csr",
            "telemetry_overhead",
            "untouched",
            "disabled",
            "enabled",
            "dist_sweep",
            "inproc",
            "dist_sim",
            "dist_sim_faulty",
            "mega_scale",
            "agent_level",
            "counts",
            "rng_batch",
            "scalar_draws",
            "seq_fill",
            "lane_fill",
            "bulk_u64",
        ]
        .into_iter()
        .find(|known| *known == s)
    }
    fn decode_result(entry: &Json) -> Option<EngineBenchResult> {
        let label = |key| intern(entry.get(key)?.as_str()?);
        let count = |key| entry.get(key)?.as_u64().map(|v| v as usize);
        let num = |key| entry.get(key)?.as_f64();
        Some(EngineBenchResult {
            group: label("group")?,
            implementation: label("impl")?,
            agents: count("agents")?,
            workers: count("workers")?,
            effective_workers: count("effective_workers")?,
            ns_per_agent_step: num("ns_per_agent_step")?,
            msteps_per_sec: num("msteps_per_sec")?,
        })
    }

    let doc = Json::parse(text)?;
    let mode = match doc.get("mode").and_then(Json::as_str) {
        Some("quick") => "quick",
        Some("full") => "full",
        other => return Err(format!("missing or unknown mode {other:?}")),
    };
    let samples = doc
        .get("samples")
        .and_then(Json::as_u64)
        .ok_or("missing samples field")? as usize;
    let Some(Json::Arr(entries)) = doc.get("results") else {
        return Err("missing results array".into());
    };
    let results = entries
        .iter()
        .map(|e| decode_result(e).ok_or_else(|| format!("malformed result entry: {}", e.encode())))
        .collect::<Result<Vec<_>, _>>()?;
    if results.is_empty() {
        return Err("no result entries found".into());
    }
    Ok(EngineBenchReport {
        mode,
        samples,
        results,
    })
}

/// One matched configuration in a baseline comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct CompareRow {
    /// Benchmark family.
    pub group: &'static str,
    /// Implementation under test.
    pub implementation: &'static str,
    /// Population size.
    pub agents: usize,
    /// Requested workers.
    pub workers: usize,
    /// Baseline throughput (Msteps/s, median over samples).
    pub baseline_msteps: f64,
    /// Current throughput.
    pub current_msteps: f64,
    /// `current / baseline` (above 1 = faster than baseline).
    pub ratio: f64,
}

/// The CI perf-regression gate: current run vs a committed baseline.
///
/// Configs are matched on `(group, impl, agents, workers)`. The gate
/// statistic is the **median** of the per-config throughput ratios —
/// per-config figures are already medians over timed batches, and the
/// median-of-ratios ignores a few noisy outlier configs (CI neighbours,
/// cache state) while still catching a real slowdown, which drags most
/// configs down together.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchComparison {
    /// Matched configurations.
    pub rows: Vec<CompareRow>,
    /// Current-run configs absent from the baseline (ignored by the gate).
    pub unmatched: usize,
    /// Median of the per-config ratios.
    pub median_ratio: f64,
    /// Allowed fractional regression (0.25 = fail below 0.75×).
    pub tolerance: f64,
}

impl BenchComparison {
    /// Whether the gate fails: the median config lost more than
    /// `tolerance` of its baseline throughput.
    pub fn regressed(&self) -> bool {
        self.median_ratio < 1.0 - self.tolerance
    }

    /// Comparison table plus the gate verdict.
    pub fn render(&self) -> String {
        let mut t = Table::new(
            "perf vs baseline",
            &["group", "impl", "agents", "workers", "base", "now", "ratio"],
        );
        for r in &self.rows {
            t.row_owned(vec![
                r.group.to_string(),
                r.implementation.to_string(),
                r.agents.to_string(),
                r.workers.to_string(),
                format!("{:.2}", r.baseline_msteps),
                format!("{:.2}", r.current_msteps),
                format!("{:.3}", r.ratio),
            ]);
        }
        t.note("base/now in Msteps/s (medians); ratio = now/base, higher is faster");
        let mut out = t.render();
        out.push_str(&format!(
            "  => median throughput ratio {:.3} over {} matched configs \
             ({} unmatched), gate at {:.2}: {}\n",
            self.median_ratio,
            self.rows.len(),
            self.unmatched,
            1.0 - self.tolerance,
            if self.regressed() { "REGRESSED" } else { "ok" }
        ));
        out.push_str(
            "  => note: baselines are host-specific; a uniform shift across every \
             config usually means a different machine, not a regression\n",
        );
        out
    }
}

/// Compares `current` against `baseline` with the given fractional
/// tolerance.
///
/// # Errors
///
/// Returns an error if no configuration matches between the two
/// reports (nothing to gate on).
pub fn compare(
    current: &EngineBenchReport,
    baseline: &EngineBenchReport,
    tolerance: f64,
) -> Result<BenchComparison, String> {
    let mut rows = Vec::new();
    let mut unmatched = 0usize;
    for cur in &current.results {
        match baseline.results.iter().find(|b| {
            b.group == cur.group
                && b.implementation == cur.implementation
                && b.agents == cur.agents
                && b.workers == cur.workers
        }) {
            Some(base) => rows.push(CompareRow {
                group: cur.group,
                implementation: cur.implementation,
                agents: cur.agents,
                workers: cur.workers,
                baseline_msteps: base.msteps_per_sec,
                current_msteps: cur.msteps_per_sec,
                ratio: cur.msteps_per_sec / base.msteps_per_sec,
            }),
            None => unmatched += 1,
        }
    }
    if rows.is_empty() {
        return Err(format!(
            "no configurations match the baseline (baseline mode `{}`, current `{}`)",
            baseline.mode, current.mode
        ));
    }
    let ratios: Vec<f64> = rows.iter().map(|r| r.ratio).collect();
    Ok(BenchComparison {
        median_ratio: antdensity_stats::quantile::median(&ratios),
        rows,
        unmatched,
        tolerance,
    })
}

/// Telemetry cost at one population size, relative to the untouched
/// sequential kernel (time ratios; 1.0 = free).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TelemetryOverhead {
    /// Population size.
    pub agents: usize,
    /// Instrumented path with the flag off vs `untouched` — the
    /// one-relaxed-load budget; must sit within noise of 1.0.
    pub disabled_ratio: f64,
    /// Instrumented path with counters and spans live vs `untouched`.
    pub enabled_ratio: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_report() -> EngineBenchReport {
        EngineBenchReport {
            mode: "quick",
            samples: 5,
            results: vec![
                EngineBenchResult {
                    group: "parallel_scaling",
                    implementation: "pool",
                    agents: 1024,
                    workers: 4,
                    effective_workers: 2,
                    ns_per_agent_step: 10.0,
                    msteps_per_sec: 100.0,
                },
                EngineBenchResult {
                    group: "sequential",
                    implementation: "mono",
                    agents: 1024,
                    workers: 1,
                    effective_workers: 1,
                    ns_per_agent_step: 25.0,
                    msteps_per_sec: 40.0,
                },
            ],
        }
    }

    #[test]
    fn fusion_speedups_pair_fused_with_unfused() {
        let mut r = tiny_report();
        r.results.push(EngineBenchResult {
            group: "observer_fusion",
            implementation: "fused",
            agents: 1024,
            workers: 1,
            effective_workers: 1,
            ns_per_agent_step: 2.0,
            msteps_per_sec: 500.0,
        });
        r.results.push(EngineBenchResult {
            group: "observer_fusion",
            implementation: "unfused",
            agents: 1024,
            workers: 1,
            effective_workers: 1,
            ns_per_agent_step: 9.0,
            msteps_per_sec: 111.1,
        });
        let speedups = r.fusion_speedups();
        assert_eq!(speedups.len(), 1);
        assert_eq!(speedups[0].0, 1024);
        assert!((speedups[0].1 - 4.5).abs() < 1e-9);
        assert!(r.render().contains("fused observer pass"));
        // fusion labels survive the JSON round trip
        let parsed = parse_json(&r.to_json()).unwrap();
        assert!(parsed
            .results
            .iter()
            .any(|x| x.group == "observer_fusion" && x.implementation == "unfused"));
    }

    #[test]
    fn csr_ratios_pair_rebuild_with_native() {
        let mut r = tiny_report();
        for (implementation, msteps) in [
            ("torus_native", 100.0f64),
            ("torus_csr", 80.0),
            ("random_regular_csr", 50.0),
        ] {
            r.results.push(EngineBenchResult {
                group: "csr_stepping",
                implementation,
                agents: 1024,
                workers: 1,
                effective_workers: 1,
                ns_per_agent_step: 1e3 / msteps,
                msteps_per_sec: msteps,
            });
        }
        let ratios = r.csr_torus_ratios();
        assert_eq!(ratios.len(), 1);
        assert_eq!(ratios[0].0, 1024);
        assert!((ratios[0].1 - 0.8).abs() < 1e-9);
        assert!(r.render().contains("CSR torus vs native torus"));
        // labels survive the JSON round trip
        let parsed = parse_json(&r.to_json()).unwrap();
        assert!(parsed
            .results
            .iter()
            .any(|x| x.group == "csr_stepping" && x.implementation == "random_regular_csr"));
    }

    #[test]
    fn telemetry_overheads_pair_all_three_rows() {
        let mut r = tiny_report();
        for (implementation, ns) in [
            ("untouched", 10.0f64),
            ("disabled", 10.1),
            ("enabled", 11.0),
        ] {
            r.results.push(EngineBenchResult {
                group: "telemetry_overhead",
                implementation,
                agents: 1024,
                workers: 1,
                effective_workers: 1,
                ns_per_agent_step: ns,
                msteps_per_sec: 1e3 / ns,
            });
        }
        let overheads = r.telemetry_overheads();
        assert_eq!(overheads.len(), 1);
        let t = overheads[0];
        assert_eq!(t.agents, 1024);
        assert!((t.disabled_ratio - 1.01).abs() < 1e-9);
        assert!((t.enabled_ratio - 1.1).abs() < 1e-9);
        assert!(r.render().contains("overhead vs the untouched kernel"));
        // the new labels survive the JSON round trip (baseline gating)
        let parsed = parse_json(&r.to_json()).unwrap();
        assert!(parsed
            .results
            .iter()
            .any(|x| x.group == "telemetry_overhead" && x.implementation == "disabled"));
    }

    #[test]
    fn dist_sweep_ratios_pair_sim_rows_with_inproc() {
        let mut r = tiny_report();
        for (implementation, msteps) in [
            ("inproc", 100.0f64),
            ("dist_sim", 95.0),
            ("dist_sim_faulty", 80.0),
        ] {
            r.results.push(EngineBenchResult {
                group: "dist_sweep",
                implementation,
                agents: 4096,
                workers: 4,
                effective_workers: 4,
                ns_per_agent_step: 1e3 / msteps,
                msteps_per_sec: msteps,
            });
        }
        let ratios = r.dist_sweep_ratios();
        assert_eq!(ratios.len(), 2);
        assert_eq!(ratios[0].0, "dist_sim");
        assert!((ratios[0].1 - 0.95).abs() < 1e-9);
        assert_eq!(ratios[1].0, "dist_sim_faulty");
        assert!((ratios[1].1 - 0.8).abs() < 1e-9);
        assert!(r.render().contains("distributed sweep (dist_sim_faulty)"));
        // the dist labels survive the JSON round trip (baseline gating)
        let parsed = parse_json(&r.to_json()).unwrap();
        assert!(parsed
            .results
            .iter()
            .any(|x| x.group == "dist_sweep" && x.implementation == "dist_sim_faulty"));
    }

    #[test]
    fn mega_scale_speedups_pair_counts_with_agent_level() {
        let mut r = tiny_report();
        for (implementation, msteps) in [("agent_level", 100.0f64), ("counts", 900.0)] {
            r.results.push(EngineBenchResult {
                group: "mega_scale",
                implementation,
                agents: 1 << 20,
                workers: 1,
                effective_workers: 1,
                ns_per_agent_step: 1e3 / msteps,
                msteps_per_sec: msteps,
            });
        }
        let speedups = r.mega_scale_speedups();
        assert_eq!(speedups.len(), 1);
        assert_eq!(speedups[0].0, 1 << 20);
        assert!((speedups[0].1 - 9.0).abs() < 1e-9);
        assert!(r.render().contains("count-based stepping vs agent-level"));
        // the mega-scale labels survive the JSON round trip
        let parsed = parse_json(&r.to_json()).unwrap();
        assert!(parsed
            .results
            .iter()
            .any(|x| x.group == "mega_scale" && x.implementation == "counts"));
    }

    #[test]
    fn rng_batch_speedup_pairs_lane_with_sequential_fill() {
        let mut r = tiny_report();
        assert_eq!(r.rng_batch_speedup(), None);
        for (implementation, msteps) in [
            ("scalar_draws", 500.0f64),
            ("seq_fill", 650.0),
            ("lane_fill", 700.0),
            ("bulk_u64", 1200.0),
        ] {
            r.results.push(EngineBenchResult {
                group: "rng_batch",
                implementation,
                agents: 1 << 16,
                workers: 1,
                effective_workers: 1,
                ns_per_agent_step: 1e3 / msteps,
                msteps_per_sec: msteps,
            });
        }
        let speedup = r.rng_batch_speedup().unwrap();
        assert!((speedup - 1.4).abs() < 1e-9);
        assert!(r.render().contains("batched lane fill vs per-draw scalar"));
        let parsed = parse_json(&r.to_json()).unwrap();
        assert!(parsed
            .results
            .iter()
            .any(|x| x.group == "rng_batch" && x.implementation == "bulk_u64"));
    }

    #[test]
    fn group_filter_runs_one_family_and_rejects_unknown_names() {
        let err = run_engine_bench_group(Effort::Quick, Some("bogus")).unwrap_err();
        assert!(err.contains("unknown bench group `bogus`"), "{err}");
        assert!(err.contains("rng_batch"), "{err}");

        // the cheapest real family: three fills over a 64k buffer
        let report = run_engine_bench_group(Effort::Quick, Some("rng_batch")).unwrap();
        assert!(report.results.iter().all(|r| r.group == "rng_batch"));
        let impls: Vec<&str> = report.results.iter().map(|r| r.implementation).collect();
        assert_eq!(impls, ["scalar_draws", "seq_fill", "lane_fill", "bulk_u64"]);
        assert!(report.rng_batch_speedup().is_some());
    }

    #[test]
    fn json_is_well_formed_and_complete() {
        let json = tiny_report().to_json();
        assert!(json.contains("\"bench\": \"engine\""));
        assert!(json.contains("\"impl\": \"mono\""));
        assert!(json.contains("\"ns_per_agent_step\": 10,"));
        // no trailing comma before the closing bracket
        assert!(!json.contains(",\n  ]"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn render_headline_shows_effective_counts() {
        // the pool row asked for 4 workers and ran 2: the table shows both
        let text = tiny_report().render();
        let pool_row: Vec<&str> = text
            .lines()
            .map(|l| l.split('|').map(str::trim).collect::<Vec<_>>())
            .find(|cells| cells.get(2) == Some(&"pool"))
            .expect("pool row rendered");
        assert_eq!(&pool_row[3..6], ["1024", "4", "2"]);
    }

    #[test]
    fn committed_baseline_parses_with_known_groups() {
        let baseline = parse_json(include_str!("../../../BENCH_baseline.json"))
            .expect("BENCH_baseline.json parses");
        for r in &baseline.results {
            assert!(
                GROUPS.contains(&r.group),
                "baseline row has unknown group `{}`",
                r.group
            );
        }
    }

    #[test]
    fn json_round_trips_through_parser() {
        let report = tiny_report();
        let parsed = parse_json(&report.to_json()).unwrap();
        assert_eq!(parsed.mode, report.mode);
        assert_eq!(parsed.samples, report.samples);
        assert_eq!(parsed.results.len(), report.results.len());
        for (a, b) in parsed.results.iter().zip(&report.results) {
            assert_eq!(a.group, b.group);
            assert_eq!(a.implementation, b.implementation);
            assert_eq!(
                (a.agents, a.workers, a.effective_workers),
                (b.agents, b.workers, b.effective_workers)
            );
            assert!((a.msteps_per_sec - b.msteps_per_sec).abs() < 1e-3);
        }
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse_json("{}").is_err());
        assert!(parse_json("not json at all").is_err());
        let broken = tiny_report()
            .to_json()
            .replace("\"agents\": 1024", "\"agents\": oops");
        assert!(parse_json(&broken).is_err());
    }

    fn scaled_report(factor: f64) -> EngineBenchReport {
        let mut r = tiny_report();
        for res in &mut r.results {
            res.msteps_per_sec *= factor;
            res.ns_per_agent_step /= factor;
        }
        r
    }

    #[test]
    fn gate_passes_within_tolerance_and_fails_beyond() {
        let base = tiny_report();
        let same = compare(&base, &base, 0.25).unwrap();
        assert!((same.median_ratio - 1.0).abs() < 1e-12);
        assert!(!same.regressed());

        let slightly_slower = compare(&scaled_report(0.85), &base, 0.25).unwrap();
        assert!(
            !slightly_slower.regressed(),
            "15% loss is inside the 25% gate"
        );

        let much_slower = compare(&scaled_report(0.5), &base, 0.25).unwrap();
        assert!(much_slower.regressed());
        assert!((much_slower.median_ratio - 0.5).abs() < 1e-9);
        let text = much_slower.render();
        assert!(text.contains("REGRESSED"));
        assert!(text.contains("median throughput ratio 0.500"));
    }

    #[test]
    fn gate_uses_median_not_worst_case() {
        // one outlier config tanks, the rest hold: the gate stays green
        let base = EngineBenchReport {
            mode: "quick",
            samples: 5,
            results: (0..5)
                .map(|i| EngineBenchResult {
                    group: "parallel_scaling",
                    implementation: "pool",
                    agents: 1024 << i,
                    workers: 2,
                    effective_workers: 2,
                    ns_per_agent_step: 10.0,
                    msteps_per_sec: 100.0,
                })
                .collect(),
        };
        let mut current = base.clone();
        current.results[0].msteps_per_sec *= 0.1;
        let cmp = compare(&current, &base, 0.25).unwrap();
        assert_eq!(cmp.rows.len(), 5);
        assert!(!cmp.regressed(), "median ratio {}", cmp.median_ratio);
    }

    #[test]
    fn compare_requires_overlap() {
        let base = tiny_report();
        let mut foreign = tiny_report();
        for r in &mut foreign.results {
            r.agents += 1;
        }
        assert!(compare(&foreign, &base, 0.25).is_err());
    }

    #[test]
    fn write_json_creates_file() {
        let dir = std::env::temp_dir().join(format!("antdensity_perf_{}", std::process::id()));
        let path = tiny_report().write_json(&dir).unwrap();
        assert!(path.ends_with("BENCH_engine.json"));
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.contains("\"results\""));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
