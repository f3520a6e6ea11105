//! Engine kernel benchmarks and the claims they check:
//! `BENCH_engine.json`.
//!
//! `repro bench` times the engine's round on native and CSR
//! topologies, its telemetry gate, the count-based engine and the other
//! [`GROUPS`], writes one JSON file that CI uploads as an artifact, and
//! checks the [`CLAIMS`] table inside the same run. The daemon, the
//! wire and the shard cache are timed end to end by `perfbench/` (its
//! `serve_mixed` workload), not here.
//!
//! The implementations of one group at one population are timed in
//! turn, one batch each per cycle (A B C, then C B A, …), so sample `i`
//! of every row they produce was measured within the same few
//! milliseconds. A claim's ratio is the median over `i` of the
//! numerator's sample over the denominator's: host speed and drift
//! divide out, which is what lets a bound hold on any host.
//!
//! The JSON schema (documented in README.md):
//!
//! ```json
//! {
//!   "bench": "engine",
//!   "mode": "quick",
//!   "topology": "torus2d_512",
//!   "samples": 41,
//!   "results": [
//!     {
//!       "group": "dist_sweep",
//!       "impl": "dist_sim",
//!       "agents": 48,
//!       "workers": 4,
//!       "ns_per_agent_step": 309.69,
//!       "msteps_per_sec": 3.229
//!     }
//!   ]
//! }
//! ```
//!
//! All figures are medians over `samples` timed batches. `workers` is
//! the worker count a row ran with (1 everywhere but `dist_sweep`).
//! Timings move with the host, so compare ratios between rows measured
//! in one run, not absolute figures across hosts.

use crate::report::Effort;
use antdensity_engine::sampling::{
    fill_uniform_indices, fill_uniform_indices_lanes, lane_rngs, RNG_LANES,
};
use antdensity_engine::{CountsEngine, DenseOccupancy, Engine, STREAM_BLOCK};
use antdensity_graphs::{generators, CsrGraph, Topology, Torus2d};
use antdensity_stats::quantile::median;
use antdensity_stats::rng::SeedSequence;
use antdensity_stats::table::Table;
use antdensity_telemetry::Json;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// One timed configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineBenchResult {
    /// Benchmark family, one of [`GROUPS`].
    pub group: &'static str,
    /// Implementation under test (`torus_native`, `counts`, ...).
    pub implementation: &'static str,
    /// Population size.
    pub agents: usize,
    /// Worker count (1 for every group but `dist_sweep`).
    pub workers: usize,
    /// Median wall-clock per agent-step, nanoseconds.
    pub ns_per_agent_step: f64,
    /// Throughput in millions of agent-steps per second.
    pub msteps_per_sec: f64,
    /// Each timed batch's nanoseconds per agent-step, in timing order.
    /// Sample `i` of every row of one group and population comes from
    /// the same cycle, so two such rows pair sample by sample.
    pub samples_ns: Vec<f64>,
}

impl EngineBenchResult {
    /// A row whose figures are the median of `samples_ns`.
    ///
    /// # Panics
    ///
    /// Panics if `samples_ns` is empty.
    pub fn from_samples(
        group: &'static str,
        implementation: &'static str,
        agents: usize,
        workers: usize,
        samples_ns: Vec<f64>,
    ) -> Self {
        let ns_per_agent_step = median(&samples_ns);
        Self {
            group,
            implementation,
            agents,
            workers,
            ns_per_agent_step,
            msteps_per_sec: 1e3 / ns_per_agent_step,
            samples_ns,
        }
    }
}

/// The whole `BENCH_engine.json` payload.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineBenchReport {
    /// `quick` or `full`.
    pub mode: &'static str,
    /// Timed batches per configuration.
    pub samples: usize,
    /// All timed configurations.
    pub results: Vec<EngineBenchResult>,
}

/// One implementation of a group at one population: its label and a
/// closure that runs one timed batch.
type Batch<'a> = (&'static str, Box<dyn FnMut() + 'a>);

/// A batch of `rounds` calls to `round`.
fn rounds_of<'a>(rounds: u64, mut round: impl FnMut() + 'a) -> Box<dyn FnMut() + 'a> {
    Box::new(move || {
        for _ in 0..rounds {
            round();
        }
    })
}

/// Times `impls` in turn, forwards on even cycles and backwards on odd
/// ones (A B C C B A …): one warm-up cycle, then [`SAMPLES`] timed
/// ones. Each turn runs its batch twice and times the second run, which
/// delivers `steps` agent-steps. Pushes one row per implementation, in
/// `impls` order.
fn time_interleaved(
    results: &mut Vec<EngineBenchResult>,
    group: &'static str,
    agents: usize,
    workers: usize,
    steps: u64,
    mut impls: Vec<Batch<'_>>,
) {
    let mut samples = vec![Vec::with_capacity(SAMPLES); impls.len()];
    for cycle in 0..=SAMPLES {
        let mut order: Vec<usize> = (0..impls.len()).collect();
        if cycle % 2 == 1 {
            order.reverse();
        }
        for i in order {
            // Untimed first: the previous batch evicted this one's
            // working set.
            (impls[i].1)();
            let t = Instant::now();
            (impls[i].1)();
            let ns = t.elapsed().as_nanos() as f64 / steps as f64;
            if cycle > 0 {
                samples[i].push(ns);
            }
        }
    }
    for ((implementation, _), samples_ns) in impls.into_iter().zip(samples) {
        results.push(EngineBenchResult::from_samples(
            group,
            implementation,
            agents,
            workers,
            samples_ns,
        ));
    }
}

/// A pure-walk engine on `topo` that places from `seed` and steps on
/// `SeedSequence::new(seed)`.
fn seeded_engine<T: Topology>(topo: T, agents: usize, seed: u64) -> Engine<T> {
    let mut engine = Engine::new(topo, agents).with_seed_sequence(SeedSequence::new(seed));
    engine.place_uniform(&mut SmallRng::seed_from_u64(seed));
    engine
}

/// Rounds per timed batch: aim for a fixed number of agent-steps so
/// every configuration gets comparable measurement mass.
fn rounds_for(agents: usize, effort: Effort) -> u64 {
    let target_steps = effort.trials(250_000, 1_000_000);
    (target_steps / agents as u64).clamp(4, 4096)
}

const SIDE: u64 = 512;
/// Timed batches per implementation (after one warm-up batch).
const SAMPLES: usize = 41;

/// Every benchmark family `repro bench` can run. `--group NAME`
/// restricts a run to one entry; the JSON written then carries only
/// that family, and only its [`CLAIMS`] are checked.
pub const GROUPS: &[&str] = &[
    "csr_stepping",
    "telemetry_overhead",
    "dist_sweep",
    "mega_scale",
    "rng_batch",
];

/// What a claim's ratio must satisfy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// The ratio must not exceed this.
    AtMost(f64),
    /// The ratio must reach at least this.
    AtLeast(f64),
    /// Printed, never gated.
    Informational,
}

impl Bound {
    /// Whether `ratio` satisfies the bound.
    pub fn holds(self, ratio: f64) -> bool {
        match self {
            Bound::AtMost(b) => ratio <= b,
            Bound::AtLeast(b) => ratio >= b,
            Bound::Informational => true,
        }
    }
}

/// One ratio `repro bench` reports: the time per agent-step of
/// `numerator` over that of `denominator`, both of `group`, at every
/// population the group measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Claim {
    /// Benchmark family, one of [`GROUPS`].
    pub group: &'static str,
    /// Implementation whose time is on top.
    pub numerator: &'static str,
    /// Implementation whose time is below.
    pub denominator: &'static str,
    /// What the ratio must satisfy.
    pub bound: Bound,
    /// What the ratio prices, for the rendered line.
    pub what: &'static str,
}

/// Every ratio `repro bench` prints, and the three it gates:
///
/// * telemetry switched off costs one relaxed load per round, so the
///   instrumented round sits within 5% of the hand-rolled round with
///   no gate (`disabled`/`untouched` ≤ 1.05);
/// * enabled collection costs at most 10% (`enabled`/`untouched` ≤
///   1.10);
/// * count-based stepping is at least 4x faster than agent-level
///   stepping at `mega_scale`, gated at `agent_level`/`counts` ≥ 5:
///   unchanged trees read 7.3–8.6 on a 2-vCPU host, where a planted
///   2x slowdown of [`CountsEngine::step_round`] read 3.77–4.41 and
///   passed a gate at 4 in 4 of 10 runs.
///
/// The fused observer pass's ≥ 3x has its own gate,
/// `crates/sweep/tests/fusion_gate.rs`.
pub const CLAIMS: &[Claim] = &[
    Claim {
        group: "csr_stepping",
        numerator: "torus_csr",
        denominator: "torus_native",
        bound: Bound::Informational,
        what: "CSR torus vs native torus",
    },
    Claim {
        group: "telemetry_overhead",
        numerator: "disabled",
        denominator: "untouched",
        bound: Bound::AtMost(1.05),
        what: "telemetry off vs the round without the gate",
    },
    Claim {
        group: "telemetry_overhead",
        numerator: "enabled",
        denominator: "untouched",
        bound: Bound::AtMost(1.10),
        what: "telemetry on vs the round without the gate",
    },
    Claim {
        group: "dist_sweep",
        numerator: "dist_sim",
        denominator: "inproc",
        bound: Bound::Informational,
        what: "distributed sweep vs the in-process runner",
    },
    Claim {
        group: "dist_sweep",
        numerator: "dist_sim_faulty",
        denominator: "inproc",
        bound: Bound::Informational,
        what: "distributed sweep with a kill and a drop vs the in-process runner",
    },
    Claim {
        group: "mega_scale",
        numerator: "agent_level",
        denominator: "counts",
        bound: Bound::AtLeast(5.0),
        what: "agent-level vs count-based stepping",
    },
    Claim {
        group: "rng_batch",
        numerator: "scalar_draws",
        denominator: "lane_fill",
        bound: Bound::Informational,
        what: "per-draw scalar sampling vs the batched lane fill (span 6)",
    },
];

/// One [`Claim`] at one population.
#[derive(Debug, Clone, PartialEq)]
pub struct ClaimCheck {
    /// The claim.
    pub claim: Claim,
    /// Population size.
    pub agents: usize,
    /// Median of the per-sample time ratios, or why there is none.
    pub ratio: Result<f64, String>,
}

impl ClaimCheck {
    /// Whether the ratio exists and meets the claim's bound. A claim
    /// whose rows are missing fails, so a renamed implementation cannot
    /// drop a gate.
    pub fn passed(&self) -> bool {
        self.ratio
            .as_ref()
            .is_ok_and(|&r| self.claim.bound.holds(r))
    }

    /// One `=>` line: the ratio, its bound and the verdict.
    pub fn render(&self) -> String {
        let c = &self.claim;
        let bound = match c.bound {
            Bound::AtMost(b) => format!("bound <= {b:.2}"),
            Bound::AtLeast(b) => format!("bound >= {b:.2}"),
            Bound::Informational => "informational".to_string(),
        };
        let value = match &self.ratio {
            Ok(r) => format!("{r:.3}x"),
            Err(e) => e.clone(),
        };
        let verdict = match (self.passed(), c.bound) {
            (false, _) => ": FAILED",
            (true, Bound::Informational) => "",
            (true, _) => ": ok",
        };
        format!(
            "  => {} at {} agents: {}/{} = {value} ({bound}){verdict}\n",
            c.what, self.agents, c.numerator, c.denominator
        )
    }
}

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
    if want("csr_stepping") {
        bench_csr_stepping(effort, agent_grid, &mut results);
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
        // One round per batch: the agent-level row at 2^20+ agents is
        // the slow side and bounds the suite's wall clock.
        let rounds = 1;

        let mut engine = seeded_engine(Torus2d::new(MEGA_SIDE), agents, 9);
        let mut counts = CountsEngine::new(Torus2d::new(MEGA_SIDE), agents as u64)
            .with_seed_sequence(SeedSequence::new(9));
        counts.place_uniform(&SeedSequence::new(10));
        let impls: Vec<Batch> = vec![
            (
                "agent_level",
                rounds_of(rounds, move || engine.step_round()),
            ),
            ("counts", rounds_of(rounds, move || counts.step_round())),
        ];
        time_interleaved(
            results,
            "mega_scale",
            agents,
            1,
            agents as u64 * rounds,
            impls,
        );
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
    let mut scalar = (vec![0u32; RNG_BATCH_LEN], SmallRng::seed_from_u64(11));
    let mut seq = (vec![0u32; RNG_BATCH_LEN], SmallRng::seed_from_u64(11));
    let mut lanes = (
        vec![0u32; RNG_BATCH_LEN],
        lane_rngs(&SeedSequence::new(11), 0),
    );
    debug_assert_eq!(lanes.1.len(), RNG_LANES);
    let mut words = (vec![0u64; RNG_BATCH_LEN], SmallRng::seed_from_u64(12));
    let impls: Vec<Batch> = vec![
        (
            "scalar_draws",
            rounds_of(rounds, move || {
                let (buf, rng) = &mut scalar;
                for slot in buf.iter_mut() {
                    *slot = rng.gen_range(0..span) as u32;
                }
                std::hint::black_box(buf);
            }),
        ),
        (
            "seq_fill",
            rounds_of(rounds, move || {
                fill_uniform_indices(span, &mut seq.0, &mut seq.1);
                std::hint::black_box(&mut seq.0);
            }),
        ),
        (
            "lane_fill",
            rounds_of(rounds, move || {
                fill_uniform_indices_lanes(span, &mut lanes.0, &mut lanes.1);
                std::hint::black_box(&mut lanes.0);
            }),
        ),
        (
            "bulk_u64",
            rounds_of(rounds, move || {
                words.1.fill_u64(&mut words.0);
                std::hint::black_box(&mut words.0);
            }),
        ),
    ];
    let steps = RNG_BATCH_LEN as u64 * rounds;
    time_interleaved(results, "rng_batch", RNG_BATCH_LEN, 1, steps, impls);
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
/// workload with no structured fast path at all. Rounds step on the
/// calling thread: the group isolates the per-agent topology cost, not
/// scheduling.
fn bench_csr_stepping(effort: Effort, agent_grid: &[usize], results: &mut Vec<EngineBenchResult>) {
    let csr_torus = CsrGraph::from_topology(&Torus2d::new(SIDE));
    let mut build_rng = SmallRng::seed_from_u64(42);
    let random_regular =
        generators::random_regular(CSR_RR_NODES, CSR_RR_DEGREE, 1000, &mut build_rng)
            .expect("bench graph parameters are valid");
    for &agents in agent_grid {
        let rounds = rounds_for(agents, effort);
        let mut native = seeded_engine(Torus2d::new(SIDE), agents, 3);
        let mut csr = seeded_engine(csr_torus.clone(), agents, 3);
        let mut regular = seeded_engine(random_regular.clone(), agents, 3);
        let impls: Vec<Batch> = vec![
            (
                "torus_native",
                rounds_of(rounds, move || native.step_round()),
            ),
            ("torus_csr", rounds_of(rounds, move || csr.step_round())),
            (
                "random_regular_csr",
                rounds_of(rounds, move || regular.step_round()),
            ),
        ];
        let steps = agents as u64 * rounds;
        time_interleaved(results, "csr_stepping", agents, 1, steps, impls);
    }
}

/// The telemetry cost-model group, proving the `antdensity-telemetry`
/// budget empirically:
///
/// * `untouched` — the engine's pure round minus the gate, hand-rolled:
///   the same per-round [`SeedSequence::subsequence`] derivation, each
///   `STREAM_BLOCK` block's move indices filled by
///   [`fill_uniform_indices`] from its own stream into one buffer, the
///   same [`Topology::apply_moves`] and [`DenseOccupancy::rebuild`],
///   with **no** telemetry call sites at all;
/// * `disabled` — the instrumented [`Engine::step_round`]
///   with the global flag off: the per-round cost is exactly one
///   relaxed atomic load, so this row must sit within noise of
///   `untouched`;
/// * `enabled` — the same path with telemetry live (trace capture
///   off): plain adds into the engine's own tally every round, four
///   clock reads on one round in 16, merged into the registry when the
///   engine drops. This bounds what `repro sweep` pays for always-on
///   collection.
///
/// Each instrumented batch sets the global flag before it starts. The
/// 128-agent point is the small-population regime of the paper's
/// accuracy table, where a round takes about a microsecond and any
/// fixed per-round cost shows.
fn bench_telemetry_overhead(
    effort: Effort,
    agent_grid: &[usize],
    results: &mut Vec<EngineBenchResult>,
) {
    let was_enabled = antdensity_telemetry::enabled();
    for &agents in std::iter::once(&128).chain(agent_grid) {
        let rounds = rounds_for(agents, effort);

        let topo = Torus2d::new(SIDE);
        let span = topo
            .regular_degree()
            .map(|d| d as u64)
            .expect("the 2-d torus is regular");
        let mut positions = vec![0u32; agents];
        let mut moves = vec![0u32; agents];
        let mut occ = DenseOccupancy::new(topo.num_nodes());
        let mut rng = SmallRng::seed_from_u64(5);
        for p in positions.iter_mut() {
            *p = topo.uniform_node(&mut rng) as u32;
        }
        occ.rebuild(&positions);
        let seeds = SeedSequence::new(7);
        let mut round = 0u64;
        let untouched = move || {
            let round_seq = seeds.subsequence(round);
            for (b, chunk) in moves.chunks_mut(STREAM_BLOCK).enumerate() {
                fill_uniform_indices(span, chunk, &mut round_seq.rng(b as u64));
            }
            topo.apply_moves(&mut positions, &moves);
            occ.rebuild(&positions);
            round += 1;
        };

        let instrumented = |on: bool| {
            let mut engine =
                Engine::new(Torus2d::new(SIDE), agents).with_seed_sequence(SeedSequence::new(7));
            engine.place_uniform(&mut SmallRng::seed_from_u64(5));
            Box::new(move || {
                antdensity_telemetry::set_enabled(on);
                for _ in 0..rounds {
                    engine.step_round();
                }
            }) as Box<dyn FnMut()>
        };
        let impls: Vec<Batch> = vec![
            ("untouched", rounds_of(rounds, untouched)),
            ("disabled", instrumented(false)),
            ("enabled", instrumented(true)),
        ];
        let steps = agents as u64 * rounds;
        time_interleaved(results, "telemetry_overhead", agents, 1, steps, impls);
        antdensity_telemetry::set_enabled(false);
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
    use antdensity_sweep::{run_sweep, SweepOptions, SweepSpec};

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
    let inproc = SweepOptions {
        workers: DIST_WORKERS,
        ..SweepOptions::default()
    };
    let sim = |plan| SweepOptions {
        dist: Some(DistOptions::sim(DIST_WORKERS, plan)),
        ..inproc.clone()
    };
    let faulty = FaultPlan::parse("kill:lease2,drop:result@1").expect("bench fault plan parses");
    let spec = &spec;
    let sweep = move |opts: SweepOptions| {
        Box::new(move || {
            std::hint::black_box(run_sweep(spec, &opts).expect("bench sweep runs"));
        }) as Box<dyn FnMut()>
    };
    let impls: Vec<Batch> = vec![
        ("inproc", sweep(inproc.clone())),
        ("dist_sim", sweep(sim(FaultPlan::none()))),
        ("dist_sim_faulty", sweep(sim(faulty))),
    ];
    time_interleaved(
        results,
        "dist_sweep",
        agents,
        DIST_WORKERS,
        delivered_steps,
        impls,
    );
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

    /// Human-readable summary table plus one line per claim check.
    pub fn render(&self) -> String {
        let mut t = Table::new(
            "engine throughput",
            &["group", "impl", "agents", "workers", "ns/step", "Msteps/s"],
        );
        for r in &self.results {
            t.row_owned(vec![
                r.group.to_string(),
                r.implementation.to_string(),
                r.agents.to_string(),
                r.workers.to_string(),
                format!("{:.2}", r.ns_per_agent_step),
                format!("{:.2}", r.msteps_per_sec),
            ]);
        }
        t.note("claim ratios: median of per-batch time ratios, numerator/denominator");
        let mut out = t.render();
        for check in self.claim_checks() {
            out.push_str(&check.render());
        }
        out
    }

    /// Every [`CLAIMS`] entry of a group this report measured, at each
    /// population the group measured. A claim whose numerator or
    /// denominator row is missing there yields an error ratio, which
    /// fails.
    pub fn claim_checks(&self) -> Vec<ClaimCheck> {
        let mut checks = Vec::new();
        for claim in CLAIMS {
            let rows = || self.results.iter().filter(|r| r.group == claim.group);
            let mut populations: Vec<usize> = rows().map(|r| r.agents).collect();
            populations.sort_unstable();
            populations.dedup();
            for agents in populations {
                let row = |implementation: &str| {
                    rows()
                        .find(|r| r.implementation == implementation && r.agents == agents)
                        .ok_or_else(|| format!("no `{implementation}` row"))
                };
                let ratio = row(claim.numerator)
                    .and_then(|num| Ok((num, row(claim.denominator)?)))
                    .and_then(|(num, den)| paired_ratio(num, den));
                checks.push(ClaimCheck {
                    claim: *claim,
                    agents,
                    ratio,
                });
            }
        }
        checks
    }
}

/// Median over `i` of `num.samples_ns[i] / den.samples_ns[i]`.
fn paired_ratio(num: &EngineBenchResult, den: &EngineBenchResult) -> Result<f64, String> {
    if num.samples_ns.is_empty() || num.samples_ns.len() != den.samples_ns.len() {
        return Err(format!(
            "{} and {} samples do not pair",
            num.samples_ns.len(),
            den.samples_ns.len()
        ));
    }
    let ratios: Vec<f64> = num
        .samples_ns
        .iter()
        .zip(&den.samples_ns)
        .map(|(n, d)| n / d)
        .collect();
    Ok(median(&ratios))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A row of `group` whose batches took `samples` ns per agent-step.
    fn row(
        group: &'static str,
        implementation: &'static str,
        agents: usize,
        samples: &[f64],
    ) -> EngineBenchResult {
        EngineBenchResult::from_samples(group, implementation, agents, 1, samples.to_vec())
    }

    fn report(results: Vec<EngineBenchResult>) -> EngineBenchReport {
        EngineBenchReport {
            mode: "quick",
            samples: 5,
            results,
        }
    }

    fn tiny_report() -> EngineBenchReport {
        let mut inproc = row("dist_sweep", "inproc", 1024, &[10.0]);
        inproc.workers = 4;
        report(vec![inproc, row("rng_batch", "seq_fill", 1024, &[25.0])])
    }

    /// The ratio of the one check of `claim`'s numerator/denominator.
    fn ratio_of(r: &EngineBenchReport, numerator: &str, denominator: &str) -> f64 {
        let checks: Vec<ClaimCheck> = r
            .claim_checks()
            .into_iter()
            .filter(|c| c.claim.numerator == numerator && c.claim.denominator == denominator)
            .collect();
        assert_eq!(checks.len(), 1, "{checks:?}");
        checks[0].ratio.clone().unwrap()
    }

    #[test]
    fn csr_ratios_pair_rebuild_with_native() {
        let r = report(vec![
            row("csr_stepping", "torus_native", 1024, &[10.0, 20.0, 10.0]),
            row("csr_stepping", "torus_csr", 1024, &[12.0, 25.0, 12.5]),
            row(
                "csr_stepping",
                "random_regular_csr",
                1024,
                &[20.0, 20.0, 20.0],
            ),
        ]);
        assert!((ratio_of(&r, "torus_csr", "torus_native") - 1.25).abs() < 1e-9);
        assert!(r.claim_checks().iter().all(ClaimCheck::passed));
        let text = r.render();
        assert!(
            text.contains("CSR torus vs native torus at 1024 agents: torus_csr/torus_native = 1.250x (informational)\n"),
            "{text}"
        );
    }

    #[test]
    fn telemetry_overheads_pair_all_three_rows() {
        let mut rows = Vec::new();
        for agents in [128, 1024] {
            rows.push(row(
                "telemetry_overhead",
                "untouched",
                agents,
                &[10.0, 12.0],
            ));
            rows.push(row(
                "telemetry_overhead",
                "disabled",
                agents,
                &[10.1, 12.12],
            ));
            rows.push(row("telemetry_overhead", "enabled", agents, &[11.0, 13.2]));
        }
        let r = report(rows);
        let checks = r.claim_checks();
        assert_eq!(checks.len(), 4);
        for c in &checks {
            let want = if c.claim.numerator == "disabled" {
                1.01
            } else {
                1.1
            };
            assert!((c.ratio.clone().unwrap() - want).abs() < 1e-9, "{c:?}");
            assert!(c.passed(), "{c:?}");
        }
        let text = r.render();
        assert!(
            text.contains("telemetry on vs the round without the gate at 128 agents: enabled/untouched = 1.100x (bound <= 1.10): ok\n"),
            "{text}"
        );
    }

    #[test]
    fn dist_sweep_ratios_pair_sim_rows_with_inproc() {
        let r = report(vec![
            row("dist_sweep", "inproc", 48, &[10.0]),
            row("dist_sweep", "dist_sim", 48, &[35.0]),
            row("dist_sweep", "dist_sim_faulty", 48, &[40.0]),
        ]);
        assert!((ratio_of(&r, "dist_sim", "inproc") - 3.5).abs() < 1e-9);
        assert!((ratio_of(&r, "dist_sim_faulty", "inproc") - 4.0).abs() < 1e-9);
        assert!(r.render().contains("dist_sim_faulty/inproc = 4.000x"));
    }

    #[test]
    fn mega_scale_speedups_pair_counts_with_agent_level() {
        let r = report(vec![
            row("mega_scale", "agent_level", 1 << 20, &[9.0, 18.0, 9.0]),
            row("mega_scale", "counts", 1 << 20, &[1.0, 2.0, 1.0]),
        ]);
        assert!((ratio_of(&r, "agent_level", "counts") - 9.0).abs() < 1e-9);
        assert!(r
            .render()
            .contains("agent_level/counts = 9.000x (bound >= 5.00): ok"));
    }

    #[test]
    fn rng_batch_speedup_pairs_lane_with_sequential_fill() {
        let r = report(
            [
                ("scalar_draws", 2.8f64),
                ("seq_fill", 1.5),
                ("lane_fill", 2.0),
                ("bulk_u64", 0.8),
            ]
            .map(|(implementation, ns)| row("rng_batch", implementation, 1 << 16, &[ns]))
            .to_vec(),
        );
        assert!((ratio_of(&r, "scalar_draws", "lane_fill") - 1.4).abs() < 1e-9);
        assert!(r
            .render()
            .contains("per-draw scalar sampling vs the batched lane fill"));
    }

    /// A gated claim passes inside its bound and fails outside it, in
    /// either direction of bound, and `render` says which.
    #[test]
    fn a_claim_within_its_bound_passes_and_one_beyond_fails() {
        let telemetry = |enabled: f64| {
            report(vec![
                row("telemetry_overhead", "untouched", 128, &[10.0]),
                row("telemetry_overhead", "disabled", 128, &[10.2]),
                row("telemetry_overhead", "enabled", 128, &[enabled]),
            ])
        };
        let verdicts = |r: &EngineBenchReport| -> Vec<bool> {
            r.claim_checks().iter().map(ClaimCheck::passed).collect()
        };
        assert_eq!(verdicts(&telemetry(10.9)), [true, true]);
        let slow = telemetry(12.0);
        assert_eq!(verdicts(&slow), [true, false]);
        assert!(slow.render().contains("= 1.200x (bound <= 1.10): FAILED\n"));

        let mega = |counts: f64| {
            report(vec![
                row("mega_scale", "agent_level", 1 << 20, &[8.0]),
                row("mega_scale", "counts", 1 << 20, &[counts]),
            ])
        };
        assert_eq!(verdicts(&mega(1.0)), [true]);
        assert_eq!(verdicts(&mega(2.5)), [false]);
        // informational claims never fail on their value
        let csr = report(vec![
            row("csr_stepping", "torus_native", 1024, &[1.0]),
            row("csr_stepping", "torus_csr", 1024, &[100.0]),
        ]);
        assert_eq!(verdicts(&csr), [true]);
    }

    /// A claim of a measured group whose row is gone (a renamed
    /// implementation, a dropped population) fails instead of vanishing
    /// from the gate; groups the run did not measure are not checked.
    #[test]
    fn a_claim_with_a_missing_row_fails() {
        let renamed = report(vec![
            row("mega_scale", "agent_level", 1 << 20, &[8.0]),
            row("mega_scale", "count_based", 1 << 20, &[1.0]),
        ]);
        let checks = renamed.claim_checks();
        assert_eq!(checks.len(), 1);
        assert_eq!(checks[0].ratio, Err("no `counts` row".to_string()));
        assert!(!checks[0].passed());
        assert!(renamed
            .render()
            .contains("agent_level/counts = no `counts` row (bound >= 5.00): FAILED"));

        // one population lost its `enabled` row
        let mut rows = Vec::new();
        for agents in [128, 1024] {
            rows.push(row("telemetry_overhead", "untouched", agents, &[10.0]));
            rows.push(row("telemetry_overhead", "disabled", agents, &[10.0]));
        }
        rows.push(row("telemetry_overhead", "enabled", 128, &[10.0]));
        let failed: Vec<(usize, &str)> = report(rows)
            .claim_checks()
            .into_iter()
            .filter(|c| !c.passed())
            .map(|c| (c.agents, c.claim.numerator))
            .collect();
        assert_eq!(failed, [(1024, "enabled")]);

        // informational claims fail on missing rows too
        let inproc_only = report(vec![row("dist_sweep", "inproc", 48, &[1.0])]);
        assert!(inproc_only.claim_checks().iter().all(|c| !c.passed()));

        // a `--group rng_batch` run checks only its own claim
        let checks = tiny_report().claim_checks();
        assert!(checks.iter().all(|c| c.claim.group != "mega_scale"));
    }

    /// The gate is the median of per-sample ratios: drift shared by
    /// both sides of a cycle divides out, one disturbed cycle does not
    /// flip it, and rows that were not timed together do not pair.
    #[test]
    fn claims_gate_the_median_of_paired_ratios() {
        let r = report(vec![
            row(
                "mega_scale",
                "agent_level",
                1,
                &[40.0, 80.0, 44.0, 88.0, 500.0],
            ),
            row("mega_scale", "counts", 1, &[10.0, 20.0, 10.0, 20.0, 10.0]),
        ]);
        // per-sample 4, 4, 4.4, 4.4, 50; the row medians give 88/10
        assert!((ratio_of(&r, "agent_level", "counts") - 4.4).abs() < 1e-9);

        let unpaired = report(vec![
            row("mega_scale", "agent_level", 1, &[40.0, 40.0]),
            row("mega_scale", "counts", 1, &[10.0]),
        ]);
        let checks = unpaired.claim_checks();
        assert_eq!(
            checks[0].ratio,
            Err("2 and 1 samples do not pair".to_string())
        );
        assert!(!checks[0].passed());
    }

    #[test]
    fn every_claim_names_a_group() {
        for c in CLAIMS {
            assert!(GROUPS.contains(&c.group), "{c:?}");
        }
    }

    #[test]
    fn group_filter_runs_one_family_and_rejects_unknown_names() {
        let err = run_engine_bench_group(Effort::Quick, Some("bogus")).unwrap_err();
        assert!(err.contains("unknown bench group `bogus`"), "{err}");
        assert!(err.contains("rng_batch"), "{err}");

        // the cheapest real family: four fills over a 64k buffer
        let report = run_engine_bench_group(Effort::Quick, Some("rng_batch")).unwrap();
        assert!(report.results.iter().all(|r| r.group == "rng_batch"));
        assert!(report.results.iter().all(|r| r.samples_ns.len() == SAMPLES));
        let impls: Vec<&str> = report.results.iter().map(|r| r.implementation).collect();
        assert_eq!(impls, ["scalar_draws", "seq_fill", "lane_fill", "bulk_u64"]);
        let checks = report.claim_checks();
        assert_eq!(checks.len(), 1);
        assert!(checks[0].passed(), "{checks:?}");
    }

    #[test]
    fn json_is_well_formed_and_complete() {
        let json = tiny_report().to_json();
        assert!(json.contains("\"bench\": \"engine\""));
        assert!(json.contains("\"impl\": \"seq_fill\""));
        assert!(json.contains("\"ns_per_agent_step\": 10,"));
        // no trailing comma before the closing bracket
        assert!(!json.contains(",\n  ]"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn render_headline_shows_worker_counts() {
        // the inproc row ran 4 workers: the table shows the count after
        // the population, then the timings
        let text = tiny_report().render();
        let inproc_row: Vec<&str> = text
            .lines()
            .map(|l| l.split('|').map(str::trim).collect::<Vec<_>>())
            .find(|cells| cells.get(2) == Some(&"inproc"))
            .expect("inproc row rendered");
        assert_eq!(&inproc_row[3..6], ["1024", "4", "10.00"]);
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
