//! Count-based stepping: the occupancy-count representation for
//! memoryless pure walks.
//!
//! A pure random walk is a Markov chain on nodes, and agents carry no
//! per-agent state in the noise-free Algorithm 1 setting — so the whole
//! population is fully described by one `u64` occupancy count per node.
//! [`CountsEngine`] advances that representation directly: one round
//! splits each occupied node's count `c` uniformly across its moves,
//! the exact law of `c` independent pure-walk draws. The split takes
//! one of two samplers:
//!
//! * **Small counts** (`c ≤` [`SMALL_COUNT_MAX`]), the common case at
//!   the paper's densities `d ≤ 1`: each agent draws a uniform move
//!   index. A block's small-count agents are staged and drawn in one
//!   batched fill ([`fill_uniform_indices`]), moved by the topology's
//!   batched `apply_moves` kernel and scattered one agent at a time.
//! * **Large counts**: an exact multinomial split
//!   ([`sample_multinomial`]), `O(degree)` per node whatever `c` is —
//!   the mega-scale regime (hundreds of agents per node) the
//!   `mega_scale` bench group measures.
//!
//! Both draw from the node's `(round, COUNT_BLOCK)` stream, and both
//! have the same law, so the threshold changes bits, never the process.
//! One pass per round does all the per-node work: it reads each count
//! (empty nodes draw nothing), zeroes it (the buffer becomes the next
//! round's scatter target, so no round clears a node-sized vector), and
//! tallies the new occupancy's co-location pairs `Σ_v c_v(c_v − 1)` as
//! it scatters — [`CountsEngine::round_encounters`] is a field read.
//!
//! # The contract is distributional, not bit-stream
//!
//! The agent-level engine pins exact RNG streams per agent; collapsing
//! agents into counts necessarily abandons that. What is preserved is
//! the *law* of the process: after any number of rounds the joint
//! occupancy distribution matches the agent-level engine's exactly, and
//! the encounter totals the estimators consume are the same functional
//! `Σ_v c_v(c_v-1)` of that occupancy. Equivalence is therefore
//! validated statistically (`crates/engine/tests/counts_equivalence.rs`:
//! stationary occupancy, a χ² test of the per-node split, a KS test of
//! per-trial estimates against the agent engine), never by bit
//! comparison.
//!
//! Determinism still holds in the stronger engine sense: RNG streams
//! are derived per `(seed, round, COUNT_BLOCK-sized node block)`, and
//! parallel workers (tasks on a persistent [`WorkerPool`]) scatter into
//! their own reused accumulators, merged by exact `u64` addition — so
//! results are bit-identical for any thread count.

use crate::pool::WorkerPool;
use crate::sampling::{
    fill_uniform_indices, fill_uniform_indices_lanes, lane_rngs, sample_multinomial,
};
use antdensity_graphs::Topology;
use antdensity_stats::rng::SeedSequence;
use antdensity_telemetry as telemetry;
use std::sync::Arc;
use std::time::Instant;

// Telemetry for the counts round path, mirroring the agent engine's
// `engine.round` span so traces of mixed runs line up.
static ROUND_SPAN: telemetry::SpanMetric = telemetry::SpanMetric::new("counts.round");
static ROUNDS_COUNTER: telemetry::LazyCounter = telemetry::LazyCounter::new("counts.rounds");
static AGENT_STEPS: telemetry::LazyCounter = telemetry::LazyCounter::new("counts.agent_steps");

/// Nodes per RNG stream block: block `b` of round `r` draws the stream
/// `seeds.subsequence(r).rng(b)`, the same `(round, block)` derivation
/// scheme as the agent engine's [`crate::STREAM_BLOCK`] contract, so
/// scheduling and worker count never change results.
pub const COUNT_BLOCK: u64 = 1024;

/// Largest node count split by per-agent uniform draws; larger counts
/// take the multinomial split. At 16 the batched draws still cost less
/// than a chain of `degree − 1` binomials, and at the paper's densities
/// almost every occupied node sits below it.
pub const SMALL_COUNT_MAX: u64 = 16;

/// Largest population a [`CountsEngine`] holds: its per-round pair
/// tally, at most `n(n − 1)`, is then exact in `u64`.
pub const MAX_AGENTS: u64 = 1 << 32;

/// Version of the counts sampling scheme. A trajectory is a pure
/// function of the seed and this version; it moves whenever a change
/// moves trajectory bits, so sweep fingerprints (which carry it) orphan
/// checkpoints and cached shards of an older scheme. Version 1 split
/// every node multinomially; version 2 stages small counts.
pub const COUNTS_SAMPLER_VERSION: u32 = 2;

/// Placement draws are lane-filled in chunks of this many node indices.
const PLACE_CHUNK: usize = 1 << 14;

/// Counts up to this stage without a branch: every node writes this
/// many copies of its id and advances the stage cursor by its count.
const STAGE_WIDTH: usize = 4;

/// Stage slots one block can fill: every agent below the threshold,
/// plus one unconditional write's overhang.
const STAGE: usize = (COUNT_BLOCK * SMALL_COUNT_MAX) as usize + STAGE_WIDTH;

/// Per-worker split scratch, sized once at construction.
#[derive(Debug, Clone)]
struct SplitScratch {
    /// Multinomial output, one slot per move of the widest node.
    split: Vec<u64>,
    /// Staged small-count agents' nodes, moved in place by [`flush`].
    nodes: Vec<u32>,
    /// Staged small-count agents' move indices.
    moves: Vec<u32>,
}

impl SplitScratch {
    fn new(max_degree: usize) -> Self {
        Self {
            split: vec![0; max_degree],
            nodes: vec![0; STAGE],
            moves: vec![0; STAGE],
        }
    }
}

/// One parallel worker's reused state: a node-sized accumulator (all
/// zero between rounds — the merge clears what it reads) and its split
/// scratch.
#[derive(Debug, Clone)]
struct Lane {
    acc: Vec<u64>,
    scratch: SplitScratch,
}

/// The degree facts a split pass reads, hoisted once per engine.
#[derive(Debug, Clone)]
struct Degrees {
    /// Every node's degree, when the topology is regular.
    regular: Option<usize>,
    /// Equal multinomial weights, one per move of the widest node.
    ones: Vec<f64>,
}

/// Adds `k` agents to `acc[v]` and returns the growth of
/// `acc[v]·(acc[v] − 1)`: `(c + k)(c + k − 1) − c(c − 1) = k(2c + k − 1)`.
/// Summed over a round's scatters into a zeroed accumulator, that is the
/// new occupancy's `Σ_v c_v(c_v − 1)`, at most `n(n − 1)` — exact in
/// `u64` for up to [`MAX_AGENTS`] agents.
#[inline]
fn bump(acc: &mut [u64], v: usize, k: u64) -> u64 {
    let c = acc[v];
    acc[v] = c + k;
    k * (2 * c + k - 1)
}

/// Draws a move for each staged agent from the block's stream — one
/// batched fill on a regular topology, one draw per agent otherwise —
/// then moves them through the topology's batched
/// [`Topology::apply_moves`] kernel and scatters them into `acc`.
/// Returns their pair tally.
fn flush<T: Topology, R: rand::RngCore>(
    topo: &T,
    regular: Option<usize>,
    nodes: &mut [u32],
    moves: &mut [u32],
    rng: &mut R,
    acc: &mut [u64],
) -> u64 {
    match regular {
        Some(d) => fill_uniform_indices(d as u64, moves, rng),
        None => {
            for (m, &v) in moves.iter_mut().zip(nodes.iter()) {
                fill_uniform_indices(
                    topo.degree(u64::from(v)) as u64,
                    std::slice::from_mut(m),
                    rng,
                );
            }
        }
    }
    topo.apply_moves(nodes, moves);
    nodes.iter().map(|&v| bump(acc, v as usize, 1)).sum()
}

/// Splits the counts of nodes `lo..lo + counts.len()` into `acc`,
/// zeroing each block once it is read, and returns the pair tally of the
/// scattered agents ([`bump`]). `lo` is block-aligned, so block `b`
/// always draws `round_seq.rng(b)` whatever range a worker holds.
///
/// Within a block, nodes are visited in order: empty nodes draw
/// nothing, large-count nodes split on the spot, and small-count nodes
/// stage their agents. The staged agents then draw their moves, in node
/// order, after the block's last multinomial ([`flush`]).
fn split_nodes<T: Topology>(
    topo: &T,
    degrees: &Degrees,
    round_seq: &SeedSequence,
    lo: u64,
    counts: &mut [u64],
    acc: &mut [u64],
    scratch: &mut SplitScratch,
) -> u64 {
    debug_assert_eq!(lo % COUNT_BLOCK, 0, "worker ranges are block-aligned");
    let SplitScratch {
        split,
        nodes: staged_nodes,
        moves: staged_moves,
    } = scratch;
    let mut pairs = 0u64;
    for (b, block) in counts.chunks_mut(COUNT_BLOCK as usize).enumerate() {
        let first = lo + b as u64 * COUNT_BLOCK;
        let mut rng = round_seq.rng(first / COUNT_BLOCK);
        let mut staged = 0usize;
        for (offset, &c) in block.iter().enumerate() {
            let node = first + offset as u64;
            if c as usize <= STAGE_WIDTH {
                // The d ≤ 1 common case, empty nodes included: no branch
                // on the count, and no draws until the flush.
                staged_nodes[staged..staged + STAGE_WIDTH].fill(node as u32);
                staged += c as usize;
            } else if c <= SMALL_COUNT_MAX {
                staged_nodes[staged..staged + c as usize].fill(node as u32);
                staged += c as usize;
            } else {
                let d = degrees.regular.unwrap_or_else(|| topo.degree(node));
                let split = &mut split[..d];
                sample_multinomial(c, &degrees.ones[..d], split, &mut rng);
                for (i, &k) in split.iter().enumerate() {
                    if k > 0 {
                        pairs += bump(acc, topo.neighbor(node, i) as usize, k);
                    }
                }
            }
        }
        block.fill(0);
        pairs += flush(
            topo,
            degrees.regular,
            &mut staged_nodes[..staged],
            &mut staged_moves[..staged],
            &mut rng,
            acc,
        );
    }
    pairs
}

fn assert_agents(num_agents: u64) {
    assert!(
        num_agents <= MAX_AGENTS,
        "count-based stepping tallies pairs in u64; {num_agents} agents out of range"
    );
}

/// `Σ_v c_v(c_v − 1)` over `counts`.
fn pair_count(counts: &[u64]) -> u64 {
    counts.iter().map(|&c| c * c.saturating_sub(1)).sum()
}

/// The occupancy-count twin of [`crate::Engine`] for pure-walk,
/// noise-free, estimator-agnostic populations: state is one `u64` count
/// per node, a round is one split pass over the occupied nodes.
///
/// # Example
///
/// ```
/// use antdensity_engine::counts::CountsEngine;
/// use antdensity_graphs::Torus2d;
/// use antdensity_stats::rng::SeedSequence;
///
/// let mut engine = CountsEngine::new(Torus2d::new(16), 1_000)
///     .with_seed_sequence(SeedSequence::new(7));
/// engine.place_uniform(&SeedSequence::new(1));
/// engine.step_round();
/// assert_eq!(engine.total_agents(), 1_000);
/// ```
#[derive(Debug, Clone)]
pub struct CountsEngine<T: Topology> {
    topo: T,
    /// Current occupancy: `counts[v]` agents sit on node `v`.
    counts: Vec<u64>,
    /// The buffer the next round scatters into; all zero between
    /// rounds (the split pass zeroes `counts` as it reads, then swaps).
    next: Vec<u64>,
    /// `Σ_v c_v(c_v − 1)` of `counts`.
    pairs: u64,
    round: u64,
    num_agents: u64,
    seeds: SeedSequence,
    threads: usize,
    /// Explicit pool for parallel rounds; `None` = the global pool.
    pool: Option<Arc<WorkerPool>>,
    degrees: Degrees,
    /// The single-worker split scratch.
    scratch: SplitScratch,
    /// Parallel workers' reused accumulators, grown on first use.
    lanes: Vec<Lane>,
}

impl<T: Topology> CountsEngine<T> {
    /// Creates an engine with all `num_agents` unplaced (call
    /// [`Self::place_uniform`] before stepping, or seed counts via
    /// [`Self::set_counts`]).
    ///
    /// # Panics
    ///
    /// Panics if the topology exceeds the `2^32`-node index domain the
    /// batched samplers pack into, or `num_agents` exceeds
    /// [`MAX_AGENTS`].
    pub fn new(topo: T, num_agents: u64) -> Self {
        let nodes = topo.num_nodes();
        assert!(
            nodes <= 1 << 32,
            "count-based stepping packs node indices into u32; {nodes} nodes out of range"
        );
        assert_agents(num_agents);
        let regular = topo.regular_degree();
        let max_degree =
            regular.unwrap_or_else(|| (0..nodes).map(|v| topo.degree(v)).max().unwrap_or(1));
        Self {
            counts: vec![0; nodes as usize],
            next: vec![0; nodes as usize],
            pairs: 0,
            round: 0,
            num_agents,
            seeds: SeedSequence::new(0),
            threads: 1,
            pool: None,
            degrees: Degrees {
                regular,
                ones: vec![1.0; max_degree],
            },
            scratch: SplitScratch::new(max_degree),
            lanes: Vec::new(),
            topo,
        }
    }

    /// Sets the seed sequence the per-`(round, block)` streams derive
    /// from.
    #[must_use]
    pub fn with_seed_sequence(mut self, seeds: SeedSequence) -> Self {
        self.seeds = seeds;
        self
    }

    /// Requests up to `threads` workers for the round splits. Results
    /// are bit-identical for every value.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Dispatches parallel rounds onto an explicit [`WorkerPool`]
    /// instead of the process-global one. Results are pool-independent.
    #[must_use]
    pub fn with_worker_pool(mut self, pool: Arc<WorkerPool>) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Places all agents uniformly at random, replacing any existing
    /// occupancy. Node indices are drawn through the lane-interleaved
    /// batched sampler ([`fill_uniform_indices_lanes`]) seeded from
    /// `seq`'s lane streams `0..RNG_LANES`.
    pub fn place_uniform(&mut self, seq: &SeedSequence) {
        self.counts.iter_mut().for_each(|c| *c = 0);
        let mut lanes = lane_rngs(seq, 0);
        let mut buf = vec![0u32; PLACE_CHUNK];
        let mut remaining = self.num_agents;
        while remaining > 0 {
            let take = remaining.min(PLACE_CHUNK as u64) as usize;
            let chunk = &mut buf[..take];
            fill_uniform_indices_lanes(self.topo.num_nodes(), chunk, &mut lanes);
            for &v in chunk.iter() {
                self.counts[v as usize] += 1;
            }
            remaining -= take as u64;
        }
        self.pairs = pair_count(&self.counts);
        self.round = 0;
    }

    /// Replaces the occupancy wholesale (test/interop hook; the normal
    /// entry is [`Self::place_uniform`]).
    ///
    /// # Panics
    ///
    /// Panics if `counts` does not have one slot per node, or if their
    /// total — which becomes the engine's agent count — exceeds
    /// [`MAX_AGENTS`].
    pub fn set_counts(&mut self, counts: &[u64]) {
        assert_eq!(
            counts.len(),
            self.counts.len(),
            "one count per node ({} nodes)",
            self.counts.len()
        );
        self.num_agents = counts.iter().sum();
        assert_agents(self.num_agents);
        self.counts.copy_from_slice(counts);
        self.pairs = pair_count(counts);
        self.round = 0;
    }

    /// The occupancy counts, one per node.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Rounds stepped so far.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The population size this engine was built for.
    pub fn num_agents(&self) -> u64 {
        self.num_agents
    }

    /// The topology stepped on.
    pub fn topology(&self) -> &T {
        &self.topo
    }

    /// Current total occupancy across all nodes — conserved by every
    /// round (each split preserves its count exactly).
    pub fn total_agents(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Ordered co-location pairs in the current occupancy,
    /// `Σ_v c_v·(c_v − 1)` — each agent on `v` encounters the `c_v − 1`
    /// others, which is exactly the per-round total Algorithm 1's
    /// per-agent counters sum to in the agent-level engine. Tallied
    /// while the occupancy was built, so this is `O(1)`; `u128` so run
    /// totals over many rounds add up without overflow.
    pub fn round_encounters(&self) -> u128 {
        u128::from(self.pairs)
    }
}

impl<T: Topology + Sync> CountsEngine<T> {
    /// Advances one synchronous round: every node's count is split
    /// uniformly across its moves, the exact law of `count` independent
    /// pure-walk steps. Deterministic in `(seed sequence, round)` alone
    /// — thread count never changes the result, because block streams
    /// are fixed and workers merge by exact addition.
    pub fn step_round(&mut self) {
        let observe = telemetry::enabled();
        let t0 = observe.then(Instant::now);
        let nodes = self.topo.num_nodes();
        let round_seq = self.seeds.subsequence(self.round);
        let num_blocks = nodes.div_ceil(COUNT_BLOCK);
        let workers = self.threads.min(num_blocks as usize).max(1);
        self.pairs = if workers <= 1 {
            split_nodes(
                &self.topo,
                &self.degrees,
                &round_seq,
                0,
                &mut self.counts,
                &mut self.next,
                &mut self.scratch,
            )
        } else {
            self.split_parallel(&round_seq, workers, num_blocks)
        };
        std::mem::swap(&mut self.counts, &mut self.next);
        self.round += 1;
        debug_assert_eq!(
            self.total_agents(),
            self.num_agents,
            "splits conserve the population"
        );
        debug_assert!(self.next.iter().all(|&c| c == 0), "scatter target cleared");
        if let Some(t0) = t0 {
            let total_ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
            ROUNDS_COUNTER.add(1);
            AGENT_STEPS.add(self.num_agents);
            let msteps_per_sec = if total_ns > 0 {
                self.num_agents as f64 * 1e3 / total_ns as f64
            } else {
                0.0
            };
            ROUND_SPAN.record_interval_at(
                t0,
                0,
                total_ns,
                &[
                    ("agents", self.num_agents as f64),
                    ("msteps_per_sec", msteps_per_sec),
                ],
            );
        }
    }

    /// The parallel round as two pool batches. Split: worker `w` owns a
    /// contiguous block-aligned node range and scatters into its own
    /// accumulator. Merge: each task sums one node range of every
    /// accumulator into `next`, clearing what it reads, and tallies the
    /// pairs of the merged counts. Returns that tally.
    fn split_parallel(&mut self, round_seq: &SeedSequence, workers: usize, num_blocks: u64) -> u64 {
        let nodes = self.counts.len();
        let max_degree = self.degrees.ones.len();
        self.lanes.resize_with(workers, || Lane {
            acc: vec![0; nodes],
            scratch: SplitScratch::new(max_degree),
        });
        let range = (num_blocks.div_ceil(workers as u64) * COUNT_BLOCK) as usize;
        let pool = self.pool.as_deref().unwrap_or_else(|| WorkerPool::global());
        let (topo, degrees) = (&self.topo, &self.degrees);
        let split: Vec<Box<dyn FnOnce() + Send + '_>> = self
            .counts
            .chunks_mut(range)
            .zip(self.lanes.iter_mut())
            .enumerate()
            .map(|(w, (counts, lane))| {
                Box::new(move || {
                    let lo = (w * range) as u64;
                    split_nodes(
                        topo,
                        degrees,
                        round_seq,
                        lo,
                        counts,
                        &mut lane.acc,
                        &mut lane.scratch,
                    );
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        pool.run(split);

        let mut acc_ranges: Vec<_> = self
            .lanes
            .iter_mut()
            .map(|lane| lane.acc.chunks_mut(range))
            .collect();
        let mut tallies = vec![0u64; self.next.len().div_ceil(range)];
        let merge: Vec<Box<dyn FnOnce() + Send + '_>> = self
            .next
            .chunks_mut(range)
            .zip(tallies.iter_mut())
            .map(|(next, tally)| {
                let accs: Vec<&mut [u64]> = acc_ranges
                    .iter_mut()
                    .map(|it| it.next().expect("one range per accumulator"))
                    .collect();
                Box::new(move || {
                    for acc in accs {
                        for (slot, k) in next.iter_mut().zip(acc.iter_mut()) {
                            *slot += std::mem::take(k);
                        }
                    }
                    *tally = pair_count(next);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        pool.run(merge);
        tallies.iter().sum()
    }

    /// Runs `rounds` rounds.
    pub fn run(&mut self, rounds: u64) {
        for _ in 0..rounds {
            self.step_round();
        }
    }
}

/// What a count-based Algorithm 1 run reports: the population-mean
/// density estimate (individual per-agent estimates do not exist in the
/// collapsed representation — their *mean* is a pure function of the
/// occupancy trajectory).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CountsOutcome {
    /// Rounds executed.
    pub rounds: u64,
    /// Population size.
    pub num_agents: u64,
    /// The quantity Algorithm 1 estimates, `d = (n − 1) / A`.
    pub true_density: f64,
    /// Ordered co-location pairs summed over all executed rounds.
    pub total_encounters: u128,
    /// Population mean of the per-agent Algorithm 1 estimates
    /// `c / t`: `total_encounters / (num_agents · rounds)`.
    pub mean_estimate: f64,
}

impl CountsOutcome {
    /// Assembles an outcome from a finished run's tallies.
    pub fn from_tallies(rounds: u64, num_agents: u64, nodes: u64, total_encounters: u128) -> Self {
        let mean_estimate = if rounds > 0 && num_agents > 0 {
            total_encounters as f64 / (num_agents as f64 * rounds as f64)
        } else {
            0.0
        };
        Self {
            rounds,
            num_agents,
            true_density: if nodes > 0 {
                (num_agents.saturating_sub(1)) as f64 / nodes as f64
            } else {
                0.0
            },
            total_encounters,
            mean_estimate,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use antdensity_graphs::{CsrGraph, Hypercube, Ring, Torus2d};

    #[test]
    fn placement_reaches_every_agent_and_only_valid_nodes() {
        let mut engine = CountsEngine::new(Torus2d::new(8), 5_000);
        engine.place_uniform(&SeedSequence::new(3));
        assert_eq!(engine.total_agents(), 5_000);
        assert_eq!(engine.counts().len(), 64);
    }

    #[test]
    fn rounds_conserve_population_on_every_topology() {
        fn conserve<T: Topology + Sync>(topo: T, n: u64) {
            let mut engine = CountsEngine::new(topo, n).with_seed_sequence(SeedSequence::new(11));
            engine.place_uniform(&SeedSequence::new(5));
            for _ in 0..20 {
                engine.step_round();
                assert_eq!(engine.total_agents(), n);
            }
        }
        conserve(Torus2d::new(8), 3_000);
        conserve(Ring::new(50), 777);
        conserve(Hypercube::new(5), 12);
        conserve(CsrGraph::from_topology(&Torus2d::new(8)), 3_000);
    }

    #[test]
    fn same_seed_same_trajectory() {
        let mut a =
            CountsEngine::new(Torus2d::new(16), 10_000).with_seed_sequence(SeedSequence::new(42));
        let mut b =
            CountsEngine::new(Torus2d::new(16), 10_000).with_seed_sequence(SeedSequence::new(42));
        a.place_uniform(&SeedSequence::new(9));
        b.place_uniform(&SeedSequence::new(9));
        for _ in 0..10 {
            a.step_round();
            b.step_round();
            assert_eq!(a.counts(), b.counts());
        }
    }

    #[test]
    fn thread_count_never_changes_counts() {
        // 16·16 torus = 256 nodes < COUNT_BLOCK, so also cover a
        // topology with several blocks. Explicit pools narrower and
        // wider than the request: split ranges follow `threads`, never
        // the pool. The per-round pair tallies must agree too.
        let run = |side: u64, threads: usize, pool: Option<usize>| {
            let mut e = CountsEngine::new(Torus2d::new(side), 50_000)
                .with_seed_sequence(SeedSequence::new(7))
                .with_threads(threads);
            if let Some(p) = pool {
                e = e.with_worker_pool(Arc::new(WorkerPool::new(p)));
            }
            e.place_uniform(&SeedSequence::new(2));
            let mut pairs = Vec::new();
            for _ in 0..8 {
                e.step_round();
                pairs.push(e.round_encounters());
            }
            (e.counts().to_vec(), pairs)
        };
        for side in [16u64, 64] {
            let reference = run(side, 1, None);
            for (threads, pool) in [
                (2usize, None),
                (3, None),
                (8, None),
                (2, Some(1)),
                (3, Some(4)),
            ] {
                assert_eq!(
                    run(side, threads, pool),
                    reference,
                    "side {side} threads {threads} pool {pool:?}"
                );
            }
        }
    }

    #[test]
    fn splits_conserve_at_the_sampler_boundaries() {
        // Node counts straddling both sampler thresholds — the
        // branch-free stage width and SMALL_COUNT_MAX — on a regular
        // torus, a path (two degree-1 ends) and a star (degree-1 leaves
        // around one wide hub). Every round must conserve agents, and
        // the tally folded into the scatter must equal a fresh count.
        fn fresh_pairs(counts: &[u64]) -> u128 {
            counts
                .iter()
                .map(|&c| u128::from(c) * u128::from(c.saturating_sub(1)))
                .sum()
        }
        fn check<T: Topology + Sync + Clone>(label: &str, topo: T) {
            let pattern = [
                0,
                1,
                STAGE_WIDTH as u64,
                STAGE_WIDTH as u64 + 1,
                SMALL_COUNT_MAX,
                SMALL_COUNT_MAX + 1,
                3 * SMALL_COUNT_MAX,
            ];
            let nodes = topo.num_nodes() as usize;
            let counts: Vec<u64> = (0..nodes).map(|v| pattern[v % pattern.len()]).collect();
            let mut finals = Vec::new();
            for threads in [1usize, 3] {
                let mut e = CountsEngine::new(topo.clone(), 0)
                    .with_seed_sequence(SeedSequence::new(5))
                    .with_threads(threads);
                e.set_counts(&counts);
                assert_eq!(e.round_encounters(), fresh_pairs(&counts));
                let n = e.num_agents();
                for round in 0..8 {
                    e.step_round();
                    assert_eq!(e.total_agents(), n, "{label} round {round}");
                    assert_eq!(
                        e.round_encounters(),
                        fresh_pairs(e.counts()),
                        "{label} round {round}"
                    );
                }
                finals.push(e.counts().to_vec());
            }
            assert_eq!(finals[0], finals[1], "{label}: threads changed the counts");
        }
        check("torus", Torus2d::new(48));
        check("ring", Ring::new(2_100));
        check("path", antdensity_graphs::generators::path_graph(2_100));
        check("star", antdensity_graphs::generators::star_graph(1_500));
    }

    #[test]
    fn degree_one_nodes_send_every_agent_to_their_neighbor() {
        let path = antdensity_graphs::generators::path_graph(3);
        for c in [1, SMALL_COUNT_MAX, SMALL_COUNT_MAX + 1] {
            let mut e = CountsEngine::new(path.clone(), 0);
            e.set_counts(&[c, 0, c]);
            e.step_round();
            assert_eq!(e.counts(), &[0, 2 * c, 0]);
            assert_eq!(e.round_encounters(), u128::from(2 * c * (2 * c - 1)));
        }
    }

    #[test]
    #[should_panic(expected = "agents out of range")]
    fn populations_beyond_the_u64_pair_tally_are_rejected() {
        CountsEngine::new(Ring::new(4), 0).set_counts(&[MAX_AGENTS, 1, 0, 0]);
    }

    #[test]
    fn encounters_match_handcount() {
        let mut engine = CountsEngine::new(Ring::new(4), 0);
        engine.set_counts(&[3, 1, 0, 2]);
        // 3·2 + 1·0 + 0 + 2·1 = 8
        assert_eq!(engine.round_encounters(), 8);
        assert_eq!(engine.num_agents(), 6);
    }

    #[test]
    fn outcome_math_is_the_algorithm1_mean() {
        let o = CountsOutcome::from_tallies(10, 100, 64, 500);
        assert_eq!(o.mean_estimate, 0.5);
        assert!((o.true_density - 99.0 / 64.0).abs() < 1e-12);
        let empty = CountsOutcome::from_tallies(0, 0, 64, 0);
        assert_eq!(empty.mean_estimate, 0.0);
    }
}
