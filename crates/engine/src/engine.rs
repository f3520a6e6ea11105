//! The batched simulation engine: struct-of-arrays agent state, dense
//! occupancy, and deterministic parallel stepping on a persistent
//! worker pool.
//!
//! [`Engine`] holds the whole population as flat arrays (positions,
//! movement models, group tags) plus [`DenseOccupancy`]/[`GroupOccupancy`]
//! buffers that are *reset via touched lists* instead of rebuilt from
//! scratch — the cost per round is O(agents), independent of the node
//! count and free of hashing.
//!
//! Two stepping modes:
//!
//! * [`Engine::step_round`] — draws from a caller-supplied RNG in the
//!   historical sequential order (agent by agent, so pre-engine seeds
//!   reproduce bit-for-bit; `engine/tests/engine_equivalence.rs` pins
//!   this against a replica of the original stepper);
//! * [`Engine::step_round_parallel`] — agents are partitioned into fixed
//!   [`STREAM_BLOCK`]-sized blocks and block `b` of round `r` draws from
//!   an RNG derived from `(seed sequence, round, block index)`. The
//!   stream an agent consumes depends only on its block, never on the
//!   worker that happened to run it, so results are **bit-identical for
//!   any worker count, chunk size, or scheduling order** — the same
//!   contract as [`crate::pool::run_trials`]. Work is
//!   dispatched in [`EngineConfig::schedule_chunk`]-sized units onto a
//!   persistent [`WorkerPool`] (no per-round thread spawns).
//!
//! Both modes route pure-walk populations on regular topologies through
//! the batched monomorphized kernel
//! ([`crate::step::step_slice_pure_batched`]), which draws the identical
//! RNG stream — the fast path is invisible in results. The parallel mode
//! also routes populations that all share one `lazy:p` model on a
//! regular power-of-two-span topology through the batched lazy kernel
//! (`step::step_block_lazy`). That kernel draws words it may not
//! use, which only a per-block stream can absorb, so `step_round` keeps
//! the per-agent kernel for them.

use crate::config::{EngineConfig, STREAM_BLOCK};
use crate::movement::MovementModel;
use crate::occupancy::{DenseOccupancy, GroupOccupancy, MAX_NODES};
use crate::pool::{default_threads, WorkerPool};
use crate::sampling::fill_uniform_indices;
use crate::step::{step_block_lazy, step_slice, step_slice_pure_batched, Interaction};
use antdensity_graphs::{MoveScratch, NodeId, Topology};
use antdensity_stats::rng::SeedSequence;
use antdensity_telemetry as telemetry;
use rand::RngCore;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

// Telemetry metrics for the parallel round path. `step_round` (the
// legacy sequential kernel) stays deliberately uninstrumented so the
// `telemetry_overhead` bench has an untouched comparator.
static ROUND_SPAN: telemetry::SpanMetric = telemetry::SpanMetric::new("engine.round");
static DRAW_SPAN: telemetry::SpanMetric = telemetry::SpanMetric::new("engine.rng_draw");
static APPLY_SPAN: telemetry::SpanMetric = telemetry::SpanMetric::new("engine.apply_moves");
static OCC_SPAN: telemetry::SpanMetric = telemetry::SpanMetric::new("engine.occupancy_rebuild");
static ROUNDS_COUNTER: telemetry::LazyCounter = telemetry::LazyCounter::new("engine.rounds");
static AGENT_STEPS: telemetry::LazyCounter = telemetry::LazyCounter::new("engine.agent_steps");

/// Identifier of an agent within an engine: `0 .. num_agents`.
pub type AgentId = usize;

/// Identifier of a property group.
pub type GroupId = usize;

/// Pre-worker-pool name for the parallel determinism granularity, kept
/// for callers of the original API. The constant it aliases is
/// [`STREAM_BLOCK`]; scheduling is configured separately via
/// [`EngineConfig::schedule_chunk`].
pub const PARALLEL_CHUNK: usize = STREAM_BLOCK;

/// The synchronous multi-agent world of Section 2, batched.
///
/// # Example
///
/// ```
/// use antdensity_engine::Engine;
/// use antdensity_graphs::Torus2d;
/// use rand::SeedableRng;
/// use rand::rngs::SmallRng;
///
/// let mut rng = SmallRng::seed_from_u64(1);
/// let mut engine = Engine::new(Torus2d::new(16), 10);
/// engine.place_uniform(&mut rng);
/// for _ in 0..5 {
///     engine.step_round(&mut rng);
/// }
/// assert_eq!(engine.round(), 5);
/// let total: u32 = (0..10).map(|a| engine.count(a)).sum();
/// assert_eq!(total % 2, 0); // collisions are counted by both parties
/// ```
#[derive(Debug, Clone)]
pub struct Engine<T: Topology> {
    topo: T,
    positions: Vec<u32>,
    movement: Vec<MovementModel>,
    groups: Vec<Option<GroupId>>,
    round: u64,
    occ: DenseOccupancy,
    group_occ: GroupOccupancy,
    interaction: Interaction,
    placed: bool,
    seeds: SeedSequence,
    threads: usize,
    config: EngineConfig,
    pool: Option<Arc<WorkerPool>>,
    /// `regular_degree()` as a sampling span, cached at construction —
    /// `Some` enables the batched pure-walk kernel.
    regular_span: Option<u64>,
    /// Number of agents whose movement model is not `Pure`; the batched
    /// kernel engages only at zero.
    impure_movers: usize,
    /// `Some(p)` while every agent walks `Lazy { stay_prob: p }`: set by
    /// [`Self::set_movement_all`], cleared by any per-agent change to
    /// another model. The batched lazy kernel engages only when set.
    shared_lazy: Option<f64>,
    /// Whole-round move-index buffer for the cache-blocked mega path
    /// (empty until the first blocked round; reused afterwards).
    moves_scratch: Vec<u32>,
    /// Tile-partition buffers for the blocked gather, likewise reused.
    tile_scratch: MoveScratch,
}

impl<T: Topology> Engine<T> {
    /// Creates an engine with `num_agents` agents, all using the paper's
    /// pure random walk, unplaced until [`Self::place_uniform`] or
    /// [`Self::place_at`].
    ///
    /// # Panics
    ///
    /// Panics if `num_agents == 0` or the topology has more than
    /// [`MAX_NODES`] nodes.
    pub fn new(topo: T, num_agents: usize) -> Self {
        assert!(num_agents > 0, "arena needs at least one agent");
        let nodes = topo.num_nodes();
        assert!(
            nodes <= MAX_NODES,
            "dense engine supports at most {MAX_NODES} nodes, got {nodes}"
        );
        let regular_span = topo
            .regular_degree()
            .map(|d| d as u64)
            .filter(|&d| d > 0 && d <= (1 << 32));
        Self {
            topo,
            positions: vec![0; num_agents],
            movement: vec![MovementModel::Pure; num_agents],
            groups: vec![None; num_agents],
            round: 0,
            occ: DenseOccupancy::new(nodes),
            group_occ: GroupOccupancy::new(nodes),
            interaction: Interaction::pure(),
            placed: false,
            seeds: SeedSequence::default(),
            threads: 1,
            config: EngineConfig::default(),
            pool: None,
            regular_span,
            impure_movers: 0,
            shared_lazy: None,
            moves_scratch: Vec::new(),
            tile_scratch: MoveScratch::new(),
        }
    }

    /// Sets the seed sequence that drives [`Self::step_round_parallel`].
    pub fn with_seed_sequence(mut self, seeds: SeedSequence) -> Self {
        self.seeds = seeds;
        self
    }

    /// Sets the worker count for [`Self::step_round_parallel`]. The
    /// results never depend on this value — only the wall clock does.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads > 0, "need at least one worker thread");
        self.threads = threads;
        self
    }

    /// Replaces the scheduling configuration. Every setting changes wall
    /// clock only; results are bit-identical for all valid configs (see
    /// [`EngineConfig`]).
    ///
    /// # Panics
    ///
    /// Panics if the config is invalid ([`EngineConfig::validate`]).
    pub fn with_config(mut self, config: EngineConfig) -> Self {
        config.validate();
        self.config = config;
        self
    }

    /// Dispatches parallel rounds onto an explicit [`WorkerPool`] instead
    /// of the process-global one — for embedders that isolate workloads,
    /// and for tests that pin an exact worker count regardless of the
    /// machine. Results are unaffected.
    pub fn with_worker_pool(mut self, pool: Arc<WorkerPool>) -> Self {
        self.pool = Some(pool);
        self
    }

    /// The active scheduling configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The topology agents live on.
    pub fn topology(&self) -> &T {
        &self.topo
    }

    /// Number of agents.
    pub fn num_agents(&self) -> usize {
        self.positions.len()
    }

    /// Rounds executed so far.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Population density `d = n/A` under the paper's convention
    /// (Section 2.1): with `n+1` agents present, `d` counts the *other*
    /// agents, so a lone agent sees density 0.
    pub fn density(&self) -> f64 {
        (self.num_agents() as f64 - 1.0) / self.topo.num_nodes() as f64
    }

    /// Places every agent at an independent uniformly random node (the
    /// paper's initial condition) and resets the round counter.
    pub fn place_uniform<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
        for p in self.positions.iter_mut() {
            *p = self.topo.uniform_node(rng) as u32;
        }
        self.round = 0;
        self.placed = true;
        self.rebuild_occupancy();
    }

    /// Places agents at explicit positions (adversarial configurations)
    /// and resets the round counter.
    ///
    /// # Panics
    ///
    /// Panics if the slice length differs from the agent count or a
    /// position is out of range.
    pub fn place_at(&mut self, positions: &[NodeId]) {
        assert_eq!(
            positions.len(),
            self.positions.len(),
            "position count must equal agent count"
        );
        for &p in positions {
            assert!(p < self.topo.num_nodes(), "position {p} out of range");
        }
        for (slot, &p) in self.positions.iter_mut().zip(positions) {
            *slot = p as u32;
        }
        self.round = 0;
        self.placed = true;
        self.rebuild_occupancy();
    }

    /// Sets one agent's movement model.
    ///
    /// # Panics
    ///
    /// Panics if `agent` is out of range.
    pub fn set_movement(&mut self, agent: AgentId, model: MovementModel) {
        let was_pure = matches!(self.movement[agent], MovementModel::Pure);
        let is_pure = matches!(model, MovementModel::Pure);
        match (was_pure, is_pure) {
            (true, false) => self.impure_movers += 1,
            (false, true) => self.impure_movers -= 1,
            _ => {}
        }
        if self
            .shared_lazy
            .is_some_and(|p| model != MovementModel::Lazy { stay_prob: p })
        {
            self.shared_lazy = None;
        }
        self.movement[agent] = model;
    }

    /// Sets every agent's movement model.
    pub fn set_movement_all(&mut self, model: &MovementModel) {
        self.impure_movers = if matches!(model, MovementModel::Pure) {
            0
        } else {
            self.movement.len()
        };
        // An out-of-range probability stays on the per-agent kernel,
        // whose `gen_bool` rejects it.
        self.shared_lazy = match *model {
            MovementModel::Lazy { stay_prob } if (0.0..=1.0).contains(&stay_prob) => {
                Some(stay_prob)
            }
            _ => None,
        };
        for m in self.movement.iter_mut() {
            *m = model.clone();
        }
    }

    /// Declares that groups `0..count` exist (even if some end up empty),
    /// so [`Self::count_in_group`] is queryable for all of them.
    pub fn declare_groups(&mut self, count: usize) {
        self.group_occ.ensure_groups(count);
    }

    /// Assigns `agent` to property `group` (replacing any previous group).
    ///
    /// # Panics
    ///
    /// Panics if `agent` is out of range.
    pub fn assign_group(&mut self, agent: AgentId, group: GroupId) {
        self.groups[agent] = Some(group);
        self.group_occ.ensure_groups(group + 1);
        if self.placed {
            self.group_occ.rebuild(&self.positions, &self.groups);
        }
    }

    /// The group of `agent`, if any.
    pub fn group_of(&self, agent: AgentId) -> Option<GroupId> {
        self.groups[agent]
    }

    /// Number of agents assigned to `group`.
    pub fn group_size(&self, group: GroupId) -> usize {
        self.groups.iter().filter(|g| **g == Some(group)).count()
    }

    /// Number of declared groups.
    pub fn num_groups(&self) -> usize {
        self.group_occ.num_groups()
    }

    /// Current position of `agent`.
    ///
    /// # Panics
    ///
    /// Panics if the engine is unplaced or `agent` out of range.
    pub fn position(&self, agent: AgentId) -> NodeId {
        assert!(self.placed, "arena not placed yet");
        self.positions[agent] as NodeId
    }

    /// Enables Section 6.1 cell avoidance: before committing a move whose
    /// target was occupied at the end of the previous round, the agent
    /// backs off (stays put) with probability `prob`. Pass `None` to
    /// restore the paper's exact model.
    ///
    /// # Panics
    ///
    /// Panics if `prob` is outside `[0, 1]`.
    pub fn set_avoidance(&mut self, prob: Option<f64>) {
        self.interaction.set_avoidance(prob);
    }

    /// Enables Section 6.1 post-encounter dispersal: an agent that shared
    /// its cell with someone at the end of the previous round takes *two*
    /// walk steps this round.
    pub fn set_flee(&mut self, flee: bool) {
        self.interaction.flee = flee;
    }

    /// The active interaction variant.
    pub fn interaction(&self) -> &Interaction {
        &self.interaction
    }

    /// The batched-kernel span, when the fast path applies this round:
    /// the paper's exact model (all agents `Pure`, no interaction
    /// variants) on a regular topology.
    fn pure_batch_span(&self) -> Option<u64> {
        if self.impure_movers == 0 && self.interaction.is_pure() {
            self.regular_span
        } else {
            None
        }
    }

    /// The kernel every stream block of a parallel round takes: the pure
    /// batched kernel as [`Self::pure_batch_span`] allows; else the lazy
    /// kernel when every agent shares one `Lazy` model, the
    /// interaction is pure and the topology is regular with a
    /// power-of-two span; else the per-agent kernel.
    fn block_kernel(&self) -> BlockKernel {
        if let Some(span) = self.pure_batch_span() {
            return BlockKernel::Pure(span);
        }
        match (self.shared_lazy, self.regular_span) {
            (Some(stay_prob), Some(span))
                if self.interaction.is_pure() && span.is_power_of_two() =>
            {
                BlockKernel::Lazy { span, stay_prob }
            }
            _ => BlockKernel::PerAgent,
        }
    }

    /// Executes one synchronous round drawing from `rng` in the historical
    /// sequential order (agent by agent), then refreshes the
    /// occupancy index. Generic over the RNG: concrete callers get the
    /// fully monomorphized kernel, `&mut dyn RngCore` callers the same
    /// draws through dynamic dispatch.
    ///
    /// # Panics
    ///
    /// Panics if the engine is unplaced.
    pub fn step_round<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
        assert!(self.placed, "place agents before stepping");
        match self.pure_batch_span() {
            Some(span) => {
                step_slice_pure_batched::<false, _, _>(&self.topo, span, &mut self.positions, rng);
            }
            None => step_slice(
                &self.topo,
                &mut self.positions,
                &self.movement,
                &self.occ,
                &self.interaction,
                rng,
            ),
        }
        self.round += 1;
        self.rebuild_occupancy();
    }

    /// The paper's `count(position)`: number of *other* agents at
    /// `agent`'s node at the end of the current round.
    ///
    /// # Panics
    ///
    /// Panics if the engine is unplaced or `agent` out of range.
    pub fn count(&self, agent: AgentId) -> u32 {
        assert!(self.placed, "arena not placed yet");
        self.occ.count(self.positions[agent] as NodeId) - 1
    }

    /// Number of *other* agents of `group` at `agent`'s node — the
    /// per-type encounter sensing of Section 5.2.
    ///
    /// # Panics
    ///
    /// Panics if the engine is unplaced, or `agent`/`group` out of range.
    pub fn count_in_group(&self, agent: AgentId, group: GroupId) -> u32 {
        assert!(self.placed, "arena not placed yet");
        let p = self.positions[agent] as NodeId;
        let at_node = self.group_occ.count(group, p);
        if self.groups[agent] == Some(group) {
            at_node - 1
        } else {
            at_node
        }
    }

    /// Total agents occupying `node` in the current round.
    pub fn occupancy(&self, node: NodeId) -> u32 {
        self.occ.count(node)
    }

    /// Number of distinct occupied nodes.
    pub fn occupied_nodes(&self) -> usize {
        self.occ.occupied_nodes()
    }

    /// Iterator over `(agent, position)`.
    pub fn agent_positions(&self) -> impl Iterator<Item = (AgentId, NodeId)> + '_ {
        self.positions.iter().map(|&p| p as NodeId).enumerate()
    }

    fn rebuild_occupancy(&mut self) {
        self.occ.rebuild(&self.positions);
        if self.group_occ.num_groups() > 0 {
            self.group_occ.rebuild(&self.positions, &self.groups);
        }
    }
}

/// Which kernel steps each stream block of a parallel round.
#[derive(Debug, Clone, Copy, PartialEq)]
enum BlockKernel {
    /// [`step_slice_pure_batched`] with this span.
    Pure(u64),
    /// [`step_block_lazy`]: every agent shares this lazy model.
    Lazy { span: u64, stay_prob: f64 },
    /// [`step_slice`], agent by agent.
    PerAgent,
}

/// Steps one contiguous window of agents, one RNG stream per
/// [`STREAM_BLOCK`]-sized block: block `first_block + j` draws from
/// `round_seq.rng(first_block + j)`. This is the unit both the inline
/// loop and every pool task execute — scheduling can regroup windows
/// freely without touching the draw streams.
///
/// With `timed` set (telemetry enabled, decided once per round) the
/// batched fast path runs its bit-identical `TIMED` instantiation; the
/// returned `(draw_ns, apply_ns)` totals are zero otherwise. The
/// non-batched kernel interleaves draws and moves per agent, so it has
/// no phase split to report under any setting; the lazy kernel does not
/// time its passes either.
#[allow(clippy::too_many_arguments)]
fn step_window<T: Topology>(
    topo: &T,
    positions: &mut [u32],
    movement: &[MovementModel],
    occ: &DenseOccupancy,
    interaction: &Interaction,
    kernel: BlockKernel,
    first_block: usize,
    round_seq: SeedSequence,
    timed: bool,
) -> (u64, u64) {
    let mut totals = (0u64, 0u64);
    for (j, (block, models)) in positions
        .chunks_mut(STREAM_BLOCK)
        .zip(movement.chunks(STREAM_BLOCK))
        .enumerate()
    {
        let mut rng = round_seq.rng((first_block + j) as u64);
        match kernel {
            BlockKernel::Pure(s) => {
                let (d, a) = if timed {
                    step_slice_pure_batched::<true, _, _>(topo, s, block, &mut rng)
                } else {
                    step_slice_pure_batched::<false, _, _>(topo, s, block, &mut rng)
                };
                totals.0 += d;
                totals.1 += a;
            }
            BlockKernel::Lazy { span, stay_prob } => {
                step_block_lazy(topo, span, stay_prob, block, &mut rng);
            }
            BlockKernel::PerAgent => step_slice(topo, block, models, occ, interaction, &mut rng),
        }
    }
    totals
}

/// One schedule chunk's unit of pool work: `(first stream-block index,
/// positions window, movement window)`.
type ChunkWork<'a> = (usize, &'a mut [u32], &'a [MovementModel]);

/// Records one finished parallel round's telemetry: the round and
/// agent-step counters, the round span (tagged with its throughput),
/// the draw/apply split, and the occupancy-rebuild span that started at
/// `occ_t0` and ends now. The draw/apply totals may be accumulated
/// across workers, so in the trace they are laid end to end from the
/// round start: a *time split*, not two wall-clock intervals. Rounds
/// with no split to report (the non-batched kernel) emit neither span.
fn record_round(t0: Instant, agents: u64, draw_ns: u64, apply_ns: u64, occ_t0: Instant) {
    let occ_ns = u64::try_from(occ_t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let total_ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
    ROUNDS_COUNTER.add(1);
    AGENT_STEPS.add(agents);
    let msteps_per_sec = if total_ns > 0 {
        agents as f64 * 1e3 / total_ns as f64
    } else {
        0.0
    };
    ROUND_SPAN.record_interval_at(
        t0,
        0,
        total_ns,
        &[
            ("agents", agents as f64),
            ("msteps_per_sec", msteps_per_sec),
        ],
    );
    if draw_ns + apply_ns > 0 {
        DRAW_SPAN.record_interval_at(t0, 0, draw_ns, &[]);
        APPLY_SPAN.record_interval_at(t0, draw_ns, apply_ns, &[]);
    }
    OCC_SPAN.record_interval_at(occ_t0, 0, occ_ns, &[]);
}

impl<T: Topology + Sync> Engine<T> {
    /// Worker-task count the next [`Self::step_round_parallel`] call
    /// will use: the configured thread count, capped so each worker
    /// gets at least [`EngineConfig::min_chunks_per_worker`] schedule
    /// chunks and no more workers than the executing pool has threads
    /// (the machine's available parallelism when dispatching to the
    /// global pool). `1` means the chunked loop runs inline. Wall
    /// clock only — results never depend on it; benches record it so
    /// measurements are labeled with the parallelism that actually ran.
    pub fn parallel_workers(&self) -> usize {
        let num_chunks = self.positions.len().div_ceil(self.config.schedule_chunk);
        self.effective_workers(num_chunks)
    }

    fn effective_workers(&self, num_chunks: usize) -> usize {
        // Small populations never pay the pool hand-off: at ~1k agents a
        // whole round is cheaper than waking the workers (the
        // `parallel_scaling` baseline measures 2–8 workers slower than
        // inline there). Results are identical either way.
        if self.positions.len() < self.config.inline_step_threshold {
            return 1;
        }
        let pool_cap = match &self.pool {
            Some(p) => p.threads(),
            None => default_threads(),
        };
        self.threads
            .min(num_chunks / self.config.min_chunks_per_worker)
            .min(pool_cap)
            .max(1)
    }

    /// Executes one synchronous round with deterministic parallelism:
    /// agents are split into fixed [`STREAM_BLOCK`]-sized blocks, block
    /// `b` of round `r` draws from the stream
    /// `seeds.subsequence(r).rng(b)`, and blocks are grouped into
    /// [`EngineConfig::schedule_chunk`]-sized work units distributed
    /// round-robin over tasks on a persistent [`WorkerPool`] (the
    /// process-global pool unless [`Self::with_worker_pool`] installed
    /// one). Output is a pure function of `(state, seed sequence,
    /// round)` — worker count, pool, and chunking are invisible.
    ///
    /// Small populations (fewer than
    /// `min_chunks_per_worker × schedule_chunk` agents per worker) run
    /// the chunked loop inline instead of paying the dispatch hand-off;
    /// the cap changes wall clock only, never results.
    ///
    /// # Panics
    ///
    /// Panics if the engine is unplaced.
    pub fn step_round_parallel(&mut self) {
        assert!(self.placed, "place agents before stepping");
        // The hot path's single telemetry gate: one relaxed load per
        // round. Everything below branches on the captured bool, so a
        // disabled run pays nothing else — no clock reads, no counter
        // RMWs, and the untimed kernels.
        let observe = telemetry::enabled();
        let round_start = observe.then(Instant::now);
        let round_seq = self.seeds.subsequence(self.round);
        let sched = self.config.schedule_chunk;
        let num_chunks = self.positions.len().div_ceil(sched);
        let workers = self.effective_workers(num_chunks);
        let kernel = self.block_kernel();
        if let BlockKernel::Pure(span) = kernel {
            if self.positions.len() >= self.config.blocked_round_threshold {
                self.step_round_blocked(span, round_seq, workers, observe, round_start);
                return;
            }
        }
        let (draw_ns, apply_ns);
        if workers == 1 {
            (draw_ns, apply_ns) = step_window(
                &self.topo,
                &mut self.positions,
                &self.movement,
                &self.occ,
                &self.interaction,
                kernel,
                0,
                round_seq,
                observe,
            );
        } else {
            let topo = &self.topo;
            let occ = &self.occ;
            let interaction = self.interaction;
            let blocks_per_chunk = sched / STREAM_BLOCK;
            let mut per_worker: Vec<Vec<ChunkWork<'_>>> =
                (0..workers).map(|_| Vec::new()).collect();
            for (ci, (chunk, models)) in self
                .positions
                .chunks_mut(sched)
                .zip(self.movement.chunks(sched))
                .enumerate()
            {
                per_worker[ci % workers].push((ci * blocks_per_chunk, chunk, models));
            }
            // Sub-phase totals shared by the tasks; each task
            // accumulates locally and lands two relaxed adds at the
            // end, so the per-agent loops never touch them.
            let subphase = (AtomicU64::new(0), AtomicU64::new(0));
            let subphase_ref = &subphase;
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = per_worker
                .into_iter()
                .map(|work| {
                    Box::new(move || {
                        let (mut d, mut a) = (0u64, 0u64);
                        for (first_block, chunk, models) in work {
                            let t = step_window(
                                topo,
                                chunk,
                                models,
                                occ,
                                &interaction,
                                kernel,
                                first_block,
                                round_seq,
                                observe,
                            );
                            d += t.0;
                            a += t.1;
                        }
                        if observe {
                            subphase_ref.0.fetch_add(d, Ordering::Relaxed);
                            subphase_ref.1.fetch_add(a, Ordering::Relaxed);
                        }
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            match &self.pool {
                Some(pool) => pool.run(tasks),
                None => WorkerPool::global().run(tasks),
            }
            draw_ns = subphase.0.load(Ordering::Relaxed);
            apply_ns = subphase.1.load(Ordering::Relaxed);
        }
        self.round += 1;
        let occ_start = observe.then(Instant::now);
        self.rebuild_occupancy();
        if let (Some(t0), Some(occ_t0)) = (round_start, occ_start) {
            record_round(t0, self.positions.len() as u64, draw_ns, apply_ns, occ_t0);
        }
    }

    /// The cache-blocked mega round for pure-walk populations at or
    /// above [`EngineConfig::blocked_round_threshold`]: every move index
    /// of the round is drawn into one engine-owned buffer first (block
    /// `b` still fills from `round_seq.rng(b)`, and one wide fill draws
    /// bit-for-bit what the per-block kernels' 128-wide fills draw), then
    /// applied through [`Topology::apply_moves_blocked`] so the gathers
    /// of a memory-bound topology stay within L2-sized node tiles, and
    /// finally counted by the occupancy rebuild's own blocked path.
    /// Results are **bit-identical** to the per-block path — this is a
    /// wall-clock route, selected automatically.
    fn step_round_blocked(
        &mut self,
        span: u64,
        round_seq: SeedSequence,
        workers: usize,
        observe: bool,
        round_start: Option<Instant>,
    ) {
        let n = self.positions.len();
        self.moves_scratch.clear();
        self.moves_scratch.resize(n, 0);
        let draw_start = observe.then(Instant::now);
        if workers <= 1 {
            for (b, chunk) in self.moves_scratch.chunks_mut(STREAM_BLOCK).enumerate() {
                fill_uniform_indices(span, chunk, &mut round_seq.rng(b as u64));
            }
        } else {
            // Contiguous whole-block ranges per worker: the chunk→stream
            // mapping stays (block index → rng(block)), so the split is
            // invisible in results.
            let num_blocks = n.div_ceil(STREAM_BLOCK);
            let blocks_per_worker = num_blocks.div_ceil(workers);
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = self
                .moves_scratch
                .chunks_mut(blocks_per_worker * STREAM_BLOCK)
                .enumerate()
                .map(|(wi, range)| {
                    Box::new(move || {
                        for (j, chunk) in range.chunks_mut(STREAM_BLOCK).enumerate() {
                            let block = wi * blocks_per_worker + j;
                            fill_uniform_indices(span, chunk, &mut round_seq.rng(block as u64));
                        }
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            match &self.pool {
                Some(pool) => pool.run(tasks),
                None => WorkerPool::global().run(tasks),
            }
        }
        let apply_start = observe.then(Instant::now);
        self.topo.apply_moves_blocked(
            &mut self.positions,
            &self.moves_scratch,
            &mut self.tile_scratch,
        );
        self.round += 1;
        let occ_start = observe.then(Instant::now);
        self.rebuild_occupancy();
        if let (Some(t0), Some(draw_t0), Some(apply_t0), Some(occ_t0)) =
            (round_start, draw_start, apply_start, occ_start)
        {
            let draw_ns = u64::try_from((apply_t0 - draw_t0).as_nanos()).unwrap_or(u64::MAX);
            let apply_ns = u64::try_from((occ_t0 - apply_t0).as_nanos()).unwrap_or(u64::MAX);
            record_round(t0, n as u64, draw_ns, apply_ns, occ_t0);
        }
    }

    /// Runs `rounds` parallel rounds back to back.
    ///
    /// # Panics
    ///
    /// Panics if the engine is unplaced.
    pub fn run_parallel(&mut self, rounds: u64) {
        for _ in 0..rounds {
            self.step_round_parallel();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use antdensity_graphs::{CompleteGraph, Hypercube, Ring, Torus2d};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn occupancy_conserves_agents() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut e = Engine::new(Torus2d::new(8), 20);
        e.place_uniform(&mut rng);
        for _ in 0..10 {
            e.step_round(&mut rng);
            let total: u32 = (0..e.topology().num_nodes()).map(|v| e.occupancy(v)).sum();
            assert_eq!(total, 20);
            assert!(e.occupied_nodes() <= 20);
        }
    }

    #[test]
    fn parallel_round_conserves_agents() {
        let mut e = Engine::new(Torus2d::new(16), 1000)
            .with_seed_sequence(SeedSequence::new(5))
            .with_threads(4);
        let mut rng = SmallRng::seed_from_u64(2);
        e.place_uniform(&mut rng);
        e.run_parallel(8);
        assert_eq!(e.round(), 8);
        let total: u32 = (0..e.topology().num_nodes()).map(|v| e.occupancy(v)).sum();
        assert_eq!(total, 1000);
    }

    #[test]
    fn parallel_is_thread_count_invariant() {
        let mk = |threads: usize| {
            let mut e = Engine::new(Hypercube::new(10), 700)
                .with_seed_sequence(SeedSequence::new(77))
                .with_threads(threads)
                .with_worker_pool(Arc::new(WorkerPool::new(threads)))
                .with_config(EngineConfig {
                    min_chunks_per_worker: 1,
                    inline_step_threshold: 0,
                    ..EngineConfig::default()
                });
            let mut rng = SmallRng::seed_from_u64(3);
            e.place_uniform(&mut rng);
            e.run_parallel(12);
            (0..700).map(|a| e.position(a)).collect::<Vec<_>>()
        };
        let one = mk(1);
        assert_eq!(one, mk(2));
        assert_eq!(one, mk(8));
    }

    #[test]
    fn parallel_avoidance_flee_thread_invariant() {
        let mk = |threads: usize| {
            let mut e = Engine::new(Ring::new(4096), 600)
                .with_seed_sequence(SeedSequence::new(9))
                .with_threads(threads)
                .with_worker_pool(Arc::new(WorkerPool::new(threads)))
                .with_config(EngineConfig {
                    schedule_chunk: STREAM_BLOCK,
                    min_chunks_per_worker: 1,
                    inline_step_threshold: 0,
                    blocked_round_threshold: usize::MAX,
                });
            e.set_avoidance(Some(0.5));
            e.set_flee(true);
            let mut rng = SmallRng::seed_from_u64(4);
            e.place_uniform(&mut rng);
            e.run_parallel(10);
            (0..600).map(|a| e.position(a)).collect::<Vec<_>>()
        };
        assert_eq!(mk(1), mk(7));
    }

    #[test]
    fn inline_fallback_is_bit_identical_to_pool_dispatch() {
        // Satellite regression: the small-population inline fallback
        // (threshold above the population) must produce exactly the
        // positions the pool path (threshold 0) produces.
        let run = |inline_threshold: usize| {
            let mut e = Engine::new(Torus2d::new(32), 1024)
                .with_seed_sequence(SeedSequence::new(41))
                .with_threads(4)
                .with_worker_pool(Arc::new(WorkerPool::new(4)))
                .with_config(EngineConfig {
                    min_chunks_per_worker: 1,
                    inline_step_threshold: inline_threshold,
                    ..EngineConfig::default()
                });
            let mut rng = SmallRng::seed_from_u64(5);
            e.place_uniform(&mut rng);
            assert_eq!(
                e.parallel_workers(),
                if inline_threshold == 0 { 4 } else { 1 }
            );
            e.run_parallel(15);
            (0..1024).map(|a| e.position(a)).collect::<Vec<_>>()
        };
        assert_eq!(run(0), run(usize::MAX));
    }

    #[test]
    fn blocked_round_is_bit_identical_to_per_block_path() {
        // The cache-blocked mega round (threshold forced to 0, both
        // native and CSR topologies, 1 and 4 workers) must replay the
        // per-block path exactly.
        use antdensity_graphs::CsrGraph;
        fn run<T: Topology + Sync + Clone>(
            topo: T,
            blocked_threshold: usize,
            threads: usize,
        ) -> Vec<NodeId> {
            let mut e = Engine::new(topo, 3000)
                .with_seed_sequence(SeedSequence::new(55))
                .with_threads(threads)
                .with_worker_pool(Arc::new(WorkerPool::new(threads)))
                .with_config(EngineConfig {
                    min_chunks_per_worker: 1,
                    inline_step_threshold: 0,
                    blocked_round_threshold: blocked_threshold,
                    ..EngineConfig::default()
                });
            let mut rng = SmallRng::seed_from_u64(6);
            e.place_uniform(&mut rng);
            e.run_parallel(12);
            let occupancy_total: u32 = (0..e.topology().num_nodes()).map(|v| e.occupancy(v)).sum();
            assert_eq!(occupancy_total, 3000, "blocked rebuild lost agents");
            (0..3000).map(|a| e.position(a)).collect()
        }
        let torus = Torus2d::new(64);
        let reference = run(torus, usize::MAX, 1);
        assert_eq!(reference, run(torus, 0, 1));
        assert_eq!(reference, run(torus, 0, 4));
        let csr = CsrGraph::from_topology(&torus);
        let csr_reference = run(csr.clone(), usize::MAX, 1);
        assert_eq!(csr_reference, run(csr.clone(), 0, 1));
        assert_eq!(csr_reference, run(csr, 0, 4));
        // Same walk on the CSR rebuild consumes the identical streams.
        assert_eq!(reference, csr_reference);
    }

    #[test]
    fn groups_count_other_members_only() {
        let mut e = Engine::new(CompleteGraph::new(8), 4);
        e.assign_group(0, 0);
        e.assign_group(1, 0);
        e.assign_group(2, 1);
        e.place_at(&[3, 3, 3, 3]);
        assert_eq!(e.count_in_group(0, 0), 1);
        assert_eq!(e.count_in_group(0, 1), 1);
        assert_eq!(e.count_in_group(3, 0), 2);
        assert_eq!(e.count(3), 3);
        assert_eq!(e.group_size(0), 2);
        assert_eq!(e.num_groups(), 2);
    }

    #[test]
    fn count_matches_occupancy_minus_one() {
        let mut rng = SmallRng::seed_from_u64(6);
        let mut e = Engine::new(Torus2d::new(8), 25);
        e.place_uniform(&mut rng);
        e.step_round(&mut rng);
        for a in 0..25 {
            assert_eq!(e.count(a), e.occupancy(e.position(a)) - 1);
        }
    }

    #[test]
    fn agent_positions_iterates_all() {
        let mut e = Engine::new(Torus2d::new(4), 3);
        e.place_at(&[1, 5, 5]);
        let v: Vec<(AgentId, NodeId)> = e.agent_positions().collect();
        assert_eq!(v, vec![(0, 1), (1, 5), (2, 5)]);
    }

    #[test]
    fn impure_mover_bookkeeping_tracks_model_changes() {
        let mut e = Engine::new(Torus2d::new(8), 4);
        assert!(e.pure_batch_span().is_some());
        e.set_movement(1, MovementModel::Stationary);
        assert!(e.pure_batch_span().is_none());
        e.set_movement(1, MovementModel::Pure);
        assert!(e.pure_batch_span().is_some());
        e.set_movement_all(&MovementModel::lazy(0.5));
        assert!(e.pure_batch_span().is_none());
        e.set_movement_all(&MovementModel::Pure);
        assert!(e.pure_batch_span().is_some());
        assert_eq!(e.block_kernel(), BlockKernel::Pure(4));
        e.set_movement_all(&MovementModel::lazy(0.25));
        assert_eq!(
            e.block_kernel(),
            BlockKernel::Lazy {
                span: 4,
                stay_prob: 0.25
            }
        );
        e.set_movement(2, MovementModel::lazy(0.5));
        assert_eq!(e.block_kernel(), BlockKernel::PerAgent);
        e.set_movement_all(&MovementModel::Pure);
        e.set_avoidance(Some(0.3));
        assert!(e.pure_batch_span().is_none());
        e.set_avoidance(None);
        assert!(e.pure_batch_span().is_some());
    }

    /// Steps a copy of `e`'s state `rounds` parallel rounds through the
    /// per-agent kernel only: block `b` of round `r` runs `step_slice`
    /// on `seeds.subsequence(r).rng(b)`, the reference every block
    /// kernel must reproduce.
    fn per_agent_rounds<T: Topology>(e: &Engine<T>, rounds: u64) -> Vec<NodeId> {
        let mut pos = e.positions.clone();
        let mut occ = DenseOccupancy::new(e.topo.num_nodes());
        occ.rebuild(&pos);
        for r in 0..rounds {
            let seq = e.seeds.subsequence(e.round + r);
            for (b, (block, models)) in pos
                .chunks_mut(STREAM_BLOCK)
                .zip(e.movement.chunks(STREAM_BLOCK))
                .enumerate()
            {
                step_slice(
                    &e.topo,
                    block,
                    models,
                    &occ,
                    &e.interaction,
                    &mut seq.rng(b as u64),
                );
            }
            occ.rebuild(&pos);
        }
        pos.into_iter().map(NodeId::from).collect()
    }

    /// Places a 700-agent lazy population (three blocks, the last
    /// partial), lets `tweak` adjust it, checks the kernel the engine
    /// picks, and checks 10 parallel rounds on a two-worker pool against
    /// [`per_agent_rounds`].
    fn check_lazy_route<T: Topology + Sync>(
        topo: T,
        tweak: impl FnOnce(&mut Engine<T>),
        lazy_kernel: bool,
    ) {
        let mut e = Engine::new(topo, 700)
            .with_seed_sequence(SeedSequence::new(31))
            .with_threads(2)
            .with_worker_pool(Arc::new(WorkerPool::new(2)))
            .with_config(EngineConfig {
                min_chunks_per_worker: 1,
                inline_step_threshold: 0,
                ..EngineConfig::default()
            });
        e.set_movement_all(&MovementModel::lazy(0.3));
        tweak(&mut e);
        e.place_uniform(&mut SmallRng::seed_from_u64(8));
        assert_eq!(
            matches!(e.block_kernel(), BlockKernel::Lazy { .. }),
            lazy_kernel,
            "kernel {:?}",
            e.block_kernel()
        );
        let want = per_agent_rounds(&e, 10);
        e.run_parallel(10);
        let got: Vec<NodeId> = (0..700).map(|a| e.position(a)).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn lazy_kernel_replays_per_agent_rounds() {
        check_lazy_route(Torus2d::new(32), |_| {}, true);
        check_lazy_route(Ring::new(1000), |_| {}, true);
        check_lazy_route(CompleteGraph::new(64), |_| {}, true);
        // Re-setting one agent to the shared model keeps the kernel.
        check_lazy_route(
            Torus2d::new(32),
            |e| e.set_movement(5, MovementModel::lazy(0.3)),
            true,
        );
    }

    #[test]
    fn lazy_kernel_not_taken_for_a_pure_agent() {
        check_lazy_route(
            Torus2d::new(32),
            |e| e.set_movement(5, MovementModel::Pure),
            false,
        );
    }

    #[test]
    fn lazy_kernel_not_taken_with_avoidance() {
        check_lazy_route(Torus2d::new(32), |e| e.set_avoidance(Some(0.5)), false);
    }

    #[test]
    fn lazy_kernel_not_taken_on_non_power_of_two_span() {
        check_lazy_route(Hypercube::new(6), |_| {}, false);
        check_lazy_route(CompleteGraph::new(100), |_| {}, false);
    }

    #[test]
    #[should_panic(expected = "place agents")]
    fn unplaced_parallel_step_panics() {
        let mut e = Engine::new(Torus2d::new(4), 2);
        e.step_round_parallel();
    }

    #[test]
    #[should_panic(expected = "at least one agent")]
    fn empty_engine_panics() {
        let _ = Engine::new(Torus2d::new(4), 0);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_rejected() {
        let _ = Engine::new(Torus2d::new(4), 2).with_threads(0);
    }

    #[test]
    #[should_panic(expected = "multiple of")]
    fn bad_config_rejected() {
        let _ = Engine::new(Torus2d::new(4), 2).with_config(EngineConfig {
            schedule_chunk: 100,
            ..EngineConfig::default()
        });
    }
}
