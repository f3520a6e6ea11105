//! The batched simulation engine: struct-of-arrays agent state, dense
//! occupancy, and deterministic per-block random streams.
//!
//! [`Engine`] holds the whole population as flat arrays (positions,
//! movement models, group tags) plus [`DenseOccupancy`]/[`GroupOccupancy`]
//! buffers that are *reset via touched lists* instead of rebuilt from
//! scratch — the cost per round is O(agents), independent of the node
//! count and free of hashing.
//!
//! [`Engine::run`], the round loop every simulation runs, steps it
//! through [`Engine::step_round`]. Agents are
//! partitioned into fixed [`STREAM_BLOCK`]-sized blocks and block `b` of
//! round `r` draws from an RNG derived from `(seed sequence, round,
//! block index)`. A block's stream depends only on its index, so the
//! result is a pure function of `(state, seed sequence, round)`, which
//! lets a kernel draw words it may not use and lets a round be stepped
//! in any block order. The round runs on the calling thread; parallelism
//! lives one level up, where independent trials fan out over
//! [`crate::pool::run_trials`].
//!
//! Pure-walk populations on regular topologies draw every block's move
//! indices into one buffer before applying them all in one
//! [`Topology::apply_moves`] call, at every population size; populations that
//! all share one `lazy:p` model on a regular power-of-two-span topology
//! take the batched lazy kernel (`step::step_block_lazy`); every other
//! population steps agent by agent through [`crate::step::step_slice`].
//! All three draw what `step_slice` would draw from each block's
//! stream, so the kernel choice is invisible in results.
//!
//! Rounds are instrumented: with telemetry on, each round is counted in
//! the engine's own round tally, which times one round in 16 and merges
//! into the registry when the engine drops.

use crate::config::STREAM_BLOCK;
use crate::movement::MovementModel;
use crate::occupancy::{DenseOccupancy, GroupOccupancy, MAX_NODES};
use crate::sampling::fill_uniform_indices;
use crate::step::{step_block_lazy, step_slice, Interaction};
use crate::tally::{msteps_per_sec, ns_between, RoundMetrics, RoundTally};
use antdensity_graphs::{NodeId, Topology};
use antdensity_stats::rng::SeedSequence;
use antdensity_telemetry as telemetry;
use rand::RngCore;
use std::ops::ControlFlow;
use std::time::Instant;

// Telemetry metrics of the round.
static ROUND_METRICS: RoundMetrics<4> = RoundMetrics {
    rounds: telemetry::LazyCounter::new("engine.rounds"),
    agent_steps: telemetry::LazyCounter::new("engine.agent_steps"),
    spans: [
        telemetry::SpanMetric::new("engine.round"),
        telemetry::SpanMetric::new("engine.rng_draw"),
        telemetry::SpanMetric::new("engine.apply_moves"),
        telemetry::SpanMetric::new("engine.occupancy_rebuild"),
    ],
};
/// Indices into [`ROUND_METRICS`]`.spans`.
const ROUND: usize = 0;
const DRAW: usize = 1;
const APPLY: usize = 2;
const OCCUPANCY: usize = 3;
/// The spans a round records: all four on the pure path, which splits
/// draws from moves, and the round and rebuild on the others.
const SPLIT_PHASES: u32 = 1 << ROUND | 1 << DRAW | 1 << APPLY | 1 << OCCUPANCY;
const BLOCK_PHASES: u32 = 1 << ROUND | 1 << OCCUPANCY;

/// Identifier of an agent within an engine: `0 .. num_agents`.
pub type AgentId = usize;

/// Identifier of a property group.
pub type GroupId = usize;

/// The synchronous multi-agent world of Section 2, batched.
///
/// # Example
///
/// ```
/// use antdensity_engine::Engine;
/// use antdensity_graphs::Torus2d;
/// use antdensity_stats::rng::SeedSequence;
/// use std::ops::ControlFlow;
///
/// let seq = SeedSequence::new(1);
/// let mut engine = Engine::new(Torus2d::new(16), 10).with_seed_sequence(seq.subsequence(1));
/// engine.place_uniform(&mut seq.rng(0));
/// let stepped = engine.run(5, |_| ControlFlow::Continue(()));
/// assert_eq!((stepped, engine.round()), (5, 5));
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
    /// Whole-round move-index buffer of the pure per-block round
    /// (empty until the first such round; reused afterwards).
    moves_scratch: Vec<u32>,
    /// This engine's round telemetry, merged into the registry on drop.
    tally: RoundTally<4>,
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
            regular_span,
            impure_movers: 0,
            shared_lazy: None,
            moves_scratch: Vec::new(),
            tally: RoundTally::new(&ROUND_METRICS),
        }
    }

    /// Sets the seed sequence that drives [`Self::step_round`].
    pub fn with_seed_sequence(mut self, seeds: SeedSequence) -> Self {
        self.seeds = seeds;
        self
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

    /// The kernel a per-block round takes: the whole-round pure draw
    /// and apply as [`Self::pure_batch_span`] allows; else the lazy
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

    /// Executes one synchronous round on per-block streams: agents are
    /// split into fixed [`STREAM_BLOCK`]-sized blocks and block `b` of
    /// round `r` draws from `seeds.subsequence(r).rng(b)`, so the output
    /// is a pure function of `(state, seed sequence, round)`. The round
    /// runs on the calling thread; callers get parallelism by running
    /// independent trials on [`crate::pool::run_trials`].
    ///
    /// A pure-walk round on a regular topology draws every block's move
    /// indices into one engine-owned buffer first (block `b` fills its
    /// slice from `round_seq.rng(b)`, drawing bit-for-bit what
    /// [`step_slice`] draws for pure agents), then applies them in one
    /// [`Topology::apply_moves`] call, at every population size. Other
    /// populations step block by block through the lazy or the
    /// per-agent kernel. Every round ends with one
    /// [`DenseOccupancy::rebuild`].
    ///
    /// With telemetry on (checked once per round) every round is
    /// counted, exactly, in the engine's tally. The first round, then
    /// one in 16 from the second, are timed (every round while trace
    /// capture is on): such a round reads the clock four times on the
    /// pure path (start, draws done, moves applied, occupancy rebuilt)
    /// and three times on the others, which have no draw/apply split.
    /// Its phase times are recorded weighted by the rounds they stand
    /// for, so span counts stay exact and span sums are estimates.
    ///
    /// # Panics
    ///
    /// Panics if the engine is unplaced.
    pub fn step_round(&mut self) {
        assert!(self.placed, "place agents before stepping");
        let kernel = self.block_kernel();
        // The hot path's single telemetry gate: one relaxed load per
        // round. A disabled run reads no clock and records nothing; an
        // enabled one reads it only on rounds the tally times.
        let observe = telemetry::enabled();
        let phases = match kernel {
            BlockKernel::Pure(_) => SPLIT_PHASES,
            _ => BLOCK_PHASES,
        };
        let timed = observe && self.tally.times_next(phases);
        let start = timed.then(Instant::now);
        let round_seq = self.seeds.subsequence(self.round);
        let drawn = match kernel {
            BlockKernel::Pure(span) => {
                let n = self.positions.len();
                self.moves_scratch.resize(n, 0);
                for (b, chunk) in self.moves_scratch.chunks_mut(STREAM_BLOCK).enumerate() {
                    fill_uniform_indices(span, chunk, &mut round_seq.rng(b as u64));
                }
                let drawn = timed.then(Instant::now);
                self.topo
                    .apply_moves(&mut self.positions, &self.moves_scratch);
                drawn
            }
            kernel => {
                self.step_blocks(kernel, &round_seq);
                None
            }
        };
        let moved = timed.then(Instant::now);
        self.round += 1;
        self.rebuild_occupancy();
        if let (Some(start), Some(moved)) = (start, moved) {
            self.tally_round(phases, start, drawn, moved, Instant::now());
        } else if observe {
            self.tally.count_round(self.positions.len() as u64);
        }
    }

    /// The round loop every simulation runs: steps up to `rounds`
    /// rounds, handing the engine to `on_round` after each one, and
    /// stops early when it returns [`ControlFlow::Break`]. Returns the
    /// number of rounds stepped. The callback reads the post-move state
    /// ([`Self::round`] is the round just stepped) and may change
    /// movement models for the next round. Panics as
    /// [`Self::step_round`] does.
    pub fn run(
        &mut self,
        rounds: u64,
        mut on_round: impl FnMut(&mut Self) -> ControlFlow<()>,
    ) -> u64 {
        for stepped in 1..=rounds {
            self.step_round();
            if on_round(self).is_break() {
                return stepped;
            }
        }
        rounds
    }

    /// Steps every stream block through the lazy kernel, or through the
    /// per-agent kernel for any other `kernel` (which draws what the
    /// pure path draws for pure agents).
    fn step_blocks(&mut self, kernel: BlockKernel, round_seq: &SeedSequence) {
        for (b, (block, models)) in self
            .positions
            .chunks_mut(STREAM_BLOCK)
            .zip(self.movement.chunks(STREAM_BLOCK))
            .enumerate()
        {
            let mut rng = round_seq.rng(b as u64);
            match kernel {
                BlockKernel::Lazy { span, stay_prob } => {
                    step_block_lazy(&self.topo, span, stay_prob, block, &mut rng);
                }
                _ => step_slice(
                    &self.topo,
                    block,
                    models,
                    &self.occ,
                    &self.interaction,
                    &mut rng,
                ),
            }
        }
    }

    /// Records one finished timed round, with phases `phases`, into the
    /// tally: the round span (`start` to `end`), the draw/apply split
    /// when the round had one (`start` to `drawn` to `moved`), and the
    /// occupancy rebuild (`moved` to `end`). With trace capture on it
    /// also pushes the same spans as trace events, the round tagged with
    /// its throughput.
    fn tally_round(
        &mut self,
        phases: u32,
        start: Instant,
        drawn: Option<Instant>,
        moved: Instant,
        end: Instant,
    ) {
        let agents = self.positions.len() as u64;
        let round_ns = ns_between(start, end);
        let occ_ns = ns_between(moved, end);
        let split = drawn.map(|drawn| (ns_between(start, drawn), ns_between(drawn, moved)));
        let (draw_ns, apply_ns) = split.unwrap_or_default();
        let t = &mut self.tally;
        t.record_round(agents, phases, [round_ns, draw_ns, apply_ns, occ_ns]);
        if telemetry::tracing() {
            let args = [
                ("agents", agents as f64),
                ("msteps_per_sec", msteps_per_sec(agents, round_ns)),
            ];
            t.span(ROUND).trace_at(start, 0, round_ns, &args);
            if let Some((draw_ns, apply_ns)) = split {
                t.span(DRAW).trace_at(start, 0, draw_ns, &[]);
                t.span(APPLY).trace_at(start, draw_ns, apply_ns, &[]);
            }
            t.span(OCCUPANCY).trace_at(moved, 0, occ_ns, &[]);
        }
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

    /// Writes every agent's [`Self::count`] into `out`, in agent order,
    /// in one pass over the positions.
    ///
    /// # Panics
    ///
    /// Panics if the engine is unplaced or `out` does not hold one slot
    /// per agent.
    pub(crate) fn counts_into(&self, out: &mut [u32]) {
        assert!(self.placed, "arena not placed yet");
        assert_eq!(out.len(), self.positions.len(), "one slot per agent");
        for (slot, &p) in out.iter_mut().zip(&self.positions) {
            *slot = self.occ.count(p as NodeId) - 1;
        }
    }

    /// Writes every agent's [`Self::count_in_group`] for every declared
    /// group into `out`, group-major (`out[g * n + a]` for `n` agents),
    /// in one pass over the positions per group.
    ///
    /// # Panics
    ///
    /// Panics if the engine is unplaced or `out` does not hold one slot
    /// per agent per declared group.
    pub(crate) fn group_counts_into(&self, out: &mut [u32]) {
        assert!(self.placed, "arena not placed yet");
        let n = self.positions.len();
        assert_eq!(
            out.len(),
            self.group_occ.num_groups() * n,
            "one slot per agent per group"
        );
        if n == 0 {
            return;
        }
        for (g, row) in out.chunks_exact_mut(n).enumerate() {
            let at_node = self.group_occ.group_counts(g);
            for ((slot, &p), member) in row.iter_mut().zip(&self.positions).zip(&self.groups) {
                *slot = at_node[p as usize] - u32::from(*member == Some(g));
            }
        }
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

/// Which kernel steps a per-block round.
#[derive(Debug, Clone, Copy, PartialEq)]
enum BlockKernel {
    /// Whole-round draw then apply, with this span.
    Pure(u64),
    /// [`step_block_lazy`]: every agent shares this lazy model.
    Lazy { span: u64, stay_prob: f64 },
    /// [`step_slice`], agent by agent.
    PerAgent,
}

#[cfg(test)]
mod tests {
    use super::*;
    use antdensity_graphs::{CompleteGraph, Hypercube, Ring, Torus2d};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn occupancy_conserves_agents() {
        let mut e = Engine::new(Torus2d::new(8), 20).with_seed_sequence(SeedSequence::new(1));
        e.place_uniform(&mut SmallRng::seed_from_u64(1));
        for _ in 0..10 {
            e.step_round();
            let total: u32 = (0..e.topology().num_nodes()).map(|v| e.occupancy(v)).sum();
            assert_eq!(total, 20);
            assert!(e.occupied_nodes() <= 20);
        }
    }

    #[test]
    fn run_stops_on_break_and_returns_the_rounds_stepped() {
        let mut e = Engine::new(Ring::new(32), 5).with_seed_sequence(SeedSequence::new(3));
        e.place_uniform(&mut SmallRng::seed_from_u64(3));
        let mut seen = Vec::new();
        let stepped = e.run(10, |e| {
            seen.push(e.round());
            if e.round() == 4 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        assert_eq!((stepped, e.round()), (4, 4));
        assert_eq!(seen, [1, 2, 3, 4]);
        assert_eq!(e.run(3, |_| ControlFlow::Continue(())), 3);
        assert_eq!(e.run(0, |_| ControlFlow::Break(())), 0);
        assert_eq!(e.round(), 7);
    }

    #[test]
    fn run_matches_step_round_calls_bit_for_bit() {
        // Every kernel: the pure batch, the lazy batch and the per-agent
        // path (on an irregular CSR graph).
        use antdensity_graphs::CsrGraph;
        fn check<T: Topology + Clone>(topo: T, model: MovementModel) {
            let mut by_hand = Engine::new(topo, 300).with_seed_sequence(SeedSequence::new(9));
            by_hand.set_movement_all(&model);
            by_hand.place_uniform(&mut SmallRng::seed_from_u64(9));
            let mut looped = by_hand.clone();
            for _ in 0..7 {
                by_hand.step_round();
            }
            assert_eq!(looped.run(7, |_| ControlFlow::Continue(())), 7);
            assert_eq!(looped.round(), by_hand.round());
            let nodes = by_hand.topology().num_nodes();
            let occupancy = |e: &Engine<T>| (0..nodes).map(|v| e.occupancy(v)).collect::<Vec<_>>();
            assert_eq!(occupancy(&looped), occupancy(&by_hand));
            let positions = |e: &Engine<T>| e.agent_positions().collect::<Vec<_>>();
            assert_eq!(positions(&looped), positions(&by_hand));
        }
        check(Torus2d::new(16), MovementModel::Pure);
        check(Torus2d::new(16), MovementModel::Lazy { stay_prob: 0.3 });
        let path = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (1, 3)]).unwrap();
        check(path, MovementModel::Pure);
    }

    #[test]
    fn parallel_round_conserves_agents() {
        let mut e = Engine::new(Torus2d::new(16), 1000).with_seed_sequence(SeedSequence::new(5));
        let mut rng = SmallRng::seed_from_u64(2);
        e.place_uniform(&mut rng);
        for _ in 0..8 {
            e.step_round();
        }
        assert_eq!(e.round(), 8);
        let total: u32 = (0..e.topology().num_nodes()).map(|v| e.occupancy(v)).sum();
        assert_eq!(total, 1000);
    }

    #[test]
    fn pure_round_matches_per_block_kernel() {
        // The whole-round draw-then-apply must equal stepping each
        // stream block through `step_slice` on its own stream, for
        // partial and exact blocks, whether telemetry times the round
        // or not. The hypercube's span 10 takes the rejection sampler.
        fn check<T: Topology>(topo: T, agents: usize) {
            let mut e = Engine::new(topo, agents).with_seed_sequence(SeedSequence::new(17));
            e.place_uniform(&mut SmallRng::seed_from_u64(agents as u64));
            assert!(e.pure_batch_span().is_some(), "regular pure walk");
            for round in 0..6 {
                let want = per_agent_rounds(&e, 1);
                // Alternate the gate so timed and untimed rounds mix.
                telemetry::set_enabled(round % 2 == 0);
                e.step_round();
                telemetry::set_enabled(false);
                let got: Vec<NodeId> = e.agent_positions().map(|(_, p)| p).collect();
                assert_eq!(got, want, "{agents} agents, round {round}");
            }
        }
        for agents in [1, 128, 129, 257, 3000] {
            check(Torus2d::new(64), agents);
            check(Hypercube::new(10), agents);
        }
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
    }

    #[test]
    fn group_counts_into_matches_count_in_group() {
        let mut e = Engine::new(Torus2d::new(4), 9).with_seed_sequence(SeedSequence::new(2));
        e.declare_groups(3);
        for a in 0..7 {
            e.assign_group(a, a % 3);
        }
        e.place_uniform(&mut SmallRng::seed_from_u64(2));
        for _ in 0..4 {
            e.step_round();
            let mut out = vec![u32::MAX; 3 * 9];
            e.group_counts_into(&mut out);
            for (g, row) in out.chunks_exact(9).enumerate() {
                let want: Vec<u32> = (0..9).map(|a| e.count_in_group(a, g)).collect();
                assert_eq!(row, want, "group {g}");
            }
        }
    }

    #[test]
    fn count_matches_occupancy_minus_one() {
        let mut e = Engine::new(Torus2d::new(8), 25).with_seed_sequence(SeedSequence::new(6));
        e.place_uniform(&mut SmallRng::seed_from_u64(6));
        e.step_round();
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

    /// Steps a copy of `e`'s state `rounds` per-block rounds through the
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
    /// picks, and checks 10 per-block rounds against
    /// [`per_agent_rounds`].
    fn check_lazy_route<T: Topology>(
        topo: T,
        tweak: impl FnOnce(&mut Engine<T>),
        lazy_kernel: bool,
    ) {
        let mut e = Engine::new(topo, 700).with_seed_sequence(SeedSequence::new(31));
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
        for _ in 0..10 {
            e.step_round();
        }
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
        e.step_round();
    }

    #[test]
    #[should_panic(expected = "at least one agent")]
    fn empty_engine_panics() {
        let _ = Engine::new(Torus2d::new(4), 0);
    }
}
