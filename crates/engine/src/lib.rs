//! `antdensity-engine` — the batched, deterministic, parallel simulation
//! engine for *Ant-Inspired Density Estimation via Random Walks*
//! (Musco, Su, Lynch; PODC 2016).
//!
//! Every experiment in the paper reduces to stepping N random-walking
//! agents on a topology and counting co-located agents per round. This
//! crate is the production-scale core that makes those sweeps cheap:
//!
//! * [`occupancy`] — dense `Vec<u32>` occupancy buffers reset via
//!   *touched-node lists* instead of per-round `HashMap` rebuilds, plus
//!   per-group occupancy as one flat `groups × nodes` buffer.
//! * [`movement`] — the paper's pure random walk and the Section 6.1 /
//!   Appendix A variants (lazy, biased, stationary, drift).
//! * [`step`] — the per-agent round kernel, generic over topology *and*
//!   RNG so concrete call sites monomorphize with zero per-draw virtual
//!   dispatch, and the batched lazy-walk kernel that reproduces it.
//! * [`engine`] — [`Engine`]: struct-of-arrays agent state with one
//!   stepping method, [`Engine::step_round`]. RNG streams are derived
//!   per `(seed, round, STREAM_BLOCK-sized block)` via
//!   [`antdensity_stats::rng::SeedSequence`], so a round is a pure
//!   function of the state, the seed sequence and the round index.
//!   Rounds run on the calling thread.
//! * [`pool`] — [`WorkerPool`]: persistent worker threads, one
//!   process-global pool by default, and [`pool::run_trials`], the
//!   deterministic fan-out of independent Monte-Carlo trials over it:
//!   the crate's one level of parallelism, bit-identical for any worker
//!   count.
//! * [`config`] — [`STREAM_BLOCK`], the determinism granularity.
//! * [`scenario`] — [`Scenario`]: a spec/builder composing topology ×
//!   movement × estimator (Algorithm 1, Algorithm 4, quorum, relative
//!   frequency) × noise into one runnable, seedable description.
//! * [`observer`] — the streaming estimator pipeline: the driver emits
//!   per-round encounter events once, [`Observer`]s consume them
//!   incrementally, and [`Scenario::run_streamed`] snapshots several
//!   estimators and whole accuracy-vs-rounds curves from **one**
//!   simulation pass, bit-identical to dedicated runs.
//! * [`sampling`] — exact small-parameter binomial/Poisson samplers for
//!   the noisy-sensing models, the batched uniform-index fills (single
//!   stream and lane-interleaved), and the `O(log n)` 64-bit
//!   binomial/multinomial samplers behind count-based stepping.
//! * [`counts`] — [`CountsEngine`]: the occupancy-count fast path for
//!   memoryless pure walks — one `u64` count per node, one multinomial
//!   split per node per round, `O(nodes)` instead of `O(agents)`.
//!   Distributionally equivalent to the agent-level engine, and
//!   bit-deterministic in its seed.
//!
//! # Quickstart
//!
//! ```
//! use antdensity_engine::scenario::{Scenario, TopologySpec};
//!
//! let spec = Scenario::new(TopologySpec::Torus2d { side: 32 }, 65, 256);
//! let outcome = spec.run(42);
//! // a pure function of (spec, seed):
//! assert_eq!(outcome, spec.run(42));
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

#[cfg(test)]
mod arena;
pub mod config;
pub mod counts;
pub mod engine;
pub mod movement;
pub mod observer;
pub mod occupancy;
#[cfg(test)]
mod parallel;
pub mod pool;
pub mod sampling;
pub mod scenario;
pub mod step;
mod tally;

pub use config::STREAM_BLOCK;
pub use counts::{CountsEngine, CountsOutcome, COUNTS_SAMPLER_VERSION, COUNT_BLOCK};
pub use engine::{AgentId, Engine, GroupId};
pub use movement::MovementModel;
pub use observer::{
    Alg1Observer, Alg4Observer, EncounterTallies, Observer, QuorumObserver, RecordingObserver,
    RelFreqObserver, RoundEvents, Schedule, SimFamily,
};
pub use occupancy::{DenseOccupancy, GroupOccupancy, MAX_NODES};
pub use pool::WorkerPool;
pub use scenario::{
    EstimatorSpec, NoiseSpec, ObserverTap, Scenario, ScenarioOutcome, TopologySpec,
};
pub use step::Interaction;
