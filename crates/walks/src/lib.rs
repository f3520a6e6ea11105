//! The paper's computational model as an executable simulation engine.
//!
//! Section 2 of *Ant-Inspired Density Estimation via Random Walks*
//! (Musco, Su, Lynch) defines the model this crate implements exactly:
//!
//! * a set of anonymous agents on a graph topology,
//! * discrete synchronous rounds; in each round every agent either stays
//!   or moves to a neighboring node,
//! * at the end of each round an agent senses `count(position)` — the
//!   number of *other* agents on its node — and nothing else,
//! * agents start at independent uniformly random nodes.
//!
//! Components:
//!
//! * [`movement`] — movement models: the paper's pure random walk, plus
//!   the extensions it sketches (lazy walks, biased/perturbed step
//!   distributions from Section 6.1, the deterministic drift used by the
//!   independent-sampling Algorithm 4, and stationary agents). Since the
//!   engine rewrite this module lives in `antdensity_engine` and is
//!   re-exported here under its historical path.
//! * [`arena`] — [`arena::SyncArena`]: the synchronous multi-agent world
//!   with per-round occupancy and `count(position)`, including property
//!   groups for the Section 5.2 frequency-estimation application. The
//!   inner loop delegates to `antdensity_engine::Engine`'s dense
//!   touched-list occupancy buffers while preserving the historical RNG
//!   draw order bit-for-bit.
//! * [`pairwise`] — two-agent and single-agent Monte-Carlo statistics
//!   (re-collisions, equalizations, visits, range) matching the paper's
//!   core lemmas; cross-validated against the exact distributions in
//!   `antdensity_graphs::dist`.
//! * [`trajectory`] — full-path recording, used where the paper
//!   conditions on an agent's walk `W` (Lemmas 4 and 11).
//! * [`parallel`] — deterministic fan-out of independent trials over
//!   threads (results are independent of thread count).
//!
//! Density estimation itself (Algorithm 1 and its variants) is not run
//! here: `antdensity_engine::Scenario` drives the engine directly. The
//! arena stays for the historical-seed contract
//! (`tests/engine_equivalence.rs`) and for callers that step a world
//! round by round and inspect it (swarm simulations, drawings).
//!
//! # Example
//!
//! ```
//! use antdensity_graphs::Torus2d;
//! use antdensity_walks::arena::SyncArena;
//! use rand::SeedableRng;
//! use rand::rngs::SmallRng;
//!
//! let mut rng = SmallRng::seed_from_u64(7);
//! let mut arena = SyncArena::new(Torus2d::new(32), 64);
//! arena.place_uniform(&mut rng);
//! arena.step_round(&mut rng);
//! let collisions: u32 = (0..64).map(|a| arena.count(a)).sum();
//! // every collision is counted by both parties
//! assert_eq!(collisions % 2, 0);
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod arena;
pub use antdensity_engine::movement;
pub mod pairwise;
pub mod parallel;
pub mod trajectory;

pub use arena::SyncArena;
pub use movement::MovementModel;
pub use trajectory::Trajectory;
