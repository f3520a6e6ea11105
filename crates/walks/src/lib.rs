//! Walk-level statistics for the paper's model.
//!
//! Section 2 of *Ant-Inspired Density Estimation via Random Walks*
//! (Musco, Su, Lynch) defines the model: anonymous agents on a graph
//! topology, moving in discrete synchronous rounds, each sensing only
//! `count(position)` — the number of *other* agents on its node — at the
//! end of every round. That model runs as `antdensity_engine::Engine`,
//! and density estimation (Algorithm 1 and its variants) as
//! `antdensity_engine::Scenario`. This crate holds what the paper's
//! lemmas measure about single walks and pairs of walks, and the trial
//! fan-out those measurements run on.
//!
//! Components:
//!
//! * [`pairwise`] — two-agent and single-agent Monte-Carlo statistics
//!   (re-collisions, equalizations, visits, range) matching the paper's
//!   core lemmas; cross-validated against the exact distributions in
//!   `antdensity_graphs::dist`.
//! * [`trajectory`] — full-path recording, used where the paper
//!   conditions on an agent's walk `W` (Lemmas 4 and 11).
//! * [`parallel`] — deterministic fan-out of independent trials over
//!   threads (results are independent of thread count).
//!
//! # Example
//!
//! ```
//! use antdensity_engine::MovementModel;
//! use antdensity_graphs::Torus2d;
//! use antdensity_walks::Trajectory;
//! use rand::SeedableRng;
//! use rand::rngs::SmallRng;
//!
//! let torus = Torus2d::new(32);
//! let mut rng = SmallRng::seed_from_u64(7);
//! let walk = Trajectory::record(&torus, 0, 100, &MovementModel::Pure, &mut rng);
//! // a pure walk moves along exactly one axis every round
//! let (mx, my) = walk.axis_step_counts(&torus);
//! assert_eq!(mx + my, 100);
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

#[cfg(test)]
mod arena;
pub mod pairwise;
pub mod parallel;
pub mod trajectory;

pub use trajectory::Trajectory;
