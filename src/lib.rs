//! # antdensity — ant-inspired density estimation via random walks
//!
//! Umbrella crate for the full Rust reproduction of
//! *Ant-Inspired Density Estimation via Random Walks*
//! (Cameron Musco, Hsin-Hao Su, Nancy Lynch; PODC 2016 / PNAS 2017,
//! arXiv:1603.02981).
//!
//! This crate re-exports the workspace members under stable module names:
//!
//! | module | contents |
//! |---|---|
//! | [`stats`] | moments, quantiles, concentration bounds, regression |
//! | [`graphs`] | tori, rings, hypercubes, expanders, CSR graphs, exact walk distributions |
//! | [`engine`] | the paper's model as `Engine` (stepped round by round on deterministic per-block streams over dense occupancy), `Scenario`, the one runner of Algorithms 1 and 4, quorum and relative frequency, and the deterministic trial fan-out |
//! | [`core`] | theory (accuracy predictions and bounds), the i.i.d. baseline, re-collision and collision-moment measurement (exact and Monte-Carlo), noise, adaptive quorum sensing, non-uniform placement |
//! | [`netsize`] | Section 5.1: network-size estimation via colliding walks |
//! | [`swarm`] | Sections 5.2/6.3: robot swarms and sensor-network sampling |
//! | [`sweep`] | declarative parameter-grid sweeps: deterministic shards, checkpoint/resume, streaming aggregates |
//! | [`serve`] | estimation as a service: job daemon, line-delimited JSON protocol, blocking client |
//!
//! See `examples/quickstart.rs` for a five-minute tour and `DESIGN.md` for
//! the full system inventory.

pub use antdensity_core as core;
pub use antdensity_engine as engine;
pub use antdensity_graphs as graphs;
pub use antdensity_netsize as netsize;
pub use antdensity_serve as serve;
pub use antdensity_stats as stats;
pub use antdensity_swarm as swarm;
pub use antdensity_sweep as sweep;

// The walk recorder the integration tests share (`tests/support`) keeps
// its unit tests under the module paths it had as library code.
#[cfg(test)]
mod pairwise;
#[cfg(test)]
#[path = "../tests/support/mod.rs"]
mod support;
#[cfg(test)]
mod trajectory;

/// The README's Rust snippets, built and run by `cargo test` as
/// doctests so they cannot drift from the API unnoticed.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;
