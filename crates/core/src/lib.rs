//! The paper's theory and the estimator extensions that need more than
//! one simulation pass.
//!
//! Algorithm 1, Algorithm 4 (Appendix A), the quorum read-out and the
//! Section 5.2 relative-frequency estimator of *Ant-Inspired Density
//! Estimation via Random Walks* (Musco, Su, Lynch; PODC 2016 / PNAS 2017)
//! all run through one simulator: `antdensity_engine::Scenario` over the
//! engine's streaming observers. This crate holds what sits around it:
//!
//! * [`baseline`] — the complete-graph / i.i.d. Bernoulli baseline of
//!   Section 1.1 against which "nearly matches independent sampling" is
//!   measured.
//! * [`theory`] — every topology's re-collision envelope `β(m)`, its sum
//!   `B(t)`, and the resulting accuracy predictions (Theorem 1, Lemma 19,
//!   Theorems 21/32, Lemmas 20/22/23/25).
//! * [`recollision`] — measurement APIs for re-collision curves and
//!   collision-count moments (Lemma 11, Corollaries 15/16), both
//!   Monte-Carlo and exact.
//! * [`quorum`] — density-threshold detection (quorum sensing), the
//!   Section 6.2 use-case, built as an adaptive stopping rule on top of
//!   Algorithm 1.
//! * [`noise`] — Section 6.1's noisy collision detection (missed and
//!   spurious detections) with unbiasing corrections.
//! * [`local`] — Sections 2.1.1 / 6.1 future work, implemented:
//!   non-uniform (clustered) placement, exact local densities, and the
//!   local-vs-global accounting of what encounter rates estimate then.
//!
//! # Quickstart
//!
//! ```
//! use antdensity_core::theory::TopologyClass;
//! use antdensity_engine::{Scenario, TopologySpec};
//!
//! // 65 agents (n = 64 others) on a 32x32 torus: d = 64/1024 = 0.0625
//! let run = Scenario::new(TopologySpec::Torus2d { side: 32 }, 65, 512).run(42);
//! assert_eq!(run.estimates.len(), 65);
//! assert!((run.mean_estimate() - run.true_density).abs() < 0.05);
//! // Theorem 1's accuracy prediction for the same (A, t, d)
//! let eps = TopologyClass::Torus2d { nodes: 1024 }.epsilon(512, run.true_density, 0.1);
//! assert!(eps > 0.0);
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod baseline;
pub mod local;
pub mod noise;
pub mod quorum;
pub mod recollision;
pub mod theory;

// Paper-level checks of the estimators that run through `Scenario`.
#[cfg(test)]
mod algorithm1;
#[cfg(test)]
mod algorithm4;
#[cfg(test)]
mod frequency;
// Unit tests of the walk samplers in `recollision`.
#[cfg(test)]
mod pairwise;

pub use noise::CollisionNoise;
pub use quorum::SequentialQuorum;
pub use theory::TopologyClass;
