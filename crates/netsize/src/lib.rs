//! Section 5.1 of the paper: social-network size estimation via
//! colliding random walks.
//!
//! One cannot count the nodes of a massive network directly — only
//! simulate random walks by following links. The paper's Algorithm 2 runs
//! `n` walks for `t` rounds, counts degree-weighted collisions
//! `C = deḡ·Σcⱼ/(n(n−1)t)`, and returns `Â = 1/C`; Theorem 27 shows
//! `n²t = Θ((B(t)·deḡ + 1)/(ε²δ)·|V|)` suffices. Increasing `t` trades
//! walks for steps, beating the collisions-in-one-round approach of
//! Katzir et al. \[KLSC14\] whenever burn-in (mixing) is expensive —
//! Section 5.1.5 works the comparison on k-dimensional tori.
//!
//! Components:
//!
//! * [`algorithm2`] — the multi-round collision estimator (Algorithm 2);
//!   its walks, burn-in included, are the agents of one engine.
//! * [`degree`] — Algorithm 3: inverse-degree sampling for `deḡ`
//!   (Theorem 31).
//! * [`burnin`] — burn-in length planning (Section 5.1.4) and exact
//!   TV-distance profiles.
//! * [`katzir`] — the KLSC14 baseline: collisions in a single
//!   post-burn-in round.
//! * [`queries`] — link-query accounting (the paper's cost model: every
//!   walker step is one neighborhood query).
//! * [`planner`] — solves Theorem 27 for `(n, t)` and predicts total
//!   query cost, including the ours-vs-KLSC14 crossover.
//! * [`median`] — median-of-estimates boosting (Section 5.1.2's remark).
//!
//! # Example
//!
//! ```
//! use antdensity_graphs::generators;
//! use antdensity_netsize::algorithm2::{Algorithm2, StartMode};
//! use rand::SeedableRng;
//! use rand::rngs::SmallRng;
//!
//! let mut rng = SmallRng::seed_from_u64(5);
//! let g = generators::random_regular(400, 6, 300, &mut rng).unwrap();
//! let run = Algorithm2::new(120, 60).run(&g, g.avg_degree(), StartMode::Stationary, 1);
//! let err = (run.estimate - 400.0).abs() / 400.0;
//! assert!(err < 0.5, "estimate {} should be within 50% of 400", run.estimate);
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod algorithm2;
pub mod burnin;
pub mod degree;
pub mod katzir;
pub mod median;
pub mod planner;
pub mod queries;
pub mod singlewalk;

pub use algorithm2::{Algorithm2, NetSizeRun, StartMode};
pub use planner::NetsizePlan;
pub use queries::QueryCount;
