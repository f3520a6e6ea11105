//! Statistics substrate for the `antdensity` reproduction of
//! *Ant-Inspired Density Estimation via Random Walks* (Musco, Su, Lynch;
//! PODC 2016 / PNAS 2017).
//!
//! The paper's results are concentration bounds on random-walk collision
//! statistics. Verifying them empirically requires a small, dependable
//! statistics toolkit:
//!
//! * [`moments`] — streaming mean/variance (Welford) and exact central
//!   moments of arbitrary order, used to test the paper's k-th moment
//!   bounds (Lemma 11, Corollaries 15 and 16).
//! * [`quantile`](mod@quantile) / [`histogram`] — empirical error
//!   distributions.
//! * [`bounds`] — closed forms of every bound stated in the paper
//!   (Theorem 1, Lemma 19, Theorem 21, Theorem 27, Theorem 32, and the
//!   complete-graph Chernoff baseline of Section 1.1).
//! * [`regression`] — least-squares and log–log slope fitting, used to
//!   verify decay exponents (−1 on the torus, −1/2 on the ring, −k/2 on
//!   k-dimensional tori, …).
//! * [`ci`] — Wilson confidence intervals for Monte-Carlo proportions.
//! * [`mom`] — median boosting (the paper's median-of-estimates trick from
//!   Section 5.1.2).
//! * [`rng`] — SplitMix64 seed derivation so that every simulation in the
//!   workspace is reproducible from a single master seed.
//! * [`schedule`] — checkpoint schedules (the round counts at which a
//!   streaming estimator snapshots): validated sorted sets, sized by
//!   `max`, generated geometrically by `log_spaced` for dense
//!   accuracy-vs-rounds curves.
//! * [`table`] — ASCII table / CSV rendering shared by the experiment
//!   harness and the examples.
//!
//! # Example
//!
//! ```
//! use antdensity_stats::moments::SampleStats;
//!
//! let samples = [1.0, 2.0, 3.0, 4.0];
//! let stats = SampleStats::from_slice(&samples);
//! assert_eq!(stats.mean(), 2.5);
//! assert!((stats.variance() - 5.0 / 3.0).abs() < 1e-12);
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod bounds;
pub mod ci;
pub mod histogram;
pub mod mom;
pub mod moments;
pub mod quantile;
pub mod regression;
pub mod rng;
pub mod schedule;
pub mod table;

pub use bounds::{chernoff_rounds, theorem1_epsilon, theorem1_rounds};
pub use moments::{CentralMoments, SampleStats, StreamingMoments};
pub use quantile::quantile;
pub use regression::{LinearFit, LogLogFit};
pub use rng::SeedSequence;
pub use schedule::Schedule;
pub use table::Table;
