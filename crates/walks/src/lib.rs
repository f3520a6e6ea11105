//! The trial fan-out under its former path.
//!
//! The end-to-end benchmark (`perfbench/`) imports
//! `antdensity_walks::parallel::run_trials_on`, and the benchmark's files
//! change only together with the benchmark itself. This crate keeps that
//! one path alive until then. The fan-out lives in
//! [`antdensity_engine::pool`]; everything else imports it from there.

#![deny(missing_docs)]

/// The benchmark's import path for [`antdensity_engine::pool::run_trials_on`].
pub mod parallel {
    pub use antdensity_engine::pool::run_trials_on;
}
