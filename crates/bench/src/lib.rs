//! Experiment harness: regenerates every quantitative claim of
//! *Ant-Inspired Density Estimation via Random Walks* (Musco, Su, Lynch).
//!
//! The paper is a theory paper — its "results" are theorems. Each
//! experiment module here turns one theorem/lemma family into a table
//! whose *shape* (decay exponents, ratios, crossovers, coverage
//! probabilities) must match the paper's prediction; `EXPERIMENTS.md`
//! records paper-vs-measured for each.
//!
//! | id | claim |
//! |----|-------|
//! | E1 | Theorem 1: torus accuracy `ε ≈ √(log(1/δ)/td)·log 2t` |
//! | E2 | Lemma 2 / Cor. 3: unbiasedness on every topology |
//! | E3 | Lemma 4 / Lemma 9: torus re-collision `O(1/(m+1) + 1/A)` |
//! | E4 | Cor. 10: equalization `Θ(1/(m+1))`, 0 at odd lags |
//! | E5 | Lemma 11 / Cor. 15 / Cor. 16: collision-count moments |
//! | E6 | §1.1: torus vs complete graph — a `log 2t` gap |
//! | E7 | Theorem 32: Algorithm 4 accuracy and `c mod t` correction |
//! | E8 | Lemma 20 / Thm 21: ring `1/√m` re-collision, `t^{-1/4}` error |
//! | E9 | Lemma 22: k-dim tori match independent sampling (k ≥ 3) |
//! | E10 | Lemma 23/24: expander `λ^m` re-collision |
//! | E11 | Lemma 25/26: hypercube `(9/10)^{m-1} + 1/√A` |
//! | E12 | Thm 27 + §5.1.5: network size, query exponents vs KLSC14 |
//! | E13 | Thm 31: average-degree estimation |
//! | E14 | §5.1.4: burn-in TV decay and estimate bias |
//! | E15 | §5.2 + §6.1: frequency estimation, noise, biased walks |
//! | E16 | extension (§2.1.1/§6.1): clustered placement, local density |
//! | E17 | extension (§6.1/§6.3.3): avoidance/flee behaviours; single-walk sizing |
//!
//! Run everything with `cargo run -p antdensity-bench --bin repro --release -- all`.
//!
//! `repro bench` times the engine's round and writes the
//! machine-readable `BENCH_engine.json` ([`perf`]), the perf trajectory
//! CI tracks from PR to PR, and exits 1 when a bound of the
//! [`perf::CLAIMS`] table fails: each is the median of per-batch time
//! ratios between two implementations timed in turn in the same run.
//!
//! `repro sweep SPEC` runs a declarative parameter-grid sweep
//! (`antdensity-sweep`): committed specs under `specs/` replace
//! hand-written experiment binaries for grid-shaped studies, with
//! checkpoint/resume and bit-identical aggregates.

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod cli;
pub mod experiments;
pub mod perf;
pub mod report;

pub use perf::{EngineBenchReport, EngineBenchResult};
pub use report::{Effort, ExperimentReport};
