//! Estimation-as-a-service: the `repro serve` daemon.
//!
//! A long-running process that accepts density-estimation jobs over a
//! line-delimited JSON protocol (TCP, or stdio for a single session),
//! streams per-cell estimates as shards land, and answers
//! status/cancel/metrics requests — ROADMAP item 1.
//!
//! The crate is deliberately thin over the sweep layer:
//!
//! - [`request`] — the typed wire protocol. A submit deserializes
//!   into [`antdensity_sweep::SweepJob`], the *same* validated request
//!   type the CLI builds, so wire jobs and argv jobs cannot drift.
//! - [`daemon`] — admission control (bounded queue), the job registry
//!   and lifecycle state machine, executor threads over the shared
//!   process-global worker pool.
//! - [`client`] — a blocking client used by `repro serve-submit` and
//!   the property suite.
//!
//! Determinism is inherited, not engineered: every shard's RNG stream
//! derives from its job's resolved spec alone, so any interleaving of
//! any number of concurrent clients produces, per job, the exact
//! bytes of the equivalent `repro sweep` run. The service property
//! suite pins this down.

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod client;
pub mod daemon;
pub mod request;

pub use client::{Client, JobResult};
pub use daemon::{run_stdio, ServeConfig, Server};
pub use request::{Event, Request, Submit, PROTOCOL};
