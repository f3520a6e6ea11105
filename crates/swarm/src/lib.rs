//! Applications of ant-inspired density estimation to robot swarms and
//! sensor networks (Sections 5.2 and 6.3 of the paper).
//!
//! * [`robot`] — Section 5.2: a robot swarm on a 2-d grid estimates both
//!   overall density and per-task-group densities by tracking encounter
//!   rates, yielding relative-frequency estimates `f̃_P = d̃_P/d̃`. The
//!   swarm is an engine `Scenario` with one agent group per task group.
//! * [`sensor`] — Section 6.3.1: random-walk ("token") sampling of a
//!   sensor network. A query token is relayed between sensors on a grid
//!   communication network, aggregating an answer as it walks — no
//!   spanning tree, no visited-set bookkeeping. Node-failure injection
//!   shows the scheme's robustness; the repeat-visit penalty is measured
//!   against i.i.d. sampling (bounded by the paper's Corollary 15).
//! * [`coverage`] — Section 6.3.4: swarm coverage statistics
//!   (distinct-cells-visited over time) and a density-triggered
//!   dispersion protocol sketch ("detect regions with high robot density
//!   and … spread out this density"). Its robots, like the sensor
//!   token, are the agents of an `Engine`.
//!
//! # Example
//!
//! ```
//! use antdensity_swarm::robot::SwarmConfig;
//!
//! // 96 robots on a 32x32 grid, two task groups.
//! let report = SwarmConfig::new(32, 96, 512)
//!     .with_groups(&[24, 8])
//!     .run(7);
//! let f0 = report.mean_frequency(0).unwrap();
//! assert!(f0 > 0.1 && f0 < 0.45, "group 0 is ~25% of the swarm: {f0}");
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod coverage;
pub mod robot;
pub mod sensor;

pub use robot::{SwarmConfig, SwarmReport};
pub use sensor::{SensorField, TokenEstimate};
