//! Graph substrate for the `antdensity` reproduction of
//! *Ant-Inspired Density Estimation via Random Walks* (Musco, Su, Lynch).
//!
//! The paper analyses random-walk collision statistics on a family of
//! graph topologies:
//!
//! * the **two-dimensional torus** — the main stage (Sections 2–3),
//! * the **ring** (1-d torus, Section 4.2),
//! * **k-dimensional tori** for k ≥ 3 (Section 4.3),
//! * **regular expanders** (Section 4.4),
//! * **hypercubes** (Section 4.5),
//! * the **complete graph** — the idealised i.i.d. baseline (Section 1.1),
//! * and arbitrary **irregular graphs** for the network-size application
//!   (Section 5.1), built here by standard generators (Erdős–Rényi,
//!   Barabási–Albert, Watts–Strogatz, random regular, grids with holes,
//!   rings of cliques).
//!
//! Everything implements the [`Topology`] trait (nodes are dense `u64`
//! ids), so the simulation engine and estimators are topology-generic.
//! Every general graph is a [`CsrGraph`]: the generators return one, the
//! engine walks it, and the network-size estimators query it.
//!
//! The [`dist`] module evolves walk distributions *exactly* (sparse
//! matrix–vector products), which lets the experiment harness verify the
//! paper's re-collision bounds (Lemmas 4, 9, 20, 22, 23, 25) without
//! Monte-Carlo noise. The [`spectral`] module estimates the walk-matrix
//! eigenvalue `λ = max(|λ₂|, |λ_A|)` that drives the expander bound
//! (Lemma 23/24) and the burn-in analysis (Section 5.1.4).
//!
//! # Example
//!
//! ```
//! use antdensity_graphs::{Topology, Torus2d};
//! use rand::SeedableRng;
//! use rand::rngs::SmallRng;
//!
//! let torus = Torus2d::new(16); // 16 x 16, A = 256
//! assert_eq!(torus.num_nodes(), 256);
//! let mut rng = SmallRng::seed_from_u64(1);
//! let v = torus.uniform_node(&mut rng);
//! let w = torus.random_neighbor(v, &mut rng);
//! assert_eq!(torus.torus_distance(v, w), 1);
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod complete;
pub mod csr;
pub mod dist;
pub mod fastdiv;
pub mod generators;
pub mod hypercube;
pub mod spectral;
pub mod topology;
pub mod torus;

pub use complete::CompleteGraph;
pub use csr::CsrGraph;
pub use dist::WalkDistribution;
pub use fastdiv::FastDiv;
pub use hypercube::Hypercube;
pub use topology::{NodeId, Topology};
pub use torus::{Ring, Torus2d, TorusKd};
