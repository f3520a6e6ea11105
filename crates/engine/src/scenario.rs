//! Config-driven scenarios: topology × movement × estimator × noise as
//! one runnable, seedable description.
//!
//! A [`Scenario`] composes the axes every experiment in the paper varies —
//! which graph, how agents move (pure walk plus the Section 6.1
//! avoidance/flee variants), what is estimated (Algorithm 1, Algorithm 4,
//! quorum read-out, Section 5.2 relative frequency), and how noisy the
//! collision sensor is — into a plain-data spec. `run(seed)` builds the
//! topology, drives the batched [`Engine`] with deterministic chunked
//! parallelism, and returns a [`ScenarioOutcome`]; the result is a pure
//! function of `(spec, seed)` for any thread count.
//!
//! Estimation itself is the streaming observer pipeline of
//! [`crate::observer`]: the driver emits each round's encounter events
//! once and observers snapshot estimates at rounds-checkpoints.
//! [`Scenario::run_streamed`] exposes the fused form — several
//! estimators and whole accuracy-vs-rounds curves from **one**
//! simulation pass, bit-identical to running each combination alone.
//!
//! # Example
//!
//! ```
//! use antdensity_engine::scenario::{Scenario, TopologySpec};
//!
//! // 65 agents on a 32x32 torus, Algorithm 1 for 256 rounds.
//! let outcome = Scenario::new(TopologySpec::Torus2d { side: 32 }, 65, 256).run(42);
//! assert_eq!(outcome.estimates.len(), 65);
//! assert!((outcome.mean_estimate() - outcome.true_density).abs() < 0.05);
//! ```

use crate::config::EngineConfig;
use crate::engine::Engine;
use crate::movement::MovementModel;
use crate::observer::{observer_for, EncounterTallies, Observer, RoundEvents, Schedule, SimFamily};
use crate::pool::WorkerPool;
use antdensity_graphs::generators::{self, GenerateError};
use antdensity_graphs::{
    CompleteGraph, CsrGraph, Hypercube, NodeId, Ring, Topology, Torus2d, TorusKd,
};
use antdensity_stats::rng::SeedSequence;
use rand::Rng;
use std::sync::Arc;

/// Which graph the scenario runs on.
///
/// Two families of variants: the paper's **structured** topologies
/// (torus, ring, hypercube, complete graph), each backed by a dedicated
/// implementation with closed-form theory; and the pluggable **CSR**
/// variants (`csr:*` tokens), arbitrary graphs materialised as
/// [`CsrGraph`]s by deterministic generators. CSR specs are pure
/// *descriptions*: the same spec always builds the identical graph (the
/// generator stream is derived from the spec parameters, never from the
/// simulation seed), so sweeps, fingerprints, and checkpoint resume all
/// remain bit-stable. Builds are cached process-wide — a sweep touching
/// one spec in hundreds of shards constructs its graph once.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TopologySpec {
    /// The paper's main stage: a `side × side` torus.
    Torus2d {
        /// Side length (A = side²).
        side: u64,
    },
    /// A k-dimensional torus (Section 4.3).
    TorusKd {
        /// Number of dimensions.
        dims: u32,
        /// Side length per dimension.
        side: u64,
    },
    /// The ring / 1-d torus (Section 4.2).
    Ring {
        /// Number of nodes.
        nodes: u64,
    },
    /// The hypercube (Section 4.5).
    Hypercube {
        /// Number of dimensions (A = 2^dims).
        dims: u32,
    },
    /// The complete graph — the i.i.d. baseline (Section 1.1).
    Complete {
        /// Number of nodes.
        nodes: u64,
    },
    /// Random `degree`-regular CSR graph (an expander w.h.p. — Section
    /// 4.4's setting, realised by the Steger–Wormald pairing sampler).
    /// Token `csr:regular:<n>:<d>`.
    CsrRegular {
        /// Number of nodes.
        nodes: u64,
        /// Uniform degree.
        degree: u32,
    },
    /// Erdős–Rényi `G(n, p)` with `p = avg_degree/(n−1)`, re-sampled
    /// until connected (choose `avg_degree ≳ ln n`). Token
    /// `csr:gnp:<n>:<avg-deg>`.
    CsrGnp {
        /// Number of nodes.
        nodes: u64,
        /// Expected average degree (sets `p`).
        avg_degree: u32,
    },
    /// Barry-style irregular region: non-wrapping `side × side` grid
    /// with cells removed at the hole fraction, reduced to its largest
    /// connected component. Token
    /// `csr:grid-holes:<side>:<mask-seed>:<hole-frac>` (fraction in
    /// `[0, 0.9]`, resolved to per-mille).
    CsrGridHoles {
        /// Grid side before masking.
        side: u64,
        /// Seed of the hole mask (a spec parameter, so distinct regions
        /// are distinct cells in a sweep).
        mask_seed: u64,
        /// Hole fraction in per-mille (`200` = 0.2), kept integral so
        /// specs stay `Eq + Hash` and round-trip exactly.
        hole_pm: u32,
    },
    /// Ring of cliques — the classic bottleneck family (dense local
    /// neighborhoods, slow global mixing). Token
    /// `csr:cliquering:<cliques>:<size>`.
    CsrCliqueRing {
        /// Number of cliques on the ring.
        cliques: u64,
        /// Nodes per clique.
        clique_size: u64,
    },
}

impl std::fmt::Display for TopologySpec {
    /// Canonical spec-file syntax: `torus2d:32`, `toruskd:3x8`,
    /// `ring:1024`, `hypercube:10`, `complete:1024`,
    /// `csr:regular:1024:8`, `csr:gnp:1024:12`,
    /// `csr:grid-holes:32:7:0.2`, `csr:cliquering:16:8`. Round-trips
    /// through [`FromStr`](std::str::FromStr).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Self::Torus2d { side } => write!(f, "torus2d:{side}"),
            Self::TorusKd { dims, side } => write!(f, "toruskd:{dims}x{side}"),
            Self::Ring { nodes } => write!(f, "ring:{nodes}"),
            Self::Hypercube { dims } => write!(f, "hypercube:{dims}"),
            Self::Complete { nodes } => write!(f, "complete:{nodes}"),
            Self::CsrRegular { nodes, degree } => write!(f, "csr:regular:{nodes}:{degree}"),
            Self::CsrGnp { nodes, avg_degree } => write!(f, "csr:gnp:{nodes}:{avg_degree}"),
            Self::CsrGridHoles {
                side,
                mask_seed,
                hole_pm,
            } => write!(
                f,
                "csr:grid-holes:{side}:{mask_seed}:{}",
                hole_pm as f64 / 1000.0
            ),
            Self::CsrCliqueRing {
                cliques,
                clique_size,
            } => write!(f, "csr:cliquering:{cliques}:{clique_size}"),
        }
    }
}

impl std::str::FromStr for TopologySpec {
    type Err = String;

    /// Parses the [`Display`](std::fmt::Display) syntax (the sweep
    /// spec-file axis format). Malformed tokens are rejected with the
    /// expected grammar and the offending field named.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (kind, arg) = match s.split_once(':') {
            Some((k, a)) => (k.trim(), a.trim()),
            None => return Err(format!("topology `{s}`: expected `kind:params`")),
        };
        let num = |a: &str, what: &str| -> Result<u64, String> {
            a.parse::<u64>()
                .map_err(|_| format!("topology `{s}`: bad {what} `{a}`"))
                .and_then(|v| {
                    if v == 0 {
                        Err(format!("topology `{s}`: {what} must be positive"))
                    } else {
                        Ok(v)
                    }
                })
        };
        // Node ids are u64: sizes that overflow them are rejected here,
        // not left to panic in `build`.
        let overflow = || format!("topology `{s}`: node count overflows u64");
        match kind {
            "torus2d" => {
                let side = num(arg, "side")?;
                side.checked_mul(side).ok_or_else(overflow)?;
                Ok(Self::Torus2d { side })
            }
            "toruskd" => {
                let (d, side) = arg
                    .split_once('x')
                    .ok_or_else(|| format!("topology `{s}`: expected `toruskd:<dims>x<side>`"))?;
                let side = num(side, "side")?;
                let dims = u32::try_from(num(d, "dims")?)
                    .ok()
                    .filter(|&dims| side.checked_pow(dims).is_some())
                    .ok_or_else(overflow)?;
                Ok(Self::TorusKd { dims, side })
            }
            "ring" => Ok(Self::Ring {
                nodes: num(arg, "node count")?,
            }),
            "hypercube" => {
                let dims = num(arg, "dims")?;
                if dims >= 64 {
                    return Err(overflow());
                }
                Ok(Self::Hypercube { dims: dims as u32 })
            }
            "complete" => Ok(Self::Complete {
                nodes: num(arg, "node count")?,
            }),
            "csr" => parse_csr(s, arg, &num),
            other => Err(format!(
                "unknown topology kind `{other}` (expected torus2d, toruskd, ring, hypercube, \
                 complete, or csr:<family>)"
            )),
        }
    }
}

/// Parses the `csr:<family>:<params>` token family (`s` is the whole
/// token for error messages, `arg` everything after `csr:`).
fn parse_csr(
    s: &str,
    arg: &str,
    num: &dyn Fn(&str, &str) -> Result<u64, String>,
) -> Result<TopologySpec, String> {
    let (family, params) = arg.split_once(':').ok_or_else(|| {
        format!("topology `{s}`: expected `csr:<family>:<params>` (families: regular, gnp, grid-holes, cliquering)")
    })?;
    let parts: Vec<&str> = params.split(':').map(str::trim).collect();
    // CSR node ids (and hence node counts) are u32 by design; rejecting
    // oversized parameters here keeps every later cast lossless and
    // every arithmetic check overflow-free, and fails at parse time
    // instead of mid-sweep inside build().
    let capped = |v: u64, what: &str| -> Result<u64, String> {
        if v > u32::MAX as u64 {
            Err(format!(
                "topology `{s}`: {what} {v} exceeds the CSR backend's u32 node domain (max {})",
                u32::MAX
            ))
        } else {
            Ok(v)
        }
    };
    match family.trim() {
        "regular" => {
            if parts.len() != 2 {
                return Err(format!("topology `{s}`: expected `csr:regular:<n>:<d>`"));
            }
            let nodes = capped(num(parts[0], "node count")?, "node count")?;
            let degree = num(parts[1], "degree")?;
            if degree >= nodes {
                return Err(format!(
                    "topology `{s}`: degree {degree} must be below node count {nodes}"
                ));
            }
            if !(nodes * degree).is_multiple_of(2) {
                return Err(format!(
                    "topology `{s}`: n·d = {} must be even for a d-regular graph",
                    nodes * degree
                ));
            }
            Ok(TopologySpec::CsrRegular {
                nodes,
                degree: degree as u32,
            })
        }
        "gnp" => {
            if parts.len() != 2 {
                return Err(format!("topology `{s}`: expected `csr:gnp:<n>:<avg-deg>`"));
            }
            let nodes = capped(num(parts[0], "node count")?, "node count")?;
            let avg_degree = num(parts[1], "average degree")?;
            if nodes < 2 {
                return Err(format!("topology `{s}`: G(n,p) needs n >= 2"));
            }
            if avg_degree >= nodes {
                return Err(format!(
                    "topology `{s}`: average degree {avg_degree} must be below node count {nodes}"
                ));
            }
            // Connectivity threshold: G(n, p) is connected w.h.p. only
            // for p >= ln n / n. Below (with margin for the build's 200
            // retries) the generator would exhaust its attempts rounds
            // into a sweep — fail here instead.
            let threshold = (nodes as f64).ln() - 1.0;
            if (avg_degree as f64) < threshold {
                return Err(format!(
                    "topology `{s}`: average degree {avg_degree} is below the G(n,p) \
connectivity threshold (choose avg-deg >= ln n \u{2248} {:.1} for a connected sample)",
                    (nodes as f64).ln()
                ));
            }
            Ok(TopologySpec::CsrGnp {
                nodes,
                avg_degree: avg_degree as u32,
            })
        }
        "grid-holes" => {
            if parts.len() != 3 {
                return Err(format!(
                    "topology `{s}`: expected `csr:grid-holes:<side>:<mask-seed>:<hole-frac>`"
                ));
            }
            let side = num(parts[0], "side")?;
            if side < 2 {
                return Err(format!("topology `{s}`: side must be at least 2"));
            }
            if side > 65_535 {
                return Err(format!(
                    "topology `{s}`: side {side} puts side² beyond the CSR backend's u32 node domain (max side 65535)"
                ));
            }
            let mask_seed: u64 = parts[1]
                .parse()
                .map_err(|_| format!("topology `{s}`: bad mask seed `{}`", parts[1]))?;
            let frac: f64 = parts[2]
                .parse()
                .map_err(|_| format!("topology `{s}`: bad hole fraction `{}`", parts[2]))?;
            if !(0.0..=0.9).contains(&frac) {
                return Err(format!(
                    "topology `{s}`: hole fraction {frac} outside [0, 0.9]"
                ));
            }
            Ok(TopologySpec::CsrGridHoles {
                side,
                mask_seed,
                hole_pm: (frac * 1000.0).round() as u32,
            })
        }
        "cliquering" => {
            if parts.len() != 2 {
                return Err(format!(
                    "topology `{s}`: expected `csr:cliquering:<cliques>:<size>`"
                ));
            }
            let cliques = num(parts[0], "clique count")?;
            let clique_size = num(parts[1], "clique size")?;
            if cliques < 2 {
                return Err(format!("topology `{s}`: need at least 2 cliques"));
            }
            if clique_size < 3 {
                return Err(format!("topology `{s}`: clique size must be at least 3"));
            }
            match cliques.checked_mul(clique_size) {
                Some(n) => capped(n, "node count (cliques × size)")?,
                None => {
                    return Err(format!(
                        "topology `{s}`: cliques × size overflows the node domain"
                    ))
                }
            };
            Ok(TopologySpec::CsrCliqueRing {
                cliques,
                clique_size,
            })
        }
        other => Err(format!(
            "topology `{s}`: unknown csr family `{other}` (expected regular, gnp, grid-holes, \
             cliquering)"
        )),
    }
}

/// Derivation root for CSR generator streams: graphs are a pure function
/// of the spec, never of the simulation seed.
const CSR_BUILD_STREAM: u64 = 0x4353_5247; // "CSRG"

/// Builds the CSR graph a `csr:*` spec describes (uncached).
///
/// # Errors
///
/// The generator's error if the parameters cannot produce a valid graph
/// (e.g. a `grid-holes` mask that leaves no two adjacent open cells).
fn build_csr_graph(spec: &TopologySpec) -> Result<CsrGraph, GenerateError> {
    match *spec {
        TopologySpec::CsrRegular { nodes, degree } => {
            let mut rng = SeedSequence::new(CSR_BUILD_STREAM)
                .subsequence(nodes)
                .rng(degree as u64);
            generators::random_regular(nodes, degree as usize, 1000, &mut rng)
        }
        TopologySpec::CsrGnp { nodes, avg_degree } => {
            let p = avg_degree as f64 / (nodes - 1) as f64;
            let mut rng = SeedSequence::new(CSR_BUILD_STREAM)
                .subsequence(!nodes)
                .rng(avg_degree as u64);
            generators::erdos_renyi_connected(nodes, p, 200, &mut rng)
        }
        TopologySpec::CsrGridHoles {
            side,
            mask_seed,
            hole_pm,
        } => {
            let mut rng = SeedSequence::new(CSR_BUILD_STREAM)
                .subsequence(mask_seed)
                .rng(side ^ (u64::from(hole_pm) << 32));
            generators::grid_with_holes(side, f64::from(hole_pm) / 1000.0, &mut rng)
        }
        TopologySpec::CsrCliqueRing {
            cliques,
            clique_size,
        } => generators::ring_of_cliques(cliques, clique_size),
        ref structured => panic!("{structured} is not a csr spec"),
    }
}

/// Process-global build cache for `csr:*` specs: the graph is a pure
/// (deterministic) function of the spec, so every consumer — scenario
/// runs, sweep shards, node-count queries, theory bounds — shares one
/// immutable build per spec. Only successful builds are cached.
fn csr_cached(spec: TopologySpec) -> Result<Arc<CsrGraph>, GenerateError> {
    use std::collections::HashMap;
    use std::sync::{Mutex, OnceLock};
    static CACHE: OnceLock<Mutex<HashMap<TopologySpec, Arc<CsrGraph>>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    if let Some(g) = cache.lock().expect("csr cache lock").get(&spec) {
        return Ok(Arc::clone(g));
    }
    // Built outside the lock: slow builds don't serialize distinct
    // specs. A racing duplicate build is wasted work, nothing more.
    let built = Arc::new(build_csr_graph(&spec)?);
    Ok(Arc::clone(
        cache
            .lock()
            .expect("csr cache lock")
            .entry(spec)
            .or_insert(built),
    ))
}

impl TopologySpec {
    /// Instantiates the concrete topology. For `csr:*` specs this
    /// returns a handle to the process-wide cached build.
    ///
    /// # Errors
    ///
    /// For `csr:*` specs whose generator cannot produce a valid graph.
    /// Spec validation (`SweepSpec::resolve`) calls this, so a sweep or
    /// serve job that passed it builds every topology infallibly.
    pub fn try_build(&self) -> Result<BuiltTopology, GenerateError> {
        Ok(match *self {
            Self::Torus2d { side } => BuiltTopology::Torus2d(Torus2d::new(side)),
            Self::TorusKd { dims, side } => BuiltTopology::TorusKd(TorusKd::new(dims, side)),
            Self::Ring { nodes } => BuiltTopology::Ring(Ring::new(nodes)),
            Self::Hypercube { dims } => BuiltTopology::Hypercube(Hypercube::new(dims)),
            Self::Complete { nodes } => BuiltTopology::Complete(CompleteGraph::new(nodes)),
            Self::CsrRegular { .. }
            | Self::CsrGnp { .. }
            | Self::CsrGridHoles { .. }
            | Self::CsrCliqueRing { .. } => BuiltTopology::Csr(csr_cached(*self)?),
        })
    }

    /// [`Self::try_build`] for specs known to build.
    ///
    /// # Panics
    ///
    /// For `csr:*` specs whose generator cannot produce a valid graph
    /// (message names the token and the reason).
    pub fn build(&self) -> BuiltTopology {
        self.try_build()
            .unwrap_or_else(|e| panic!("topology `{self}`: {e}"))
    }

    /// Node count of the topology this spec builds. Closed-form for
    /// every variant except `csr:grid-holes`, whose surviving-component
    /// size is a property of the (cached, deterministic) build.
    ///
    /// # Panics
    ///
    /// As [`Self::build`] for `csr:grid-holes`.
    pub fn num_nodes(&self) -> u64 {
        match *self {
            Self::Torus2d { side } => side * side,
            Self::TorusKd { dims, side } => side.pow(dims),
            Self::Ring { nodes } => nodes,
            Self::Hypercube { dims } => 1u64 << dims,
            Self::Complete { nodes } => nodes,
            Self::CsrRegular { nodes, .. } | Self::CsrGnp { nodes, .. } => nodes,
            Self::CsrGridHoles { .. } => self.build().num_nodes(),
            Self::CsrCliqueRing {
                cliques,
                clique_size,
            } => cliques * clique_size,
        }
    }
}

/// A concrete topology built from a [`TopologySpec`] (enum dispatch keeps
/// [`Scenario::run`] monomorphic and object-safe to store in tables).
/// CSR builds are shared [`Arc`] handles from the process-wide cache.
#[derive(Debug, Clone)]
pub enum BuiltTopology {
    /// 2-d torus.
    Torus2d(Torus2d),
    /// k-d torus.
    TorusKd(TorusKd),
    /// Ring.
    Ring(Ring),
    /// Hypercube.
    Hypercube(Hypercube),
    /// Complete graph.
    Complete(CompleteGraph),
    /// Pluggable CSR graph (any `csr:*` spec).
    Csr(Arc<CsrGraph>),
}

impl Topology for BuiltTopology {
    fn num_nodes(&self) -> u64 {
        match self {
            Self::Torus2d(t) => t.num_nodes(),
            Self::TorusKd(t) => t.num_nodes(),
            Self::Ring(t) => t.num_nodes(),
            Self::Hypercube(t) => t.num_nodes(),
            Self::Complete(t) => t.num_nodes(),
            Self::Csr(t) => t.num_nodes(),
        }
    }

    fn degree(&self, v: NodeId) -> usize {
        match self {
            Self::Torus2d(t) => t.degree(v),
            Self::TorusKd(t) => t.degree(v),
            Self::Ring(t) => t.degree(v),
            Self::Hypercube(t) => t.degree(v),
            Self::Complete(t) => t.degree(v),
            Self::Csr(t) => t.degree(v),
        }
    }

    fn neighbor(&self, v: NodeId, i: usize) -> NodeId {
        match self {
            Self::Torus2d(t) => t.neighbor(v, i),
            Self::TorusKd(t) => t.neighbor(v, i),
            Self::Ring(t) => t.neighbor(v, i),
            Self::Hypercube(t) => t.neighbor(v, i),
            Self::Complete(t) => t.neighbor(v, i),
            Self::Csr(t) => t.neighbor(v, i),
        }
    }

    // Delegating hoists the enum dispatch out of the per-draw chain and
    // reaches each implementation's fast path (the CSR arm's
    // zone-hoisted division-free draw in particular). Every arm draws
    // bit-identically to the trait default, so results never move.
    fn random_neighbor<R: rand::RngCore + ?Sized>(&self, v: NodeId, rng: &mut R) -> NodeId {
        match self {
            Self::Torus2d(t) => t.random_neighbor(v, rng),
            Self::TorusKd(t) => t.random_neighbor(v, rng),
            Self::Ring(t) => t.random_neighbor(v, rng),
            Self::Hypercube(t) => t.random_neighbor(v, rng),
            Self::Complete(t) => t.random_neighbor(v, rng),
            Self::Csr(t) => t.random_neighbor(v, rng),
        }
    }

    // Delegating hoists the enum dispatch out of the per-agent loop and
    // reaches each topology's branchless batched kernel.
    fn apply_moves(&self, positions: &mut [u32], moves: &[u32]) {
        match self {
            Self::Torus2d(t) => t.apply_moves(positions, moves),
            Self::TorusKd(t) => t.apply_moves(positions, moves),
            Self::Ring(t) => t.apply_moves(positions, moves),
            Self::Hypercube(t) => t.apply_moves(positions, moves),
            Self::Complete(t) => t.apply_moves(positions, moves),
            Self::Csr(t) => t.apply_moves(positions, moves),
        }
    }

    fn regular_degree(&self) -> Option<usize> {
        match self {
            Self::Torus2d(t) => t.regular_degree(),
            Self::TorusKd(t) => t.regular_degree(),
            Self::Ring(t) => t.regular_degree(),
            Self::Hypercube(t) => t.regular_degree(),
            Self::Complete(t) => t.regular_degree(),
            Self::Csr(t) => t.regular_degree(),
        }
    }
}

/// The Section 6.1 noisy collision sensor (the canonical
/// [`CollisionNoise`](crate::sampling::CollisionNoise), under the name
/// the spec layer has always used).
pub use crate::sampling::CollisionNoise as NoiseSpec;

/// What the scenario estimates from the accumulated collision counts.
#[derive(Debug, Clone, PartialEq)]
pub enum EstimatorSpec {
    /// Algorithm 1: every agent walks and returns `d̃ = c/t`.
    Algorithm1,
    /// Algorithm 4 (Appendix A): a fair coin splits agents into a
    /// stationary half and a half drifting along a fixed move; the
    /// estimate is `d̃ = 2·(c mod t)/t`, the `mod t` removing the
    /// lockstep collisions of co-located drifting starts. Requires a
    /// [`TopologySpec::Torus2d`] with `rounds < side` (Theorem 32's
    /// precondition) — [`Scenario::run`] panics otherwise.
    Algorithm4,
    /// Quorum read-out (Section 6.2): run Algorithm 1, then report per
    /// agent whether `d̃ ≥ threshold`. (The adaptive sequential test
    /// lives in `antdensity_core::quorum`.)
    Quorum {
        /// Density threshold to detect.
        threshold: f64,
    },
    /// Section 5.2 relative frequency: the first `property_agents` agents
    /// carry the property; every agent tracks both total and
    /// property-only encounters and estimates `f̃ = d̃_P / d̃`.
    RelativeFrequency {
        /// How many agents carry the property.
        property_agents: usize,
    },
}

impl std::fmt::Display for EstimatorSpec {
    /// Canonical spec-file syntax: `alg1`, `alg4`, `quorum:<threshold>`,
    /// `relfreq:<property_agents>`. Round-trips through
    /// [`FromStr`](std::str::FromStr).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Algorithm1 => write!(f, "alg1"),
            Self::Algorithm4 => write!(f, "alg4"),
            Self::Quorum { threshold } => write!(f, "quorum:{threshold}"),
            Self::RelativeFrequency { property_agents } => write!(f, "relfreq:{property_agents}"),
        }
    }
}

impl std::str::FromStr for EstimatorSpec {
    type Err = String;

    /// Parses the [`Display`](std::fmt::Display) syntax.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        match s {
            "alg1" => return Ok(Self::Algorithm1),
            "alg4" => return Ok(Self::Algorithm4),
            _ => {}
        }
        if let Some(arg) = s.strip_prefix("quorum:") {
            let threshold: f64 = arg
                .trim()
                .parse()
                .map_err(|_| format!("estimator `{s}`: bad threshold `{arg}`"))?;
            if !(threshold.is_finite() && threshold > 0.0) {
                return Err(format!("estimator `{s}`: threshold must be positive"));
            }
            return Ok(Self::Quorum { threshold });
        }
        if let Some(arg) = s.strip_prefix("relfreq:") {
            let property_agents: usize = arg
                .trim()
                .parse()
                .map_err(|_| format!("estimator `{s}`: bad property population `{arg}`"))?;
            return Ok(Self::RelativeFrequency { property_agents });
        }
        Err(format!(
            "unknown estimator `{s}` (expected alg1, alg4, quorum:<threshold>, relfreq:<agents>)"
        ))
    }
}

/// A runnable, seedable simulation description.
#[derive(Debug, Clone)]
pub struct Scenario {
    topology: TopologySpec,
    num_agents: usize,
    rounds: u64,
    movement: MovementModel,
    avoidance: Option<f64>,
    flee: bool,
    noise: Option<NoiseSpec>,
    estimator: EstimatorSpec,
    threads: usize,
    engine_config: EngineConfig,
    pool: Option<std::sync::Arc<WorkerPool>>,
}

/// Spec equality: the pool is execution infrastructure, not part of the
/// description (outcomes are pool-independent by contract), so it is
/// compared by identity — two specs sharing a pool, or both using the
/// global one, are equal when their parameters are.
impl PartialEq for Scenario {
    fn eq(&self, other: &Self) -> bool {
        let pools_match = match (&self.pool, &other.pool) {
            (None, None) => true,
            (Some(a), Some(b)) => std::sync::Arc::ptr_eq(a, b),
            _ => false,
        };
        pools_match
            && self.topology == other.topology
            && self.num_agents == other.num_agents
            && self.rounds == other.rounds
            && self.movement == other.movement
            && self.avoidance == other.avoidance
            && self.flee == other.flee
            && self.noise == other.noise
            && self.estimator == other.estimator
            && self.threads == other.threads
            && self.engine_config == other.engine_config
    }
}

impl Scenario {
    /// A scenario with the paper's defaults: pure random walk, perfect
    /// sensing, Algorithm 1, single worker.
    ///
    /// # Panics
    ///
    /// Panics if `num_agents == 0` or `rounds == 0`.
    pub fn new(topology: TopologySpec, num_agents: usize, rounds: u64) -> Self {
        assert!(num_agents > 0, "need at least one agent");
        assert!(rounds > 0, "need at least one round");
        Self {
            topology,
            num_agents,
            rounds,
            movement: MovementModel::Pure,
            avoidance: None,
            flee: false,
            noise: None,
            estimator: EstimatorSpec::Algorithm1,
            threads: 1,
            engine_config: EngineConfig::default(),
            pool: None,
        }
    }

    /// Replaces the movement model (ignored by `Algorithm4`, which fixes
    /// its own stationary/drift split).
    pub fn with_movement(mut self, movement: MovementModel) -> Self {
        self.movement = movement;
        self
    }

    /// Enables Section 6.1 cell avoidance with back-off probability `prob`.
    ///
    /// # Panics
    ///
    /// Panics if `prob ∉ [0, 1]`.
    pub fn with_avoidance(mut self, prob: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&prob),
            "avoidance probability in [0,1]"
        );
        self.avoidance = Some(prob);
        self
    }

    /// Enables Section 6.1 post-encounter dispersal.
    pub fn with_flee(mut self) -> Self {
        self.flee = true;
        self
    }

    /// Adds collision-detection noise.
    pub fn with_noise(mut self, noise: NoiseSpec) -> Self {
        self.noise = Some(noise);
        self
    }

    /// Replaces the estimator, validating it against the scenario at
    /// build time (so a bad spec fails here with a clear message, not
    /// rounds-deep inside [`Self::run`]).
    ///
    /// # Errors
    ///
    /// * `RelativeFrequency` with a property population exceeding the
    ///   agent count;
    /// * `Algorithm4` off the 2-d torus, or with `rounds ≥ side`
    ///   (Theorem 32's precondition: a drifting agent must visit `t`
    ///   distinct cells, or the `c mod t` correction wraps legitimate
    ///   counts).
    pub fn try_with_estimator(mut self, estimator: EstimatorSpec) -> Result<Self, String> {
        match &estimator {
            EstimatorSpec::RelativeFrequency { property_agents } => {
                if *property_agents > self.num_agents {
                    return Err(format!(
                        "relative-frequency property population exceeds agent count: \
                         {property_agents} property agents > {} agents",
                        self.num_agents
                    ));
                }
            }
            EstimatorSpec::Algorithm4 => match self.topology {
                TopologySpec::Torus2d { side } if self.rounds < side => {}
                TopologySpec::Torus2d { side } => {
                    return Err(format!(
                        "Theorem 32 requires t < sqrt(A) (= {side}); got t = {}",
                        self.rounds
                    ))
                }
                other => {
                    return Err(format!(
                        "Algorithm 4 is analysed on the 2-d torus only, got {other:?}"
                    ))
                }
            },
            EstimatorSpec::Algorithm1 | EstimatorSpec::Quorum { .. } => {}
        }
        self.estimator = estimator;
        Ok(self)
    }

    /// Replaces the estimator.
    ///
    /// # Panics
    ///
    /// Panics where [`Self::try_with_estimator`] errors.
    pub fn with_estimator(self, estimator: EstimatorSpec) -> Self {
        match self.try_with_estimator(estimator) {
            Ok(s) => s,
            Err(e) => panic!("{e}"),
        }
    }

    /// Sets the worker count for round stepping. Results never depend on
    /// it.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads > 0, "need at least one worker thread");
        self.threads = threads;
        self
    }

    /// Replaces the engine scheduling configuration. Wall clock only —
    /// outcomes are bit-identical for every valid config (see
    /// [`EngineConfig`]).
    ///
    /// # Panics
    ///
    /// Panics if the config is invalid ([`EngineConfig::validate`]).
    pub fn with_engine_config(mut self, config: EngineConfig) -> Self {
        config.validate();
        self.engine_config = config;
        self
    }

    /// Steps rounds on an explicit [`WorkerPool`] instead of the
    /// process-global one — for embedders that isolate workloads, and
    /// for tests that pin a real worker count regardless of the host's
    /// core count. Outcomes are unaffected.
    pub fn with_worker_pool(mut self, pool: std::sync::Arc<WorkerPool>) -> Self {
        self.pool = Some(pool);
        self
    }

    /// The topology spec.
    pub fn topology(&self) -> TopologySpec {
        self.topology
    }

    /// Number of agents `n + 1`.
    pub fn num_agents(&self) -> usize {
        self.num_agents
    }

    /// Number of rounds `t`.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Paper-convention true density `d = n/A` of this spec.
    pub fn true_density(&self) -> f64 {
        (self.num_agents as f64 - 1.0) / self.topology.num_nodes() as f64
    }

    /// Whether this scenario is eligible for the count-based fast path
    /// ([`Self::run_counts`]): the population must be fully described
    /// by per-node occupancy counts, which holds exactly when agents
    /// carry no state of their own — pure movement (memoryless), no
    /// avoidance or flee (those read occupancy per agent), no sensing
    /// noise (per-agent perturbations), and the Algorithm 1 estimator
    /// (whose *mean* estimate is a pure function of occupancy). The
    /// complete graph is excluded on cost grounds: its per-node
    /// multinomial has `A − 1` bins, making a counts round `O(A²)`.
    pub fn counts_compatible(&self) -> bool {
        matches!(self.movement, MovementModel::Pure)
            && self.avoidance.is_none()
            && !self.flee
            && self.noise.is_none()
            && matches!(self.estimator, EstimatorSpec::Algorithm1)
            && !matches!(self.topology, TopologySpec::Complete { .. })
    }

    /// Executes the scenario through the count-based representation
    /// ([`crate::CountsEngine`]): `O(nodes)` per round instead of
    /// `O(agents)`, the mega-scale fast path.
    ///
    /// The outcome is a pure function of `(self, seed)` and
    /// bit-identical across thread counts, but **distributionally** —
    /// not bitwise — equivalent to [`Self::run`]: the counts path draws
    /// different RNG streams, so for one seed the numbers differ while
    /// every statistic of the process agrees
    /// (`tests/counts_equivalence.rs`). Only the population-mean
    /// estimate exists in this representation; per-agent estimate
    /// vectors do not.
    ///
    /// # Panics
    ///
    /// Panics if `!self.counts_compatible()`.
    pub fn run_counts(&self, seed: u64) -> crate::CountsOutcome {
        self.run_counts_scheduled(seed, &[self.rounds])
            .pop()
            .expect("one checkpoint in, one outcome out")
    }

    /// [`Self::run_counts`] snapshotting the cumulative tallies at each
    /// of `checkpoints` (ascending) from **one** pass — the counts twin
    /// of [`Self::run_streamed`]'s accuracy-vs-rounds curves.
    ///
    /// # Panics
    ///
    /// Panics if the scenario is not [`Self::counts_compatible`], or if
    /// `checkpoints` is empty or not strictly ascending.
    pub fn run_counts_scheduled(
        &self,
        seed: u64,
        checkpoints: &[u64],
    ) -> Vec<crate::CountsOutcome> {
        assert!(
            self.counts_compatible(),
            "count-based stepping needs a pure, noise-free, interaction-free \
             Algorithm 1 scenario on a non-complete topology"
        );
        assert!(!checkpoints.is_empty(), "need at least one checkpoint");
        assert!(
            checkpoints.windows(2).all(|w| w[0] < w[1]),
            "checkpoints must be strictly ascending"
        );
        let seq = SeedSequence::new(seed);
        let topo = self.topology.build();
        let nodes = topo.num_nodes();
        let mut engine = crate::CountsEngine::new(topo, self.num_agents as u64)
            .with_seed_sequence(seq.subsequence(COUNTS_STEP_STREAM))
            .with_threads(self.threads);
        if let Some(pool) = &self.pool {
            engine = engine.with_worker_pool(std::sync::Arc::clone(pool));
        }
        engine.place_uniform(&seq.subsequence(COUNTS_PLACEMENT_STREAM));
        let mut total_encounters: u128 = 0;
        let mut outcomes = Vec::with_capacity(checkpoints.len());
        let mut next_checkpoint = checkpoints.iter().copied().peekable();
        let max_rounds = *checkpoints.last().expect("non-empty");
        for round in 0..=max_rounds {
            if round > 0 {
                engine.step_round();
                total_encounters += engine.round_encounters();
            }
            while next_checkpoint.peek() == Some(&round) {
                next_checkpoint.next();
                outcomes.push(crate::CountsOutcome::from_tallies(
                    round,
                    self.num_agents as u64,
                    nodes,
                    total_encounters,
                ));
            }
        }
        outcomes
    }

    /// Executes the scenario. The outcome is a pure function of
    /// `(self, seed)` — thread count and scheduling are invisible.
    ///
    /// A thin driver over [`Self::run_streamed`]: one tap, one
    /// checkpoint at `rounds`.
    ///
    /// # Panics
    ///
    /// For `Algorithm4`, panics unless the topology is a 2-d torus with
    /// `rounds < side` — Theorem 32's precondition, the same check
    /// [`Self::try_with_estimator`] reports as an error.
    pub fn run(&self, seed: u64) -> ScenarioOutcome {
        let tap = ObserverTap {
            estimator: self.estimator.clone(),
            schedule: Schedule::single(self.rounds),
        };
        self.run_streamed(seed, std::slice::from_ref(&tap))
            .pop()
            .expect("one tap in, one outcome list out")
            .pop()
            .expect("one checkpoint in, one outcome out")
    }

    /// Executes **one** simulation pass and snapshots every observer tap
    /// at each of its rounds-checkpoints: `result[i][j]` is tap `i`'s
    /// outcome at its `j`-th checkpoint, **bit-identical** to
    /// `self.with_estimator(taps[i].estimator)` run for exactly
    /// `taps[i].schedule.points()[j]` rounds (RNG streams are derived
    /// per round, so a shorter run draws a strict prefix of a longer
    /// one; the golden-vector and replay suites pin this contract).
    ///
    /// The scenario's own `estimator` and `rounds` are superseded by the
    /// taps; topology, movement, interaction variants, noise, and
    /// threading still come from `self`. The pass runs to the largest
    /// checkpoint of any tap.
    ///
    /// # Panics
    ///
    /// Panics if `taps` is empty, if the taps' estimators do not share
    /// one simulation family ([`SimFamily::fuse`]), or if an
    /// `Algorithm4` tap violates Theorem 32's precondition (non-torus
    /// topology, or a checkpoint at `rounds ≥ side`).
    pub fn run_streamed(&self, seed: u64, taps: &[ObserverTap]) -> Vec<Vec<ScenarioOutcome>> {
        self.drive(seed, taps, None)
    }

    /// [`Self::run_streamed`], additionally recording the raw per-round
    /// event stream — the replay harness of the observer-equivalence
    /// property suite (`tests/observer_replay.rs`) and a debugging tap.
    ///
    /// # Panics
    ///
    /// As [`Self::run_streamed`].
    pub fn run_recorded(
        &self,
        seed: u64,
        taps: &[ObserverTap],
    ) -> (
        Vec<Vec<ScenarioOutcome>>,
        crate::observer::RecordingObserver,
    ) {
        let mut recorder = crate::observer::RecordingObserver::default();
        let results = self.drive(seed, taps, Some(&mut recorder));
        (results, recorder)
    }

    fn drive(
        &self,
        seed: u64,
        taps: &[ObserverTap],
        mut recorder: Option<&mut crate::observer::RecordingObserver>,
    ) -> Vec<Vec<ScenarioOutcome>> {
        assert!(!taps.is_empty(), "need at least one observer tap");
        let family = taps[0].estimator.sim_family();
        let family = taps.iter().skip(1).fold(family, |f, tap| {
            f.fuse(tap.estimator.sim_family()).unwrap_or_else(|| {
                panic!(
                    "estimator {} cannot share a simulation pass with the preceding taps \
                     (incompatible simulation families)",
                    tap.estimator
                )
            })
        });
        let max_rounds = taps
            .iter()
            .map(|t| t.schedule.max())
            .max()
            .expect("taps are non-empty");
        if matches!(family, SimFamily::Alg4) {
            match self.topology {
                TopologySpec::Torus2d { side } => assert!(
                    max_rounds < side,
                    "Theorem 32 requires t < sqrt(A) (= {side}); got t = {max_rounds}"
                ),
                other => panic!("Algorithm 4 is analysed on the 2-d torus only, got {other:?}"),
            }
        }

        let seq = SeedSequence::new(seed);
        let topo = self.topology.build();
        let mut engine = Engine::new(topo, self.num_agents)
            .with_seed_sequence(seq.subsequence(STEP_STREAM))
            .with_threads(self.threads)
            .with_config(self.engine_config);
        if let Some(pool) = &self.pool {
            engine = engine.with_worker_pool(std::sync::Arc::clone(pool));
        }
        engine.set_movement_all(&self.movement);
        engine.set_avoidance(self.avoidance);
        engine.set_flee(self.flee);

        // Family-specific agent configuration (identical RNG consumption
        // to the per-estimator runs being fused).
        let mut walking: Option<Vec<bool>> = None;
        match family {
            SimFamily::Alg4 => {
                let mut coin = seq.rng(ROLE_STREAM);
                // Move index 2 is the paper's (0, 1) drift step on Torus2d
                // (the only topology the precondition check lets through).
                let drift = 2;
                let w: Vec<bool> = (0..self.num_agents).map(|_| coin.gen_bool(0.5)).collect();
                for (a, &is_walking) in w.iter().enumerate() {
                    engine.set_movement(
                        a,
                        if is_walking {
                            MovementModel::Drift { move_index: drift }
                        } else {
                            MovementModel::Stationary
                        },
                    );
                }
                walking = Some(w);
            }
            SimFamily::Standard {
                property_agents: Some(property_agents),
            } => {
                engine.declare_groups(1);
                for a in 0..property_agents {
                    engine.assign_group(a, 0);
                }
            }
            SimFamily::Standard {
                property_agents: None,
            } => {}
        }

        engine.place_uniform(&mut seq.rng(PLACEMENT_STREAM));

        let track_groups = matches!(
            family,
            SimFamily::Standard {
                property_agents: Some(_)
            }
        );
        let n = self.num_agents;
        let mut noise_rng = seq.rng(NOISE_STREAM);
        let mut tallies = EncounterTallies::new(n, track_groups);
        let mut observers: Vec<Box<dyn Observer>> = taps
            .iter()
            .map(|t| observer_for(&t.estimator, walking.as_deref()))
            .collect();
        let mut results: Vec<Vec<ScenarioOutcome>> = taps.iter().map(|_| Vec::new()).collect();
        let mut raw = vec![0u32; n];
        let mut seen = vec![0u32; n];
        let mut group_buf: Option<Vec<u32>> = track_groups.then(|| vec![0u32; n]);
        let true_density = engine.density();

        for round in 1..=max_rounds {
            engine.step_round_parallel();
            for (a, slot) in raw.iter_mut().enumerate() {
                *slot = engine.count(a);
            }
            // Noise draws happen once, in agent order — exactly the
            // stream a dedicated per-estimator run would consume.
            match &self.noise {
                None => seen.copy_from_slice(&raw),
                Some(noise) => {
                    for (slot, &c) in seen.iter_mut().zip(&raw) {
                        *slot = noise.observe(c, &mut noise_rng);
                    }
                }
            }
            if let Some(gb) = &mut group_buf {
                for (a, slot) in gb.iter_mut().enumerate() {
                    *slot = engine.count_in_group(a, 0);
                }
            }
            let ev = RoundEvents {
                round,
                counts: &seen,
                raw_counts: &raw,
                group_counts: group_buf.as_deref(),
            };
            tallies.record(&ev);
            if let Some(rec) = recorder.as_deref_mut() {
                rec.on_round(&ev);
            }
            for obs in &mut observers {
                obs.on_round(&ev);
            }
            for ((tap, obs), out) in taps.iter().zip(&observers).zip(&mut results) {
                if tap.schedule.contains(round) {
                    out.push(obs.snapshot(&tallies, true_density));
                }
            }
        }
        results
    }
}

/// One estimator tapping a shared simulation pass, snapshotting at each
/// checkpoint of its schedule (see [`Scenario::run_streamed`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ObserverTap {
    /// The estimator reading the event stream.
    pub estimator: EstimatorSpec,
    /// The rounds-checkpoints at which it snapshots.
    pub schedule: Schedule,
}

impl ObserverTap {
    /// The classic single-checkpoint tap: `estimator` read out once
    /// after `rounds` rounds.
    ///
    /// # Panics
    ///
    /// Panics if `rounds == 0`.
    pub fn single(estimator: EstimatorSpec, rounds: u64) -> Self {
        Self {
            estimator,
            schedule: Schedule::single(rounds),
        }
    }
}

// Distinct derivation labels so placement, stepping, role coins, and
// noise never share a stream.
const PLACEMENT_STREAM: u64 = 0x504c_4143;
const STEP_STREAM: u64 = 0x5354_4550;
const ROLE_STREAM: u64 = 0x524f_4c45;
const NOISE_STREAM: u64 = 0x4e4f_4953;
// The counts fast path gets its own labels: its streams are a different
// *shape* (per-node-block, not per-agent-block), so sharing labels with
// the agent path would invite accidental stream reuse if a scenario
// ever ran both.
const COUNTS_PLACEMENT_STREAM: u64 = 0x4350_4c41;
const COUNTS_STEP_STREAM: u64 = 0x4353_5445;

/// The result of running a [`Scenario`].
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioOutcome {
    /// Per-agent density estimates `d̃` (for `RelativeFrequency`, the
    /// overall-density component).
    pub estimates: Vec<f64>,
    /// Per-agent collision counts (post-`mod t` for `Algorithm4`).
    pub collision_counts: Vec<u64>,
    /// Per-agent property-density estimates `d̃_P`
    /// (`RelativeFrequency` only).
    pub property_estimates: Option<Vec<f64>>,
    /// Per-agent `d̃ ≥ threshold` verdicts (`Quorum` only).
    pub quorum_decisions: Option<Vec<bool>>,
    /// Per-agent walking flags (`Algorithm4` only).
    pub walking: Option<Vec<bool>>,
    /// Rounds executed.
    pub rounds: u64,
    /// Paper-convention true density `d = n/A`.
    pub true_density: f64,
}

impl ScenarioOutcome {
    /// Mean of the per-agent estimates.
    pub fn mean_estimate(&self) -> f64 {
        self.estimates.iter().sum::<f64>() / self.estimates.len() as f64
    }

    /// Per-agent relative errors `|d̃ − d| / d`.
    ///
    /// # Panics
    ///
    /// Panics if the true density is zero.
    pub fn relative_errors(&self) -> Vec<f64> {
        assert!(
            self.true_density > 0.0,
            "relative error undefined at zero density"
        );
        self.estimates
            .iter()
            .map(|e| (e - self.true_density).abs() / self.true_density)
            .collect()
    }

    /// Fraction of agents whose estimate lies in `(1±eps)·d`.
    pub fn fraction_within(&self, eps: f64) -> f64 {
        if self.true_density == 0.0 {
            return self.estimates.iter().filter(|&&e| e == 0.0).count() as f64
                / self.estimates.len() as f64;
        }
        let lo = (1.0 - eps) * self.true_density;
        let hi = (1.0 + eps) * self.true_density;
        self.estimates
            .iter()
            .filter(|&&e| e >= lo && e <= hi)
            .count() as f64
            / self.estimates.len() as f64
    }

    /// Per-agent relative-frequency estimates `f̃ = d̃_P/d̃` (`None` for
    /// agents with `d̃ = 0`).
    ///
    /// # Panics
    ///
    /// Panics if the scenario did not use `RelativeFrequency`.
    pub fn frequencies(&self) -> Vec<Option<f64>> {
        let prop = self
            .property_estimates
            .as_ref()
            .expect("scenario did not estimate frequencies");
        self.estimates
            .iter()
            .zip(prop)
            .map(|(&d, &dp)| if d > 0.0 { Some(dp / d) } else { None })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn algorithm1_is_roughly_unbiased() {
        // (topology, movement, rounds, seeds, tolerance), all at d = 0.125:
        // the paper's walk on the torus, a lazy walk, which stays
        // unbiased (Section 6.1), and i.i.d. sampling on the complete
        // graph, accurate from a single run.
        let torus = TopologySpec::Torus2d { side: 16 };
        let complete = TopologySpec::Complete { nodes: 256 };
        for (topology, movement, rounds, seeds, tol) in [
            (torus, MovementModel::Pure, 128, 0..20u64, 0.012),
            (torus, MovementModel::lazy(0.2), 256, 0..10, 0.015),
            (complete, MovementModel::Pure, 512, 3..4, 0.02),
        ] {
            let spec = Scenario::new(topology, 33, rounds).with_movement(movement.clone());
            let runs = seeds.end - seeds.start;
            let mut grand = 0.0;
            for seed in seeds {
                let out = spec.run(seed);
                // d̃ = c/t exactly, agent by agent
                for (&c, &e) in out.collision_counts.iter().zip(&out.estimates) {
                    assert_eq!(c as f64 / rounds as f64, e);
                }
                grand += out.mean_estimate();
            }
            let mean = grand / runs as f64;
            assert!(
                (mean - 0.125).abs() < tol,
                "{topology} {movement}: grand mean {mean}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least one round")]
    fn zero_rounds_rejected() {
        let _ = Scenario::new(TopologySpec::Torus2d { side: 8 }, 5, 0);
    }

    #[test]
    fn fraction_within_boundaries() {
        let out = ScenarioOutcome {
            estimates: vec![0.9, 1.0, 1.1, 2.0],
            collision_counts: vec![9, 10, 11, 20],
            property_estimates: None,
            quorum_decisions: None,
            walking: None,
            rounds: 10,
            true_density: 1.0,
        };
        assert_eq!(out.fraction_within(0.1), 0.75);
        assert_eq!(out.fraction_within(1.0), 1.0);
        assert_eq!(out.fraction_within(0.05), 0.25);
    }

    #[test]
    #[should_panic(expected = "relative error undefined")]
    fn relative_error_at_zero_density_panics() {
        let out = Scenario::new(TopologySpec::Torus2d { side: 4 }, 1, 4).run(0);
        let _ = out.relative_errors();
    }

    #[test]
    fn outcome_is_thread_count_invariant() {
        let base = Scenario::new(TopologySpec::Torus2d { side: 32 }, 500, 64);
        let one = base.clone().with_threads(1).run(9);
        let many = base.with_threads(8).run(9);
        assert_eq!(one, many);
    }

    #[test]
    fn outcome_is_engine_config_invariant() {
        use crate::config::{EngineConfig, STREAM_BLOCK};
        let base = Scenario::new(TopologySpec::Torus2d { side: 32 }, 1500, 24);
        let reference = base.clone().run(9);
        // An explicit pool pins real multi-worker dispatch even on
        // single-core CI hosts (the global pool would cap at the core
        // count and collapse every tuned run to the inline path).
        let pool = std::sync::Arc::new(crate::pool::WorkerPool::new(4));
        for blocks_per_chunk in [1usize, 2, 8] {
            for min_chunks in [1usize, 4] {
                // Exercise both mega-path extremes too: every round
                // blocked (threshold 0) and never blocked (MAX).
                for blocked in [0usize, usize::MAX] {
                    let tuned = base
                        .clone()
                        .with_threads(4)
                        .with_worker_pool(std::sync::Arc::clone(&pool))
                        .with_engine_config(EngineConfig {
                            schedule_chunk: blocks_per_chunk * STREAM_BLOCK,
                            min_chunks_per_worker: min_chunks,
                            inline_step_threshold: 0,
                            blocked_round_threshold: blocked,
                        })
                        .run(9);
                    assert_eq!(
                        reference, tuned,
                        "config {blocks_per_chunk}x{STREAM_BLOCK}/{min_chunks}/{blocked} changed results"
                    );
                }
            }
        }
    }

    #[test]
    fn algorithm4_mod_t_kills_lockstep_counts() {
        let spec = Scenario::new(TopologySpec::Torus2d { side: 64 }, 129, 48)
            .with_estimator(EstimatorSpec::Algorithm4);
        let out = spec.run(3);
        assert!(out.walking.is_some());
        for &c in &out.collision_counts {
            assert!(c < 48, "mod t must bound corrected counts");
        }
        // crude accuracy: d = 128/4096 = 0.03125; Algorithm 4 is unbiased
        let mean: f64 = (0..16).map(|s| spec.run(s).mean_estimate()).sum::<f64>() / 16.0;
        assert!((mean - 0.03125).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn quorum_decisions_follow_threshold() {
        let spec = Scenario::new(TopologySpec::Complete { nodes: 256 }, 33, 256)
            .with_estimator(EstimatorSpec::Quorum { threshold: 0.02 });
        let out = spec.run(5);
        let decisions = out.quorum_decisions.as_ref().unwrap();
        for (d, e) in decisions.iter().zip(&out.estimates) {
            assert_eq!(*d, *e >= 0.02);
        }
        // true density 0.125 is far above 0.02: nearly all agents agree
        let yes = decisions.iter().filter(|&&d| d).count();
        assert!(yes as f64 / 33.0 > 0.9, "{yes}/33 above threshold");
    }

    #[test]
    fn relative_frequency_tracks_property_share() {
        // (property agents, tolerance on the mean f̃ around f_P): none
        // carry the property, a quarter, and all of them. The two ends
        // are exact: every defined f̃ is 0, resp. 1.
        for (property_agents, tol) in [(0usize, 0.0), (16, 0.08), (64, 1e-12)] {
            let spec = Scenario::new(TopologySpec::Torus2d { side: 16 }, 64, 512)
                .with_estimator(EstimatorSpec::RelativeFrequency { property_agents });
            let out = spec.run(7);
            let freqs: Vec<f64> = out.frequencies().into_iter().flatten().collect();
            assert!(!freqs.is_empty());
            let truth = property_agents as f64 / 64.0;
            for f in &freqs {
                assert!((0.0..=1.0).contains(f), "f = {f}");
            }
            if property_agents == 0 {
                assert!(out.property_estimates.unwrap().iter().all(|&p| p == 0.0));
            }
            let mean = freqs.iter().sum::<f64>() / freqs.len() as f64;
            assert!(
                (mean - truth).abs() <= tol,
                "{property_agents} property agents: mean frequency {mean}"
            );
        }
    }

    #[test]
    fn noise_shifts_then_corrects() {
        let clean = Scenario::new(TopologySpec::Complete { nodes: 128 }, 33, 512);
        let noisy = clean.clone().with_noise(NoiseSpec::new(0.5, 0.2));
        let e_clean = clean.run(11).mean_estimate();
        let e_noisy = noisy.run(11).mean_estimate();
        // E[observed] = p*d + s
        let predicted = 0.5 * e_clean + 0.2;
        assert!(
            (e_noisy - predicted).abs() < 0.05,
            "{e_noisy} vs {predicted}"
        );
    }

    #[test]
    fn builds_every_topology() {
        for spec in [
            TopologySpec::Torus2d { side: 4 },
            TopologySpec::TorusKd { dims: 3, side: 4 },
            TopologySpec::Ring { nodes: 16 },
            TopologySpec::Hypercube { dims: 4 },
            TopologySpec::Complete { nodes: 16 },
        ] {
            let topo = spec.build();
            assert_eq!(topo.num_nodes(), spec.num_nodes());
            assert!(topo.regular_degree().is_some());
            let out = Scenario::new(spec, 8, 16).run(1);
            assert_eq!(out.estimates.len(), 8);
            // Section 2.1: a lone agent sees d = n/A = 0 and never
            // collides, so it must estimate exactly 0.
            let lone = Scenario::new(spec, 1, 16).run(1);
            assert_eq!(lone.true_density, 0.0);
            assert_eq!(lone.estimates, [0.0]);
            assert_eq!(lone.fraction_within(0.5), 1.0);
        }
    }

    #[test]
    fn builds_every_csr_topology() {
        for spec in [
            TopologySpec::CsrRegular {
                nodes: 64,
                degree: 6,
            },
            TopologySpec::CsrGnp {
                nodes: 64,
                avg_degree: 8,
            },
            TopologySpec::CsrGridHoles {
                side: 10,
                mask_seed: 3,
                hole_pm: 250,
            },
            TopologySpec::CsrCliqueRing {
                cliques: 4,
                clique_size: 5,
            },
        ] {
            let topo = spec.build();
            assert_eq!(topo.num_nodes(), spec.num_nodes());
            let out = Scenario::new(spec, 8, 16).run(1);
            assert_eq!(out.estimates.len(), 8);
        }
        // regular CSR graphs report their degree (engages the batched
        // kernel); irregular ones do not
        assert_eq!(
            TopologySpec::CsrRegular {
                nodes: 64,
                degree: 6
            }
            .build()
            .regular_degree(),
            Some(6)
        );
        assert_eq!(
            TopologySpec::CsrGridHoles {
                side: 10,
                mask_seed: 3,
                hole_pm: 250
            }
            .build()
            .regular_degree(),
            None
        );
    }

    #[test]
    fn csr_builds_are_cached_and_deterministic() {
        let spec = TopologySpec::CsrRegular {
            nodes: 48,
            degree: 4,
        };
        let (a, b) = (spec.build(), spec.build());
        match (&a, &b) {
            (BuiltTopology::Csr(x), BuiltTopology::Csr(y)) => {
                assert!(
                    std::sync::Arc::ptr_eq(x, y),
                    "same spec must share one build"
                );
            }
            other => panic!("expected CSR builds, got {other:?}"),
        }
        // deterministic across the API: identical outcomes from the
        // identical graph
        let one = Scenario::new(spec, 6, 8).run(9);
        let two = Scenario::new(spec, 6, 8).run(9);
        assert_eq!(one, two);
    }

    #[test]
    fn grid_holes_node_count_comes_from_the_build() {
        let spec = TopologySpec::CsrGridHoles {
            side: 12,
            mask_seed: 11,
            hole_pm: 300,
        };
        let n = spec.num_nodes();
        assert!(n < 144, "holes must remove cells, got {n}");
        assert!(n > 36, "the giant component should dominate, got {n}");
        assert_eq!(spec.build().num_nodes(), n);
        // a different mask seed gives a different region
        let other = TopologySpec::CsrGridHoles {
            side: 12,
            mask_seed: 12,
            hole_pm: 300,
        };
        assert!(other.num_nodes() > 0);
    }

    #[test]
    #[should_panic(expected = "Theorem 32 requires")]
    fn algorithm4_rejects_long_runs() {
        // t >= side wraps drifting walkers around the torus; the mod-t
        // correction would then corrupt legitimate counts.
        let _ = Scenario::new(TopologySpec::Torus2d { side: 8 }, 65, 64)
            .with_estimator(EstimatorSpec::Algorithm4)
            .run(1);
    }

    #[test]
    #[should_panic(expected = "2-d torus only")]
    fn algorithm4_rejects_non_torus() {
        let _ = Scenario::new(TopologySpec::Ring { nodes: 64 }, 9, 8)
            .with_estimator(EstimatorSpec::Algorithm4)
            .run(1);
    }

    #[test]
    fn topology_spec_display_round_trips() {
        for spec in [
            TopologySpec::Torus2d { side: 32 },
            TopologySpec::TorusKd { dims: 3, side: 8 },
            TopologySpec::Ring { nodes: 1024 },
            TopologySpec::Hypercube { dims: 10 },
            TopologySpec::Complete { nodes: 4096 },
            TopologySpec::CsrRegular {
                nodes: 1024,
                degree: 8,
            },
            TopologySpec::CsrGnp {
                nodes: 512,
                avg_degree: 12,
            },
            TopologySpec::CsrGridHoles {
                side: 32,
                mask_seed: 7,
                hole_pm: 200,
            },
            TopologySpec::CsrGridHoles {
                side: 16,
                mask_seed: 0,
                hole_pm: 0,
            },
            TopologySpec::CsrGridHoles {
                side: 16,
                mask_seed: 5,
                hole_pm: 125,
            },
            TopologySpec::CsrCliqueRing {
                cliques: 16,
                clique_size: 8,
            },
        ] {
            let text = spec.to_string();
            assert_eq!(text.parse::<TopologySpec>().unwrap(), spec, "{text}");
        }
        assert!("torus2d:0".parse::<TopologySpec>().is_err());
        assert!("moebius:7".parse::<TopologySpec>().is_err());
        assert!("toruskd:8".parse::<TopologySpec>().is_err());
    }

    #[test]
    fn malformed_csr_tokens_rejected_with_actionable_errors() {
        for (token, needle) in [
            ("csr", "expected `kind:params`"),
            ("csr:regular", "csr:<family>:<params>"),
            ("csr:moebius:64:4", "unknown csr family"),
            ("csr:regular:64", "csr:regular:<n>:<d>"),
            ("csr:regular:64:0", "must be positive"),
            ("csr:regular:64:64", "below node count"),
            ("csr:regular:5:3", "must be even"),
            ("csr:gnp:64", "csr:gnp:<n>:<avg-deg>"),
            ("csr:gnp:64:70", "below node count"),
            ("csr:gnp:10000:3", "connectivity threshold"),
            (
                "csr:grid-holes:32:7",
                "grid-holes:<side>:<mask-seed>:<hole-frac>",
            ),
            ("csr:grid-holes:1:7:0.2", "at least 2"),
            ("csr:grid-holes:32:x:0.2", "bad mask seed"),
            ("csr:grid-holes:32:7:0.95", "outside [0, 0.9]"),
            ("csr:grid-holes:32:7:lots", "bad hole fraction"),
            ("csr:cliquering:16", "csr:cliquering:<cliques>:<size>"),
            ("csr:cliquering:1:8", "at least 2 cliques"),
            ("csr:cliquering:4:2", "at least 3"),
            // the u32 node domain is enforced at parse time, not
            // mid-sweep in build() — and never silently truncated
            ("csr:regular:8589934593:4294967298", "u32 node domain"),
            ("csr:regular:8589934592:4", "u32 node domain"),
            ("csr:gnp:4294967296:12", "u32 node domain"),
            ("csr:grid-holes:65536:7:0.2", "max side 65535"),
            ("csr:cliquering:65536:65537", "u32 node domain"),
            (
                "csr:cliquering:18446744073709551615:18446744073709551615",
                "overflows",
            ),
        ] {
            let err = token.parse::<TopologySpec>().unwrap_err();
            assert!(
                err.contains(needle),
                "`{token}` → `{err}` should mention `{needle}`"
            );
            assert!(err.contains(token), "`{err}` should quote the token");
        }
    }

    #[test]
    fn estimator_spec_display_round_trips() {
        for spec in [
            EstimatorSpec::Algorithm1,
            EstimatorSpec::Algorithm4,
            EstimatorSpec::Quorum { threshold: 0.125 },
            EstimatorSpec::RelativeFrequency {
                property_agents: 16,
            },
        ] {
            let text = spec.to_string();
            assert_eq!(text.parse::<EstimatorSpec>().unwrap(), spec, "{text}");
        }
        assert!("quorum:-1".parse::<EstimatorSpec>().is_err());
        assert!("alg2".parse::<EstimatorSpec>().is_err());
    }

    #[test]
    fn movement_and_noise_display_round_trip() {
        use crate::movement::MovementModel;
        for m in [
            MovementModel::Pure,
            MovementModel::Lazy { stay_prob: 0.25 },
            MovementModel::Stationary,
            MovementModel::Drift { move_index: 2 },
            MovementModel::Biased {
                move_probs: vec![0.125, 0.5, 0.25],
            },
        ] {
            let text = m.to_string();
            assert_eq!(text.parse::<MovementModel>().unwrap(), m, "{text}");
        }
        assert!("lazy:1.5".parse::<MovementModel>().is_err());
        assert!("biased:0.9,0.9".parse::<MovementModel>().is_err());

        let noise = NoiseSpec::new(0.8, 0.05);
        assert_eq!(noise.to_string().parse::<NoiseSpec>().unwrap(), noise);
        assert!("sense:0:0.1".parse::<NoiseSpec>().is_err());
        assert!("sense:0.5".parse::<NoiseSpec>().is_err());
    }

    #[test]
    #[should_panic(expected = "property population")]
    fn oversized_property_group_rejected() {
        let _ = Scenario::new(TopologySpec::Ring { nodes: 8 }, 4, 8)
            .with_estimator(EstimatorSpec::RelativeFrequency { property_agents: 5 });
    }

    #[test]
    fn try_with_estimator_reports_clear_errors() {
        let base = Scenario::new(TopologySpec::Ring { nodes: 8 }, 4, 8);
        let err = base
            .clone()
            .try_with_estimator(EstimatorSpec::RelativeFrequency { property_agents: 5 })
            .unwrap_err();
        assert!(
            err.contains("5 property agents > 4 agents"),
            "error should name both counts: {err}"
        );
        // alg4 preconditions fail at build time, not rounds-deep in run()
        let err = base
            .try_with_estimator(EstimatorSpec::Algorithm4)
            .unwrap_err();
        assert!(err.contains("2-d torus only"), "{err}");
        let err = Scenario::new(TopologySpec::Torus2d { side: 8 }, 4, 8)
            .try_with_estimator(EstimatorSpec::Algorithm4)
            .unwrap_err();
        assert!(err.contains("Theorem 32"), "{err}");
        // valid configurations pass through
        assert!(Scenario::new(TopologySpec::Torus2d { side: 8 }, 4, 7)
            .try_with_estimator(EstimatorSpec::Algorithm4)
            .is_ok());
    }

    /// The fusion determinism contract at the engine level: one
    /// streamed pass with several estimator taps and a multi-checkpoint
    /// schedule equals the dedicated `(estimator, rounds)` runs bit for
    /// bit.
    #[test]
    fn streamed_pass_is_bit_identical_to_dedicated_runs() {
        use antdensity_stats::schedule::Schedule;
        let base = Scenario::new(TopologySpec::Torus2d { side: 16 }, 40, 64)
            .with_noise(NoiseSpec::new(0.8, 0.1));
        let schedule = Schedule::new(vec![8, 16, 32, 64]).unwrap();
        let taps = vec![
            ObserverTap {
                estimator: EstimatorSpec::Algorithm1,
                schedule: schedule.clone(),
            },
            ObserverTap {
                estimator: EstimatorSpec::Quorum { threshold: 0.1 },
                schedule: Schedule::new(vec![16, 64]).unwrap(),
            },
            ObserverTap {
                estimator: EstimatorSpec::RelativeFrequency {
                    property_agents: 10,
                },
                schedule: Schedule::single(32),
            },
        ];
        let fused = base.run_streamed(9, &taps);
        assert_eq!(fused.len(), 3);
        for (tap, outcomes) in taps.iter().zip(&fused) {
            assert_eq!(outcomes.len(), tap.schedule.len());
            for (&rounds, outcome) in tap.schedule.points().iter().zip(outcomes) {
                let dedicated = Scenario::new(TopologySpec::Torus2d { side: 16 }, 40, rounds)
                    .with_noise(NoiseSpec::new(0.8, 0.1))
                    .with_estimator(tap.estimator.clone())
                    .run(9);
                assert_eq!(
                    *outcome, dedicated,
                    "tap {} at t={rounds} drifted from its dedicated run",
                    tap.estimator
                );
            }
        }
    }

    #[test]
    fn streamed_alg4_schedule_matches_dedicated_runs() {
        use antdensity_stats::schedule::Schedule;
        let taps = [ObserverTap {
            estimator: EstimatorSpec::Algorithm4,
            schedule: Schedule::new(vec![8, 16, 24]).unwrap(),
        }];
        let fused =
            Scenario::new(TopologySpec::Torus2d { side: 32 }, 65, 24).run_streamed(3, &taps);
        for (&rounds, outcome) in taps[0].schedule.points().iter().zip(&fused[0]) {
            let dedicated = Scenario::new(TopologySpec::Torus2d { side: 32 }, 65, rounds)
                .with_estimator(EstimatorSpec::Algorithm4)
                .run(3);
            assert_eq!(*outcome, dedicated, "alg4 at t={rounds}");
        }
    }

    #[test]
    #[should_panic(expected = "incompatible simulation families")]
    fn alg4_cannot_fuse_with_standard_taps() {
        let taps = [
            ObserverTap::single(EstimatorSpec::Algorithm1, 8),
            ObserverTap::single(EstimatorSpec::Algorithm4, 8),
        ];
        let _ = Scenario::new(TopologySpec::Torus2d { side: 16 }, 10, 8).run_streamed(1, &taps);
    }
}
