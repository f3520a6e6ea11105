//! Random and deterministic graph generators.
//!
//! The network-size experiments (Section 5.1) need graph families spanning
//! the fast/slow mixing spectrum the paper contrasts:
//!
//! * [`random_regular`] — regular expanders w.h.p. (Section 4.4's setting),
//! * [`barabasi_albert`] — preferential attachment, the paper's suggested
//!   "popular graph model … with power-law degree distributions" (§5.1.5),
//! * [`watts_strogatz`] — small-world graphs with tunable mixing,
//! * [`erdos_renyi_connected`] — the classical `G(n, p)` baseline,
//! * [`grid_with_holes`] and [`ring_of_cliques`] — irregular regions and
//!   bottlenecks at the slow-mixing end,
//! * plus deterministic small graphs ([`path_graph`], [`cycle_graph`],
//!   [`star_graph`], [`complete_adj`], [`lollipop`]) for exact tests.
//!
//! Every generator returns a [`CsrGraph`] built by
//! [`CsrGraph::from_edges`], so neighbor lists are ascending.

use crate::csr::{BuildGraphError, CsrGraph};
use crate::topology::NodeId;
use rand::seq::SliceRandom;
use rand::Rng;

/// Errors from the random generators.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GenerateError {
    /// Parameters are structurally impossible (message explains why).
    BadParameters(
        /// Human-readable reason.
        String,
    ),
    /// The sampler failed to produce a valid (simple/connected) graph
    /// within its retry budget.
    RetriesExhausted {
        /// Number of attempts made.
        attempts: u32,
    },
    /// The sampled edge set failed graph validation.
    Build(
        /// Underlying build error.
        BuildGraphError,
    ),
}

impl std::fmt::Display for GenerateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::BadParameters(msg) => write!(f, "bad generator parameters: {msg}"),
            Self::RetriesExhausted { attempts } => {
                write!(f, "generator failed after {attempts} attempts")
            }
            Self::Build(e) => write!(f, "generated edge set invalid: {e}"),
        }
    }
}

impl std::error::Error for GenerateError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Build(e) => Some(e),
            _ => None,
        }
    }
}

impl From<BuildGraphError> for GenerateError {
    fn from(e: BuildGraphError) -> Self {
        Self::Build(e)
    }
}

/// Erdős–Rényi `G(n, p)` via geometric edge skipping (O(n + |E|)).
///
/// The sample may be disconnected or contain isolated nodes, in which case
/// graph validation fails; [`erdos_renyi_connected`] retries until
/// connected.
///
/// # Errors
///
/// Returns [`GenerateError::BadParameters`] if `n < 2` or `p ∉ (0, 1]`,
/// or [`GenerateError::Build`] if the sample has an isolated node.
fn erdos_renyi<R: Rng + ?Sized>(n: u64, p: f64, rng: &mut R) -> Result<CsrGraph, GenerateError> {
    if n < 2 {
        return Err(GenerateError::BadParameters(
            "G(n,p) needs n >= 2".to_string(),
        ));
    }
    if !(p > 0.0 && p <= 1.0) {
        return Err(GenerateError::BadParameters(format!(
            "edge probability {p} outside (0,1]"
        )));
    }
    let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
    if p >= 1.0 {
        for u in 0..n {
            for v in (u + 1)..n {
                edges.push((u, v));
            }
        }
        return Ok(CsrGraph::from_edges(n, &edges)?);
    }
    // Iterate over pair index space with geometric skips.
    let total_pairs = n * (n - 1) / 2;
    let log_q = (1.0 - p).ln();
    let mut idx: u64 = 0;
    loop {
        // skip ~ Geometric(p): floor(ln(U)/ln(1-p))
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let skip = (u.ln() / log_q).floor() as u64;
        idx = match idx.checked_add(skip) {
            Some(i) => i,
            None => break,
        };
        if idx >= total_pairs {
            break;
        }
        edges.push(pair_from_index(idx, n));
        idx += 1;
        if idx >= total_pairs {
            break;
        }
    }
    Ok(CsrGraph::from_edges(n, &edges)?)
}

/// Maps a linear index over `{(u,v): u<v}` to the pair, ordering pairs by
/// `u` then `v`.
fn pair_from_index(idx: u64, n: u64) -> (NodeId, NodeId) {
    // Row u starts at offset u*n - u*(u+1)/2 - u ... derive by scanning:
    // row u has (n-1-u) pairs.
    let mut u = 0u64;
    let mut remaining = idx;
    loop {
        let row = n - 1 - u;
        if remaining < row {
            return (u, u + 1 + remaining);
        }
        remaining -= row;
        u += 1;
    }
}

/// Erdős–Rényi retried until the sample is connected.
///
/// # Errors
///
/// [`GenerateError::BadParameters`] if `n < 2` or `p ∉ (0, 1]`;
/// [`GenerateError::RetriesExhausted`] after `max_attempts` disconnected
/// samples (choose `p ≳ ln n / n` to make success likely).
pub fn erdos_renyi_connected<R: Rng + ?Sized>(
    n: u64,
    p: f64,
    max_attempts: u32,
    rng: &mut R,
) -> Result<CsrGraph, GenerateError> {
    for _ in 0..max_attempts {
        match erdos_renyi(n, p, rng) {
            Ok(g) if g.is_connected() => return Ok(g),
            Ok(_) | Err(GenerateError::Build(_)) => continue,
            Err(e) => return Err(e),
        }
    }
    Err(GenerateError::RetriesExhausted {
        attempts: max_attempts,
    })
}

/// Random `d`-regular simple graph via the Steger–Wormald incremental
/// pairing model: repeatedly match two random remaining stubs, rejecting
/// pairs that would create a self-loop or parallel edge, restarting the
/// attempt if the construction stalls.
///
/// This succeeds quickly for any `d = O(n^{1/3})` (whole-pairing rejection
/// would need `e^{Θ(d²)}` attempts). Such graphs are expanders with high
/// probability — the paper's Section 4.4 setting.
///
/// # Errors
///
/// [`GenerateError::BadParameters`] if `n·d` is odd, `d == 0`, or
/// `d ≥ n`; [`GenerateError::RetriesExhausted`] if no simple connected
/// pairing was found in `max_attempts` restarts.
pub fn random_regular<R: Rng + ?Sized>(
    n: u64,
    d: usize,
    max_attempts: u32,
    rng: &mut R,
) -> Result<CsrGraph, GenerateError> {
    if d == 0 {
        return Err(GenerateError::BadParameters(
            "degree must be positive".to_string(),
        ));
    }
    if d as u64 >= n {
        return Err(GenerateError::BadParameters(format!(
            "degree {d} must be below node count {n}"
        )));
    }
    if !(n * d as u64).is_multiple_of(2) {
        return Err(GenerateError::BadParameters(format!(
            "n*d = {} must be even",
            n * d as u64
        )));
    }
    let stubs_total = (n as usize) * d;
    use std::collections::HashSet;
    'attempt: for _ in 0..max_attempts {
        let mut stubs: Vec<NodeId> = Vec::with_capacity(stubs_total);
        for v in 0..n {
            for _ in 0..d {
                stubs.push(v);
            }
        }
        stubs.shuffle(rng);
        let mut edge_set: HashSet<(NodeId, NodeId)> = HashSet::with_capacity(stubs_total / 2);
        let mut stall = 0usize;
        while !stubs.is_empty() {
            let i = rng.gen_range(0..stubs.len());
            let j = rng.gen_range(0..stubs.len());
            if i == j {
                continue;
            }
            let (u, v) = (stubs[i], stubs[j]);
            let key = (u.min(v), u.max(v));
            if u == v || edge_set.contains(&key) {
                stall += 1;
                // When few stubs remain every pair may be invalid; restart.
                if stall > 100 + stubs.len() * stubs.len() {
                    continue 'attempt;
                }
                continue;
            }
            stall = 0;
            edge_set.insert(key);
            let (hi, lo) = if i > j { (i, j) } else { (j, i) };
            stubs.swap_remove(hi);
            stubs.swap_remove(lo);
        }
        let mut edges: Vec<(NodeId, NodeId)> = edge_set.into_iter().collect();
        edges.sort_unstable();
        let g = CsrGraph::from_edges(n, &edges)?;
        if g.is_connected() {
            return Ok(g);
        }
    }
    Err(GenerateError::RetriesExhausted {
        attempts: max_attempts,
    })
}

/// Barabási–Albert preferential attachment: starts from a complete graph
/// on `m+1` seed nodes; each subsequent node attaches to `m` distinct
/// existing nodes chosen with probability proportional to degree.
///
/// Produces the power-law degree distributions Section 5.1.5 asks about.
///
/// # Errors
///
/// [`GenerateError::BadParameters`] if `m == 0` or `n ≤ m`.
pub fn barabasi_albert<R: Rng + ?Sized>(
    n: u64,
    m: usize,
    rng: &mut R,
) -> Result<CsrGraph, GenerateError> {
    if m == 0 {
        return Err(GenerateError::BadParameters(
            "attachment count m must be positive".to_string(),
        ));
    }
    if n <= m as u64 {
        return Err(GenerateError::BadParameters(format!(
            "need n > m (= {m}), got n = {n}"
        )));
    }
    let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
    // repeated-node list: node v appears deg(v) times — sampling an
    // element uniformly is degree-proportional sampling.
    let mut chances: Vec<NodeId> = Vec::new();
    let seed = (m + 1) as u64;
    for u in 0..seed {
        for v in (u + 1)..seed {
            edges.push((u, v));
            chances.push(u);
            chances.push(v);
        }
    }
    let mut picked: Vec<NodeId> = Vec::with_capacity(m);
    for new in seed..n {
        picked.clear();
        while picked.len() < m {
            let &cand = chances.choose(rng).expect("chance list non-empty");
            if !picked.contains(&cand) {
                picked.push(cand);
            }
        }
        for &p in &picked {
            edges.push((p, new));
            chances.push(p);
            chances.push(new);
        }
    }
    Ok(CsrGraph::from_edges(n, &edges)?)
}

/// Watts–Strogatz small world: ring lattice where each node connects to
/// its `k/2` nearest neighbors per side, then each edge is rewired with
/// probability `beta` (avoiding self-loops and duplicates).
///
/// `beta = 0` is the slow-mixing circulant lattice; `beta → 1` approaches
/// a random graph — a convenient dial for the paper's fast-vs-slow mixing
/// comparisons.
///
/// # Errors
///
/// [`GenerateError::BadParameters`] if `k` is odd, zero, or `≥ n`, or
/// `beta ∉ [0, 1]`.
pub fn watts_strogatz<R: Rng + ?Sized>(
    n: u64,
    k: usize,
    beta: f64,
    rng: &mut R,
) -> Result<CsrGraph, GenerateError> {
    if k == 0 || !k.is_multiple_of(2) {
        return Err(GenerateError::BadParameters(format!(
            "lattice degree k = {k} must be positive and even"
        )));
    }
    if k as u64 >= n {
        return Err(GenerateError::BadParameters(format!(
            "lattice degree {k} must be below node count {n}"
        )));
    }
    if !(0.0..=1.0).contains(&beta) {
        return Err(GenerateError::BadParameters(format!(
            "rewiring probability {beta} outside [0,1]"
        )));
    }
    use std::collections::HashSet;
    let norm = |u: NodeId, v: NodeId| (u.min(v), u.max(v));
    let mut edge_set: HashSet<(NodeId, NodeId)> = HashSet::new();
    // Each lattice edge has an owner: the node it emanates from. The
    // classic Watts–Strogatz rewiring keeps the owner endpoint and only
    // redirects the far endpoint, so every node retains its k/2 owned
    // edges and can never be isolated.
    let mut owned: Vec<(NodeId, NodeId)> = Vec::with_capacity((n as usize) * k / 2);
    for v in 0..n {
        for j in 1..=(k / 2) as u64 {
            let u = (v + j) % n;
            owned.push((v, u));
            edge_set.insert(norm(v, u));
        }
    }
    for (owner, other) in owned {
        if rng.gen_bool(beta) {
            edge_set.remove(&norm(owner, other));
            let mut attempts = 0;
            loop {
                let w = rng.gen_range(0..n);
                if w != owner && !edge_set.contains(&norm(owner, w)) {
                    edge_set.insert(norm(owner, w));
                    break;
                }
                attempts += 1;
                if attempts > 100 {
                    // dense corner case: give the edge back
                    edge_set.insert(norm(owner, other));
                    break;
                }
            }
        }
    }
    let mut edges: Vec<(NodeId, NodeId)> = edge_set.into_iter().collect();
    edges.sort_unstable();
    Ok(CsrGraph::from_edges(n, &edges)?)
}

/// Barry-style irregular region: a non-wrapping `side × side` grid
/// lattice (4-neighborhood) with each cell independently removed with
/// probability `hole_frac`, reduced to its **largest connected
/// component** and renumbered densely in row-major order of the
/// surviving cells. The result has jagged boundaries, interior holes,
/// and degrees between 1 and 4 — exactly the "regions with holes"
/// setting of the lattice-based density-estimation literature, and a
/// dial (`hole_frac`) for how badly mixing degrades.
///
/// Deterministic given the RNG state; the caller owns the seed.
///
/// # Errors
///
/// [`GenerateError::BadParameters`] if `side < 2`, if
/// `hole_frac ∉ [0, 0.9]`, or if the drawn mask left no connected
/// component of at least two cells (only plausible at extreme hole
/// fractions on tiny grids; no retry can fix it for a fixed mask
/// stream, so it is reported as a parameter problem, not a sampling
/// one).
pub fn grid_with_holes<R: Rng + ?Sized>(
    side: u64,
    hole_frac: f64,
    rng: &mut R,
) -> Result<CsrGraph, GenerateError> {
    if side < 2 {
        return Err(GenerateError::BadParameters(format!(
            "grid side {side} must be at least 2"
        )));
    }
    if !(0.0..=0.9).contains(&hole_frac) {
        return Err(GenerateError::BadParameters(format!(
            "hole fraction {hole_frac} outside [0, 0.9]"
        )));
    }
    let cells = (side * side) as usize;
    // One mask draw per cell in row-major order: the whole geometry is a
    // pure function of (side, hole_frac, rng stream).
    let open: Vec<bool> = (0..cells).map(|_| !rng.gen_bool(hole_frac)).collect();
    // Largest connected component over open cells (4-neighborhood).
    let mut component = vec![u32::MAX; cells];
    let mut best: (usize, u32) = (0, u32::MAX); // (size, id)
    let mut next_id = 0u32;
    let mut queue = std::collections::VecDeque::new();
    for start in 0..cells {
        if !open[start] || component[start] != u32::MAX {
            continue;
        }
        let id = next_id;
        next_id += 1;
        component[start] = id;
        queue.push_back(start);
        let mut size = 0usize;
        while let Some(c) = queue.pop_front() {
            size += 1;
            let (x, y) = (c as u64 % side, c as u64 / side);
            for (nx, ny) in grid_neighbors(x, y, side) {
                let nc = (ny * side + nx) as usize;
                if open[nc] && component[nc] == u32::MAX {
                    component[nc] = id;
                    queue.push_back(nc);
                }
            }
        }
        if size > best.0 {
            best = (size, id);
        }
    }
    if best.0 < 2 {
        return Err(GenerateError::BadParameters(format!(
            "hole mask left no connected component of at least two cells \
(side {side}, hole fraction {hole_frac})"
        )));
    }
    // Dense renumbering in row-major order of surviving cells.
    let mut dense = vec![u64::MAX; cells];
    let mut n = 0u64;
    for (c, slot) in dense.iter_mut().enumerate() {
        if component[c] == best.1 {
            *slot = n;
            n += 1;
        }
    }
    let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
    for c in 0..cells {
        if dense[c] == u64::MAX {
            continue;
        }
        let (x, y) = (c as u64 % side, c as u64 / side);
        // right and down only: each undirected edge emitted once
        for (nx, ny) in [(x + 1, y), (x, y + 1)] {
            if nx < side && ny < side {
                let nc = (ny * side + nx) as usize;
                if dense[nc] != u64::MAX {
                    edges.push((dense[c], dense[nc]));
                }
            }
        }
    }
    Ok(CsrGraph::from_edges(n, &edges)?)
}

/// The in-bounds 4-neighbors of `(x, y)` on a non-wrapping grid.
fn grid_neighbors(x: u64, y: u64, side: u64) -> impl Iterator<Item = (u64, u64)> {
    [
        (x.wrapping_sub(1), y),
        (x + 1, y),
        (x, y.wrapping_sub(1)),
        (x, y + 1),
    ]
    .into_iter()
    .filter(move |&(a, b)| a < side && b < side)
}

/// Ring of cliques: `cliques` copies of `K_{clique_size}` arranged in a
/// cycle, consecutive cliques joined by a single bridge edge (clique
/// `i`'s node 0 to clique `i+1`'s node 1). The classic
/// bottleneck/slow-mixing family — dense local neighborhoods, global
/// conductance `Θ(1/(cliques · clique_size²))` — complementing the
/// expander end of the spectrum. Deterministic.
///
/// # Errors
///
/// [`GenerateError::BadParameters`] if `cliques < 2` or
/// `clique_size < 3` (bridge endpoints must be distinct and each clique
/// must survive losing a bridge node).
pub fn ring_of_cliques(cliques: u64, clique_size: u64) -> Result<CsrGraph, GenerateError> {
    if cliques < 2 {
        return Err(GenerateError::BadParameters(format!(
            "need at least 2 cliques, got {cliques}"
        )));
    }
    if clique_size < 3 {
        return Err(GenerateError::BadParameters(format!(
            "clique size {clique_size} must be at least 3"
        )));
    }
    let n = cliques
        .checked_mul(clique_size)
        .ok_or_else(|| GenerateError::BadParameters("node count overflows u64".to_string()))?;
    let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
    for c in 0..cliques {
        let base = c * clique_size;
        for u in 0..clique_size {
            for v in (u + 1)..clique_size {
                edges.push((base + u, base + v));
            }
        }
        let next = ((c + 1) % cliques) * clique_size;
        edges.push((base, next + 1));
    }
    Ok(CsrGraph::from_edges(n, &edges)?)
}

/// Path graph `0 − 1 − … − (n−1)`.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn path_graph(n: u64) -> CsrGraph {
    assert!(n >= 2, "path needs at least two nodes");
    let edges: Vec<_> = (0..n - 1).map(|v| (v, v + 1)).collect();
    CsrGraph::from_edges(n, &edges).expect("path edges are valid")
}

/// Cycle graph on `n` nodes.
///
/// # Panics
///
/// Panics if `n < 3`.
pub fn cycle_graph(n: u64) -> CsrGraph {
    assert!(n >= 3, "cycle needs at least three nodes");
    let mut edges: Vec<_> = (0..n - 1).map(|v| (v, v + 1)).collect();
    edges.push((n - 1, 0));
    CsrGraph::from_edges(n, &edges).expect("cycle edges are valid")
}

/// Star graph: node 0 joined to all others.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn star_graph(n: u64) -> CsrGraph {
    assert!(n >= 2, "star needs at least two nodes");
    let edges: Vec<_> = (1..n).map(|v| (0, v)).collect();
    CsrGraph::from_edges(n, &edges).expect("star edges are valid")
}

/// Complete simple graph as a [`CsrGraph`] (no self-loops; contrast with
/// [`crate::CompleteGraph`], which models uniform re-sampling).
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn complete_adj(n: u64) -> CsrGraph {
    assert!(n >= 2, "complete graph needs at least two nodes");
    let mut edges = Vec::new();
    for u in 0..n {
        for v in (u + 1)..n {
            edges.push((u, v));
        }
    }
    CsrGraph::from_edges(n, &edges).expect("complete edges are valid")
}

/// Lollipop graph: a clique on `clique` nodes with a path of `tail` extra
/// nodes hanging off node 0 — the classic slow-mixing example, useful for
/// stress-testing burn-in.
///
/// # Panics
///
/// Panics if `clique < 3` or `tail == 0`.
pub fn lollipop(clique: u64, tail: u64) -> CsrGraph {
    assert!(clique >= 3, "lollipop clique needs at least three nodes");
    assert!(tail >= 1, "lollipop needs a tail");
    let n = clique + tail;
    let mut edges = Vec::new();
    for u in 0..clique {
        for v in (u + 1)..clique {
            edges.push((u, v));
        }
    }
    edges.push((0, clique));
    for i in 0..tail - 1 {
        edges.push((clique + i, clique + i + 1));
    }
    CsrGraph::from_edges(n, &edges).expect("lollipop edges are valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn erdos_renyi_edge_count_near_expectation() {
        let mut rng = SmallRng::seed_from_u64(1);
        let n = 500u64;
        let p = 0.05;
        let g = erdos_renyi(n, p, &mut rng).unwrap();
        let expected = (n * (n - 1) / 2) as f64 * p;
        let got = g.num_edges() as f64;
        // 5 sigma band for Binomial(124750, 0.05)
        let sigma = (expected * (1.0 - p)).sqrt();
        assert!(
            (got - expected).abs() < 5.0 * sigma,
            "edges {got} vs expected {expected}"
        );
    }

    #[test]
    fn erdos_renyi_p_one_is_complete() {
        let mut rng = SmallRng::seed_from_u64(2);
        let g = erdos_renyi(6, 1.0, &mut rng).unwrap();
        assert_eq!(g.num_edges(), 15);
    }

    #[test]
    fn erdos_renyi_connected_retries() {
        let mut rng = SmallRng::seed_from_u64(3);
        // p well above the ln n / n threshold
        let g = erdos_renyi_connected(200, 0.05, 50, &mut rng).unwrap();
        assert!(g.is_connected());
    }

    #[test]
    fn pair_from_index_enumerates_all_pairs() {
        let n = 7u64;
        let total = n * (n - 1) / 2;
        let mut seen = std::collections::HashSet::new();
        for idx in 0..total {
            let (u, v) = pair_from_index(idx, n);
            assert!(u < v && v < n);
            assert!(seen.insert((u, v)));
        }
        assert_eq!(seen.len(), total as usize);
    }

    #[test]
    fn random_regular_is_regular_and_connected() {
        let mut rng = SmallRng::seed_from_u64(4);
        let g = random_regular(100, 4, 500, &mut rng).unwrap();
        assert_eq!(g.regular_degree(), Some(4));
        assert!(g.is_connected());
        assert_eq!(g.num_edges(), 200);
    }

    #[test]
    fn random_regular_rejects_odd_total() {
        let mut rng = SmallRng::seed_from_u64(5);
        assert!(matches!(
            random_regular(5, 3, 10, &mut rng),
            Err(GenerateError::BadParameters(_))
        ));
    }

    #[test]
    fn random_regular_degree_too_large() {
        let mut rng = SmallRng::seed_from_u64(5);
        assert!(matches!(
            random_regular(4, 4, 10, &mut rng),
            Err(GenerateError::BadParameters(_))
        ));
    }

    #[test]
    fn barabasi_albert_structure() {
        let mut rng = SmallRng::seed_from_u64(6);
        let n = 300u64;
        let m = 3usize;
        let g = barabasi_albert(n, m, &mut rng).unwrap();
        assert_eq!(g.num_nodes(), n);
        // |E| = C(m+1, 2) + (n - m - 1) * m
        let expected_edges = (m * (m + 1) / 2) as u64 + (n - m as u64 - 1) * m as u64;
        assert_eq!(g.num_edges(), expected_edges);
        assert!(g.is_connected());
        assert!(g.min_degree() >= m);
        // preferential attachment should create a hub noticeably above m
        assert!(g.max_degree() > 3 * m);
    }

    #[test]
    fn watts_strogatz_zero_beta_is_lattice() {
        let mut rng = SmallRng::seed_from_u64(7);
        let g = watts_strogatz(20, 4, 0.0, &mut rng).unwrap();
        assert_eq!(g.regular_degree(), Some(4));
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(0, 2));
        assert!(g.has_edge(0, 19));
        assert!(g.has_edge(0, 18));
    }

    #[test]
    fn watts_strogatz_keeps_edge_count() {
        let mut rng = SmallRng::seed_from_u64(8);
        let n = 100u64;
        let k = 6;
        let g = watts_strogatz(n, k, 0.3, &mut rng).unwrap();
        assert_eq!(g.num_edges(), n * (k as u64) / 2);
    }

    #[test]
    fn watts_strogatz_rejects_odd_k() {
        let mut rng = SmallRng::seed_from_u64(9);
        assert!(matches!(
            watts_strogatz(10, 3, 0.5, &mut rng),
            Err(GenerateError::BadParameters(_))
        ));
    }

    #[test]
    fn deterministic_small_graphs() {
        let p = path_graph(5);
        assert_eq!(p.num_edges(), 4);
        assert_eq!(p.degree(0), 1);
        assert_eq!(p.degree(2), 2);

        let c = cycle_graph(5);
        assert_eq!(c.regular_degree(), Some(2));
        assert!(!c.is_bipartite());

        let s = star_graph(6);
        assert_eq!(s.degree(0), 5);
        assert_eq!(s.degree(3), 1);
        assert!(s.is_bipartite());

        let k = complete_adj(5);
        assert_eq!(k.num_edges(), 10);
        assert_eq!(k.regular_degree(), Some(4));

        let l = lollipop(4, 3);
        assert_eq!(l.num_nodes(), 7);
        assert_eq!(l.num_edges(), 6 + 3);
        assert!(l.is_connected());
        assert_eq!(l.degree(6), 1); // tail end
    }

    #[test]
    fn grid_with_holes_zero_fraction_is_full_grid() {
        let mut rng = SmallRng::seed_from_u64(10);
        let g = grid_with_holes(5, 0.0, &mut rng).unwrap();
        assert_eq!(g.num_nodes(), 25);
        // interior degree 4, corner degree 2
        assert_eq!(g.degree(12), 4);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.num_edges(), 2 * 5 * 4); // 2 * side * (side-1)
        assert!(g.is_connected());
    }

    #[test]
    fn grid_with_holes_carves_connected_irregular_region() {
        let mut rng = SmallRng::seed_from_u64(11);
        let g = grid_with_holes(16, 0.3, &mut rng).unwrap();
        assert!(g.num_nodes() < 256, "holes must remove cells");
        assert!(g.num_nodes() > 64, "the giant component should dominate");
        assert!(g.is_connected(), "must reduce to one component");
        assert!(g.max_degree() <= 4);
        assert_eq!(g.regular_degree(), None, "holes make the region irregular");
    }

    #[test]
    fn grid_with_holes_is_seed_deterministic() {
        let a = grid_with_holes(12, 0.25, &mut SmallRng::seed_from_u64(5)).unwrap();
        let b = grid_with_holes(12, 0.25, &mut SmallRng::seed_from_u64(5)).unwrap();
        assert_eq!(a, b);
        let c = grid_with_holes(12, 0.25, &mut SmallRng::seed_from_u64(6)).unwrap();
        assert_ne!(a, c, "different mask seeds give different regions");
    }

    #[test]
    fn grid_with_holes_rejects_bad_parameters() {
        let mut rng = SmallRng::seed_from_u64(1);
        assert!(matches!(
            grid_with_holes(1, 0.1, &mut rng),
            Err(GenerateError::BadParameters(_))
        ));
        assert!(matches!(
            grid_with_holes(8, 0.95, &mut rng),
            Err(GenerateError::BadParameters(_))
        ));
    }

    #[test]
    fn ring_of_cliques_structure() {
        let g = ring_of_cliques(4, 5).unwrap();
        assert_eq!(g.num_nodes(), 20);
        // 4 * C(5,2) clique edges + 4 bridges
        assert_eq!(g.num_edges(), 4 * 10 + 4);
        assert!(g.is_connected());
        assert!(!g.is_bipartite(), "cliques contain triangles");
        // bridge endpoints have degree clique_size, others clique_size-1
        assert_eq!(g.degree(0), 5);
        assert_eq!(g.degree(2), 4);
        assert_eq!(g.regular_degree(), None);
        // two cliques still build (distinct bridge edges)
        assert!(ring_of_cliques(2, 3).unwrap().is_connected());
    }

    #[test]
    fn ring_of_cliques_rejects_degenerate() {
        assert!(matches!(
            ring_of_cliques(1, 5),
            Err(GenerateError::BadParameters(_))
        ));
        assert!(matches!(
            ring_of_cliques(3, 2),
            Err(GenerateError::BadParameters(_))
        ));
    }

    #[test]
    fn generators_are_seed_deterministic() {
        let g1 = barabasi_albert(50, 2, &mut SmallRng::seed_from_u64(42)).unwrap();
        let g2 = barabasi_albert(50, 2, &mut SmallRng::seed_from_u64(42)).unwrap();
        assert_eq!(g1, g2);
        let g3 = random_regular(50, 4, 100, &mut SmallRng::seed_from_u64(9)).unwrap();
        let g4 = random_regular(50, 4, 100, &mut SmallRng::seed_from_u64(9)).unwrap();
        assert_eq!(g3, g4);
    }

    #[test]
    fn error_display_formats() {
        let e = GenerateError::RetriesExhausted { attempts: 3 };
        assert!(e.to_string().contains("3 attempts"));
        let e = GenerateError::BadParameters("because".into());
        assert!(e.to_string().contains("because"));
    }
}
