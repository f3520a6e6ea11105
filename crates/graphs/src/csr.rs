//! [`CsrGraph`]: the one general-graph type, in compressed-sparse-row
//! form.
//!
//! The network-size application (Section 5.1) and the irregular sweep
//! topologies run the paper's walk on graphs with no closed form. Every
//! such graph is a `CsrGraph`, whichever place it comes from:
//!
//! * [`CsrGraph::from_edges`] — the validating simple-graph builder
//!   behind every generator in [`crate::generators`]. It rejects
//!   self-loops, duplicate edges and isolated nodes, and lists each
//!   node's neighbors in ascending order;
//! * [`CsrGraph::from_topology`] — a rebuild of a structured
//!   [`Topology`] that keeps each node's move list **in order and with
//!   multiplicity**, so a walk on the rebuild of a torus, ring or
//!   hypercube draws the identical RNG stream as the native
//!   implementation (the engine's `csr_equivalence` suite pins this).
//!
//! The layout serves the walk kernels:
//!
//! * `u32` offsets and targets, sized to the dense engine's
//!   packed-position domain (`antdensity-engine` caps node ids at `u32`);
//! * per-node precomputed Lemire rejection zones, so the uniform
//!   neighbor draw on *irregular* degrees needs no hardware division on
//!   the hot path (the same multiply-shift idea as [`crate::FastDiv`],
//!   applied to bounded sampling) while consuming **bit-for-bit** the
//!   stream `rng.gen_range(0..degree)` would;
//! * a batched [`Topology::apply_moves`] fast path — one offset load,
//!   one target gather per agent;
//! * the regular degree cached at construction, so the engine's
//!   batched-kernel eligibility check is O(1).
//!
//! It also answers the analysis queries the paper's bounds need: `deḡ`,
//! `deg_min`, `Σ deg²` (the KLSC14 comparison), connectivity,
//! bipartiteness, and O(1) stationary sampling.

use crate::fastdiv::lemire_zone;
use crate::topology::{MoveScratch, NodeId, Topology};
use rand::RngCore;

/// Errors building a [`CsrGraph`] from an edge list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildGraphError {
    /// The requested node count was zero.
    NoNodes,
    /// An edge endpoint referenced a node `>= n`.
    EndpointOutOfRange {
        /// The offending endpoint.
        node: NodeId,
        /// The node count.
        n: u64,
    },
    /// An edge connected a node to itself.
    SelfLoop(
        /// The node with the loop.
        NodeId,
    ),
    /// The same undirected edge appeared more than once.
    DuplicateEdge(
        /// One endpoint.
        NodeId,
        /// The other endpoint.
        NodeId,
    ),
    /// A node would have degree zero (random walks get stuck).
    IsolatedNode(
        /// The isolated node.
        NodeId,
    ),
    /// The `2·|E|` moves do not fit the `u32`-indexed CSR arrays.
    TooManyEdges {
        /// The edge count.
        edges: u64,
    },
}

impl std::fmt::Display for BuildGraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NoNodes => write!(f, "graph must have at least one node"),
            Self::EndpointOutOfRange { node, n } => {
                write!(f, "edge endpoint {node} out of range for {n} nodes")
            }
            Self::SelfLoop(v) => write!(f, "self-loop at node {v}"),
            Self::DuplicateEdge(u, v) => write!(f, "duplicate edge ({u}, {v})"),
            Self::IsolatedNode(v) => write!(f, "node {v} has no edges"),
            Self::TooManyEdges { edges } => {
                write!(f, "{edges} edges exceed the u32 CSR move domain")
            }
        }
    }
}

impl std::error::Error for BuildGraphError {}

/// Per-tile CSR data footprint the blocked gather aims for: half of a
/// conservative 512 KiB L2, leaving the other half for the streamed
/// position/move/key traffic.
const TILE_FOOTPRINT_BYTES: usize = 256 * 1024;

/// Below this many agents a blocked apply cannot pay for its extra
/// passes; fall through to the plain gather.
const BLOCKED_MIN_AGENTS: usize = 1 << 15;

/// A general undirected graph in compact CSR form, tuned for the walk
/// kernels. Neighbor lists are ascending sets when built by
/// [`CsrGraph::from_edges`] and move lists in topology order when built
/// by [`CsrGraph::from_topology`], where duplicate entries model
/// duplicate moves, exactly as [`crate::Torus2d`] on side 2.
///
/// # Example
///
/// ```
/// use antdensity_graphs::{CsrGraph, Topology, Torus2d};
///
/// // A CSR rebuild of a structured topology is move-for-move identical.
/// let torus = Torus2d::new(8);
/// let csr = CsrGraph::from_topology(&torus);
/// assert_eq!(csr.num_nodes(), 64);
/// assert_eq!(csr.regular_degree(), Some(4));
/// for v in 0..64 {
///     for i in 0..4 {
///         assert_eq!(csr.neighbor(v, i), torus.neighbor(v, i));
///     }
/// }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrGraph {
    /// `offsets[v]..offsets[v+1]` indexes `targets` for node `v`.
    offsets: Vec<u32>,
    /// Concatenated neighbor (move) lists.
    targets: Vec<u32>,
    /// Per-node Lemire rejection zone for the non-power-of-two degree
    /// draw (unused — zero — at power-of-two-degree nodes).
    zones: Vec<u64>,
    /// `Some(d)` iff every node has degree `d`, cached at construction.
    regular: Option<usize>,
}

impl CsrGraph {
    /// Builds from per-node move lists already in CSR order.
    ///
    /// # Panics
    ///
    /// Panics if the arrays are inconsistent, any node has no moves, a
    /// target is out of range, or the graph exceeds the `u32` domain.
    fn from_parts(offsets: Vec<u32>, targets: Vec<u32>) -> Self {
        assert!(offsets.len() >= 2, "graph must have at least one node");
        assert_eq!(
            *offsets.last().expect("non-empty") as usize,
            targets.len(),
            "final offset must cover the target array"
        );
        let n = offsets.len() - 1;
        let mut zones = Vec::with_capacity(n);
        let mut regular: Option<usize> = None;
        for v in 0..n {
            let d = (offsets[v + 1] - offsets[v]) as usize;
            assert!(d > 0, "node {v} has no moves (walks would get stuck)");
            regular = match (v, regular) {
                (0, _) => Some(d),
                (_, Some(r)) if r == d => Some(r),
                _ => None,
            };
            zones.push(if (d as u64).is_power_of_two() {
                0
            } else {
                lemire_zone(d as u64)
            });
        }
        for &t in &targets {
            assert!((t as usize) < n, "target {t} out of range for {n} nodes");
        }
        Self {
            offsets,
            targets,
            zones,
            regular,
        }
    }

    /// Rebuilds any [`Topology`] as an explicit CSR graph, preserving
    /// each node's move list **in order and with multiplicity** — so
    /// `csr.neighbor(v, i) == topo.neighbor(v, i)` for every valid
    /// `(v, i)`, and a random walk on the rebuild consumes the identical
    /// RNG stream as on the original.
    ///
    /// # Panics
    ///
    /// Panics if the topology has more than `u32::MAX` nodes or moves
    /// (the CSR arrays are `u32`-indexed by design).
    pub fn from_topology<T: Topology>(topo: &T) -> Self {
        let n = topo.num_nodes();
        assert!(n <= u32::MAX as u64, "CSR node ids are u32, got {n} nodes");
        let mut offsets = Vec::with_capacity(n as usize + 1);
        let mut targets = Vec::new();
        offsets.push(0u32);
        for v in 0..n {
            let d = topo.degree(v);
            for i in 0..d {
                targets.push(topo.neighbor(v, i) as u32);
            }
            assert!(
                targets.len() <= u32::MAX as usize,
                "CSR move arrays are u32-indexed; graph has too many moves"
            );
            offsets.push(targets.len() as u32);
        }
        Self::from_parts(offsets, targets)
    }

    /// Builds an undirected simple graph (no self-loops, no parallel
    /// edges) with `n` nodes from an edge list. Each node lists its
    /// neighbors in ascending order.
    ///
    /// Every check that does not need the graph runs before any O(n)
    /// allocation, so an absurd `n` is a typed error, not an
    /// out-of-memory abort.
    ///
    /// # Errors
    ///
    /// Returns a [`BuildGraphError`] if `n == 0`, the `2·|E|` moves
    /// exceed `u32`, an endpoint is out of range, an edge is a self-loop
    /// or duplicated, or any node ends up isolated.
    ///
    /// # Example
    ///
    /// ```
    /// use antdensity_graphs::{CsrGraph, Topology};
    ///
    /// // a triangle
    /// let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]).unwrap();
    /// assert_eq!(g.degree(0), 2);
    /// assert!(g.is_connected());
    /// assert!(!g.is_bipartite());
    /// ```
    pub fn from_edges(n: u64, edges: &[(NodeId, NodeId)]) -> Result<Self, BuildGraphError> {
        if n == 0 {
            return Err(BuildGraphError::NoNodes);
        }
        let moves = move_count(edges.len())?;
        let mut canon: Vec<(NodeId, NodeId)> = Vec::with_capacity(edges.len());
        for &(u, v) in edges {
            if u >= n {
                return Err(BuildGraphError::EndpointOutOfRange { node: u, n });
            }
            if v >= n {
                return Err(BuildGraphError::EndpointOutOfRange { node: v, n });
            }
            if u == v {
                return Err(BuildGraphError::SelfLoop(u));
            }
            canon.push((u.min(v), u.max(v)));
        }
        canon.sort_unstable();
        for w in canon.windows(2) {
            if w[0] == w[1] {
                return Err(BuildGraphError::DuplicateEdge(w[0].0, w[0].1));
            }
        }
        if n > u64::from(moves) {
            // More nodes than edge endpoints: one of `0..=moves` is
            // isolated, and the smallest one is found in O(|E|).
            let mut mentioned = vec![false; moves as usize + 1];
            for &(u, v) in &canon {
                for x in [u, v] {
                    if x <= u64::from(moves) {
                        mentioned[x as usize] = true;
                    }
                }
            }
            let v = mentioned.iter().position(|&m| !m).expect("pigeonhole");
            return Err(BuildGraphError::IsolatedNode(v as NodeId));
        }
        // n <= moves <= u32::MAX from here on.
        let nu = n as usize;
        let mut offsets = vec![0u32; nu + 1];
        for &(u, v) in &canon {
            offsets[u as usize + 1] += 1;
            offsets[v as usize + 1] += 1;
        }
        if let Some(v) = offsets[1..].iter().position(|&d| d == 0) {
            return Err(BuildGraphError::IsolatedNode(v as NodeId));
        }
        for v in 0..nu {
            offsets[v + 1] += offsets[v];
        }
        // Edges are sorted by (min, max), so each node first receives its
        // smaller neighbors, then its larger ones, both ascending.
        let mut cursor = offsets[..nu].to_vec();
        let mut targets = vec![0u32; moves as usize];
        for &(u, v) in &canon {
            targets[cursor[u as usize] as usize] = v as u32;
            cursor[u as usize] += 1;
            targets[cursor[v as usize] as usize] = u as u32;
            cursor[v as usize] += 1;
        }
        Ok(Self::from_parts(offsets, targets))
    }

    /// Slice of the moves at `v` — the cache-friendly access the batched
    /// kernels and the spectral matvec iterate.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn neighbors_slice(&self, v: NodeId) -> &[u32] {
        let vu = v as usize;
        assert!(vu + 1 < self.offsets.len(), "node {v} out of range");
        &self.targets[self.offsets[vu] as usize..self.offsets[vu + 1] as usize]
    }

    /// Number of undirected edges `|E|` (half the moves).
    pub fn num_edges(&self) -> u64 {
        (self.targets.len() / 2) as u64
    }

    /// Whether `v` is among the moves at `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        u32::try_from(v).is_ok_and(|v| self.neighbors_slice(u).contains(&v))
    }

    /// Minimum degree over all nodes.
    pub fn min_degree(&self) -> usize {
        (0..self.num_nodes())
            .map(|v| self.degree(v))
            .min()
            .expect("graph is non-empty")
    }

    /// Maximum degree over all nodes.
    pub fn max_degree(&self) -> usize {
        (0..self.num_nodes())
            .map(|v| self.degree(v))
            .max()
            .expect("graph is non-empty")
    }

    /// Average degree `deḡ = Σ deg / |V|`.
    pub fn avg_degree(&self) -> f64 {
        self.targets.len() as f64 / self.num_nodes() as f64
    }

    /// `Σ_v deg(v)²` — appears in the KLSC14 sample-size requirement that
    /// Section 5.1.5 compares against.
    pub fn sum_degree_squared(&self) -> f64 {
        (0..self.num_nodes())
            .map(|v| {
                let d = self.degree(v) as f64;
                d * d
            })
            .sum()
    }

    /// Samples a node from the stationary distribution of the random walk
    /// (`π(v) = deg(v)/2|E|`) in O(1): a uniformly random entry of the CSR
    /// target array mentions node `u` exactly `deg(u)` times.
    ///
    /// The network-size application (Section 5.1) idealises walk starts as
    /// stationary samples before analysing burn-in separately.
    pub fn sample_stationary(&self, rng: &mut dyn RngCore) -> NodeId {
        use rand::Rng;
        let idx = rng.gen_range(0..self.targets.len());
        NodeId::from(self.targets[idx])
    }

    /// The counting-sort core of [`Topology::apply_moves_blocked`]:
    /// partitions agents into node tiles of `1 << tile_shift` source
    /// nodes, then gathers tile by tile so the offset/target reads of one
    /// tile stay cache-resident. Output is bit-identical to
    /// [`Topology::apply_moves`] — only the gather order changes.
    fn apply_moves_tiled(
        &self,
        positions: &mut [u32],
        moves: &[u32],
        scratch: &mut MoveScratch,
        tile_shift: u32,
    ) {
        assert_eq!(positions.len(), moves.len(), "one move per position");
        assert!(
            positions.len() <= u32::MAX as usize,
            "blocked apply packs agent indices into u32"
        );
        let num_tiles = ((self.num_nodes() as usize - 1) >> tile_shift) + 1;
        scratch.tile_counts.clear();
        scratch.tile_counts.resize(num_tiles, 0);
        for &p in positions.iter() {
            scratch.tile_counts[(p >> tile_shift) as usize] += 1;
        }
        scratch.cursors.clear();
        scratch.cursors.reserve(num_tiles);
        let mut acc = 0u32;
        for &c in &scratch.tile_counts {
            scratch.cursors.push(acc);
            acc += c;
        }
        scratch.keys.clear();
        scratch.keys.resize(positions.len(), 0);
        for (j, &p) in positions.iter().enumerate() {
            let cursor = &mut scratch.cursors[(p >> tile_shift) as usize];
            scratch.keys[*cursor as usize] = ((p as u64) << 32) | j as u64;
            *cursor += 1;
        }
        // Tile-major gather: `keys` is sorted by tile, so the offset and
        // target reads of consecutive iterations share one tile's working
        // set; the `moves[j]` / `positions[j]` accesses are increasing
        // within each tile (the sort is stable), so those streams advance
        // monotonically instead of thrashing.
        for &key in &scratch.keys {
            let p = (key >> 32) as usize;
            let j = key as u32 as usize;
            let start = self.offsets[p];
            debug_assert!(moves[j] < self.offsets[p + 1] - start);
            positions[j] = self.targets[(start + moves[j]) as usize];
        }
    }

    /// Whether the graph is connected (BFS from node 0).
    pub fn is_connected(&self) -> bool {
        let n = self.num_nodes() as usize;
        let mut seen = vec![false; n];
        let mut queue = std::collections::VecDeque::new();
        seen[0] = true;
        queue.push_back(0u32);
        let mut count = 1usize;
        while let Some(v) = queue.pop_front() {
            for &u in self.neighbors_slice(v as NodeId) {
                if !seen[u as usize] {
                    seen[u as usize] = true;
                    count += 1;
                    queue.push_back(u);
                }
            }
        }
        count == n
    }

    /// Whether the graph is bipartite (BFS 2-coloring).
    ///
    /// Random walks on bipartite graphs never mix to the stationary
    /// distribution (period 2); Section 5.1 assumes non-bipartite inputs
    /// and Section 4.5 handles the hypercube case specially.
    pub fn is_bipartite(&self) -> bool {
        let n = self.num_nodes() as usize;
        let mut color = vec![u8::MAX; n];
        for start in 0..n {
            if color[start] != u8::MAX {
                continue;
            }
            color[start] = 0;
            let mut queue = std::collections::VecDeque::new();
            queue.push_back(start as u32);
            while let Some(v) = queue.pop_front() {
                let c = color[v as usize];
                for &u in self.neighbors_slice(NodeId::from(v)) {
                    if color[u as usize] == u8::MAX {
                        color[u as usize] = 1 - c;
                        queue.push_back(u);
                    } else if color[u as usize] == c {
                        return false;
                    }
                }
            }
        }
        true
    }
}

/// `2·edges` as a `u32` move count: the CSR arrays are `u32`-indexed.
fn move_count(edges: usize) -> Result<u32, BuildGraphError> {
    edges
        .checked_mul(2)
        .and_then(|m| u32::try_from(m).ok())
        .ok_or(BuildGraphError::TooManyEdges {
            edges: edges as u64,
        })
}

impl Topology for CsrGraph {
    #[inline]
    fn num_nodes(&self) -> u64 {
        (self.offsets.len() - 1) as u64
    }

    #[inline]
    fn degree(&self, v: NodeId) -> usize {
        let vu = v as usize;
        assert!(vu + 1 < self.offsets.len(), "node {v} out of range");
        (self.offsets[vu + 1] - self.offsets[vu]) as usize
    }

    #[inline]
    fn neighbor(&self, v: NodeId, i: usize) -> NodeId {
        let ns = self.neighbors_slice(v);
        assert!(i < ns.len(), "move index {i} out of range");
        ns[i] as NodeId
    }

    /// One offset load, one degree draw, one target gather — with the
    /// per-node precomputed rejection zone replacing `gen_range`'s
    /// per-draw `%`. Consumes the RNG **bit-for-bit** as the default
    /// implementation (`rng.gen_range(0..degree)`): power-of-two degrees
    /// take the mask path, others the Lemire multiply-shift loop with
    /// the identical zone value.
    #[inline]
    fn random_neighbor<R: RngCore + ?Sized>(&self, v: NodeId, rng: &mut R) -> NodeId {
        let vu = v as usize;
        assert!(vu + 1 < self.offsets.len(), "node {v} out of range");
        let start = self.offsets[vu] as usize;
        let d = (self.offsets[vu + 1] as usize - start) as u64;
        debug_assert!(d > 0, "node {v} has no moves");
        let i = if d.is_power_of_two() {
            rng.next_u64() & (d - 1)
        } else {
            let zone = self.zones[vu];
            loop {
                let m = (rng.next_u64() as u128) * (d as u128);
                if (m as u64) <= zone {
                    break (m >> 64) as u64;
                }
            }
        };
        self.targets[start + i as usize] as NodeId
    }

    /// The batched pure-walk fast path on regular CSR graphs: for each
    /// agent, one offset load plus one gather from the target array.
    fn apply_moves(&self, positions: &mut [u32], moves: &[u32]) {
        assert_eq!(positions.len(), moves.len(), "one move per position");
        for (p, &i) in positions.iter_mut().zip(moves) {
            let start = self.offsets[*p as usize];
            debug_assert!(i < self.offsets[*p as usize + 1] - start);
            *p = self.targets[(start + i) as usize];
        }
    }

    /// Counting-sort tiling of the gather (see
    /// [`Topology::apply_moves_blocked`]): agents are partitioned by
    /// source-node tile sized so one tile's offsets + targets fit in half
    /// an L2, then gathered tile-major. Falls back to the plain gather
    /// when the whole CSR already fits one tile or the agent count is too
    /// small to amortize the partition passes.
    fn apply_moves_blocked(&self, positions: &mut [u32], moves: &[u32], scratch: &mut MoveScratch) {
        let n = self.offsets.len() - 1;
        // Offsets plus the average move list, in bytes per node.
        let per_node = 4 + 4 * (self.targets.len() / n).max(1);
        let nodes_per_tile = ((TILE_FOOTPRINT_BYTES / per_node).max(1) + 1).next_power_of_two() / 2;
        if positions.len() < BLOCKED_MIN_AGENTS || n <= nodes_per_tile {
            self.apply_moves(positions, moves);
            return;
        }
        self.apply_moves_tiled(positions, moves, scratch, nodes_per_tile.trailing_zeros());
    }

    #[inline]
    fn regular_degree(&self) -> Option<usize> {
        self.regular
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{lollipop, random_regular};
    use crate::torus::{Ring, Torus2d};
    use crate::Hypercube;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn from_topology_preserves_move_lists_exactly() {
        let torus = Torus2d::new(5);
        let csr = CsrGraph::from_topology(&torus);
        assert_eq!(csr.num_nodes(), 25);
        assert_eq!(csr.regular_degree(), Some(4));
        assert_eq!(csr.num_edges(), 50);
        for v in 0..25 {
            assert_eq!(csr.degree(v), torus.degree(v));
            for i in 0..4 {
                assert_eq!(csr.neighbor(v, i), torus.neighbor(v, i), "({v},{i})");
            }
        }
    }

    #[test]
    fn from_topology_keeps_multiset_duplicates() {
        // side-2 torus: +1 and -1 moves coincide, listed twice
        let torus = Torus2d::new(2);
        let csr = CsrGraph::from_topology(&torus);
        assert_eq!(csr.regular_degree(), Some(4));
        let moves: Vec<NodeId> = csr
            .neighbors_slice(0)
            .iter()
            .map(|&t| t as NodeId)
            .collect();
        let native: Vec<NodeId> = torus.neighbors(0).collect();
        assert_eq!(moves, native);
    }

    #[test]
    fn random_neighbor_draws_identical_bits_to_default() {
        // CSR's zone-hoisted draw must equal gen_range(0..d) bit-for-bit
        // on power-of-two (4), tiny (2), and awkward (3, 5, 7) degrees.
        let graphs = [
            CsrGraph::from_topology(&Torus2d::new(6)),   // degree 4
            CsrGraph::from_topology(&Ring::new(9)),      // degree 2
            CsrGraph::from_topology(&Hypercube::new(5)), // degree 5
            lollipop(8, 3),                              // degrees 1..=8
            CsrGraph::from_topology(&Hypercube::new(3)), // degree 3
        ];
        for g in &graphs {
            for seed in 0..10u64 {
                for v in 0..g.num_nodes() {
                    let mut fast = SmallRng::seed_from_u64(seed ^ (v << 7));
                    let mut reference = fast.clone();
                    let got = g.random_neighbor(v, &mut fast);
                    let want = g.neighbor(v, reference.gen_range(0..g.degree(v)));
                    assert_eq!(got, want, "node {v} seed {seed}");
                    // residual state identical: the next raw draw agrees
                    assert_eq!(fast.next_u64(), reference.next_u64());
                }
            }
        }
    }

    #[test]
    fn apply_moves_matches_neighbor_lookup() {
        let g = CsrGraph::from_topology(&Hypercube::new(4));
        let mut rng = SmallRng::seed_from_u64(3);
        let mut positions: Vec<u32> = (0..200).map(|_| rng.gen_range(0..16u64) as u32).collect();
        let moves: Vec<u32> = (0..200).map(|_| rng.gen_range(0..4u64) as u32).collect();
        let expect: Vec<u32> = positions
            .iter()
            .zip(&moves)
            .map(|(&p, &m)| g.neighbor(p as NodeId, m as usize) as u32)
            .collect();
        g.apply_moves(&mut positions, &moves);
        assert_eq!(positions, expect);
    }

    #[test]
    fn tiled_apply_is_bit_identical_to_plain() {
        // Force tiny tiles so the counting-sort path runs on a small
        // graph — regular (torus) and irregular (lollipop) degrees, with
        // ragged tile counts (25 nodes, 8-node tiles).
        let graphs = [CsrGraph::from_topology(&Torus2d::new(5)), lollipop(20, 5)];
        for g in &graphs {
            let n = g.num_nodes();
            for seed in 0..5u64 {
                let mut rng = SmallRng::seed_from_u64(seed);
                let mut plain: Vec<u32> = (0..5000).map(|_| rng.gen_range(0..n) as u32).collect();
                let moves: Vec<u32> = plain
                    .iter()
                    .map(|&p| rng.gen_range(0..g.degree(p as NodeId) as u64) as u32)
                    .collect();
                let mut tiled = plain.clone();
                g.apply_moves(&mut plain, &moves);
                let mut scratch = MoveScratch::new();
                for shift in [0u32, 3] {
                    let mut t = tiled.clone();
                    g.apply_moves_tiled(&mut t, &moves, &mut scratch, shift);
                    assert_eq!(t, plain, "shift {shift} seed {seed}");
                }
                g.apply_moves_tiled(&mut tiled, &moves, &mut scratch, 3);
                assert_eq!(tiled, plain);
            }
        }
    }

    #[test]
    fn blocked_apply_entry_point_matches_plain() {
        // The public entry point (auto tile sizing, which on this small
        // graph falls back to the plain gather) and a forced-tile run
        // agree with apply_moves.
        let g = CsrGraph::from_topology(&Hypercube::new(6));
        let mut rng = SmallRng::seed_from_u64(9);
        let mut plain: Vec<u32> = (0..3000).map(|_| rng.gen_range(0..64u64) as u32).collect();
        let moves: Vec<u32> = (0..3000).map(|_| rng.gen_range(0..6u64) as u32).collect();
        let mut blocked = plain.clone();
        g.apply_moves(&mut plain, &moves);
        g.apply_moves_blocked(&mut blocked, &moves, &mut MoveScratch::new());
        assert_eq!(blocked, plain);
    }

    #[test]
    fn from_edges_and_structure_queries() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]).unwrap();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 5);
        assert_eq!(g.min_degree(), 2);
        assert_eq!(g.max_degree(), 3);
        assert!((g.avg_degree() - 2.5).abs() < 1e-12);
        assert!(g.is_connected());
        assert_eq!(g.regular_degree(), None);
        assert_eq!(g.neighbors_slice(0), &[1, 2, 3]);
    }

    #[test]
    fn disconnected_graph_detected() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert!(!g.is_connected());
    }

    #[test]
    fn from_edges_propagates_validation() {
        assert!(CsrGraph::from_edges(3, &[(0, 1)]).is_err()); // isolated node
        assert!(CsrGraph::from_edges(2, &[(0, 0)]).is_err()); // self loop
    }

    #[test]
    fn random_regular_conversion_keeps_regularity() {
        let mut rng = SmallRng::seed_from_u64(7);
        let g = random_regular(60, 6, 200, &mut rng).unwrap();
        assert_eq!(g.regular_degree(), Some(6));
        assert!(g.is_connected());
        for v in 0..60 {
            let ns = g.neighbors_slice(v);
            assert!(ns.windows(2).all(|w| w[0] < w[1]), "node {v}: {ns:?}");
        }
    }

    fn square() -> CsrGraph {
        CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap()
    }

    #[test]
    fn builds_and_reports_degrees() {
        let g = square();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 4);
        for v in 0..4 {
            assert_eq!(g.degree(v), 2);
        }
        assert_eq!(g.min_degree(), 2);
        assert_eq!(g.max_degree(), 2);
        assert_eq!(g.avg_degree(), 2.0);
        assert_eq!(g.sum_degree_squared(), 16.0);
    }

    #[test]
    fn neighbors_sorted_and_edge_lookup() {
        let g = CsrGraph::from_edges(4, &[(2, 0), (0, 1), (3, 0)]).unwrap();
        assert_eq!(g.neighbors_slice(0), &[1, 2, 3]);
        assert!(g.has_edge(0, 2));
        assert!(g.has_edge(2, 0));
        assert!(!g.has_edge(1, 2));
        assert!(!g.has_edge(0, 1 << 32));
    }

    #[test]
    fn connectivity_detection() {
        assert!(square().is_connected());
        let disconnected = CsrGraph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert!(!disconnected.is_connected());
    }

    #[test]
    fn bipartiteness_detection() {
        assert!(square().is_bipartite()); // even cycle
        let triangle = CsrGraph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]).unwrap();
        assert!(!triangle.is_bipartite()); // odd cycle
        let odd5 = CsrGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]).unwrap();
        assert!(!odd5.is_bipartite());
    }

    #[test]
    fn error_cases() {
        assert_eq!(CsrGraph::from_edges(0, &[]), Err(BuildGraphError::NoNodes));
        assert_eq!(
            CsrGraph::from_edges(2, &[(0, 2)]),
            Err(BuildGraphError::EndpointOutOfRange { node: 2, n: 2 })
        );
        assert_eq!(
            CsrGraph::from_edges(2, &[(1, 1)]),
            Err(BuildGraphError::SelfLoop(1))
        );
        assert_eq!(
            CsrGraph::from_edges(2, &[(0, 1), (1, 0)]),
            Err(BuildGraphError::DuplicateEdge(0, 1))
        );
        assert_eq!(
            CsrGraph::from_edges(3, &[(0, 1)]),
            Err(BuildGraphError::IsolatedNode(2))
        );
    }

    #[test]
    fn huge_node_counts_fail_before_allocating() {
        // More nodes than edge endpoints: the smallest isolated node is
        // reported without an O(n) degree array.
        assert_eq!(
            CsrGraph::from_edges(u64::MAX, &[(0, 1)]),
            Err(BuildGraphError::IsolatedNode(2))
        );
        assert_eq!(
            CsrGraph::from_edges(1 << 40, &[(1, 2), (0, 3)]),
            Err(BuildGraphError::IsolatedNode(4))
        );
        assert_eq!(
            CsrGraph::from_edges(5, &[(0, 1), (3, 4)]),
            Err(BuildGraphError::IsolatedNode(2))
        );
        // Edge validation still comes first.
        assert_eq!(
            CsrGraph::from_edges(u64::MAX, &[(7, 7)]),
            Err(BuildGraphError::SelfLoop(7))
        );
    }

    #[test]
    fn move_count_is_bounded_by_u32() {
        // `from_edges` checks this before reading the edges; a slice long
        // enough to fail would need tens of GiB, so the check is tested
        // directly.
        let most = (u32::MAX / 2) as usize;
        assert_eq!(move_count(most), Ok(u32::MAX - 1));
        assert_eq!(
            move_count(most + 1),
            Err(BuildGraphError::TooManyEdges {
                edges: most as u64 + 1
            })
        );
        assert!(move_count(usize::MAX).is_err());
        assert!(BuildGraphError::TooManyEdges { edges: 1 << 31 }
            .to_string()
            .contains("u32"));
    }

    #[test]
    fn error_messages_are_informative() {
        let e = CsrGraph::from_edges(2, &[(1, 1)]).unwrap_err();
        assert!(e.to_string().contains("self-loop"));
    }

    #[test]
    fn regular_degree_via_default_impl() {
        assert_eq!(square().regular_degree(), Some(2));
        let star = CsrGraph::from_edges(4, &[(0, 1), (0, 2), (0, 3)]).unwrap();
        assert_eq!(star.regular_degree(), None);
    }

    #[test]
    fn stationary_samples_follow_degrees() {
        // star on 4 nodes: the hub holds half of the stationary mass
        let star = CsrGraph::from_edges(4, &[(0, 1), (0, 2), (0, 3)]).unwrap();
        let mut rng = SmallRng::seed_from_u64(11);
        let hub = (0..4000)
            .filter(|_| star.sample_stationary(&mut rng) == 0)
            .count();
        assert!((1800..2200).contains(&hub), "hub drawn {hub} of 4000");
    }

    #[test]
    #[should_panic(expected = "no moves")]
    fn zero_degree_node_rejected() {
        let _ = CsrGraph::from_parts(vec![0, 0, 1], vec![0]);
    }
}
