//! The [`Topology`] trait: the minimal graph interface the paper's model
//! needs.
//!
//! Agents only ever (a) pick a uniformly random starting node, (b) step to
//! a uniformly random neighbor, and (c) compare positions. Node identity
//! is therefore a dense integer id and the interface is three methods.
//!
//! Neighbor lists are *multisets*: on a side-2 torus the `x+1` and `x−1`
//! moves land on the same node and are listed twice. This is deliberate —
//! the paper's walk picks a uniformly random *move*, and keeping duplicate
//! entries preserves the exact step distribution on degenerate sizes.

use rand::Rng;
use rand::RngCore;

/// Dense node identifier: `0 ..= num_nodes()-1`.
pub type NodeId = u64;

/// A graph on which agents random-walk.
///
/// Implementations must present each vertex's incident moves as an indexed
/// multiset (`degree` entries, possibly with repeats). The random walk
/// defined by [`Topology::random_neighbor`] picks an index uniformly, so
/// the walk matrix has `P[v→u] = (multiplicity of u)/degree(v)`.
///
/// The trait is object-safe: heterogeneous experiment tables can hold
/// `&dyn Topology`.
pub trait Topology {
    /// Number of nodes `A`. Always at least 1.
    fn num_nodes(&self) -> u64;

    /// Number of incident moves at `v` (with multiplicity).
    ///
    /// # Panics
    ///
    /// Implementations panic if `v ≥ num_nodes()`.
    fn degree(&self, v: NodeId) -> usize;

    /// The `i`-th incident move at `v`, `0 ≤ i < degree(v)`.
    ///
    /// # Panics
    ///
    /// Implementations panic if `v` or `i` is out of range.
    fn neighbor(&self, v: NodeId, i: usize) -> NodeId;

    /// Uniformly random move from `v` — one step of the paper's walk.
    ///
    /// Generic over the RNG so concrete call sites monomorphize: with a
    /// concrete `R` the whole draw (xoshiro output, Lemire bound, bitmask
    /// fast path for power-of-two degrees) inlines into the caller with
    /// zero virtual dispatch. Passing `&mut dyn RngCore` still works
    /// (`R = dyn RngCore`) and reproduces the exact same bit-stream — the
    /// draw algorithm does not depend on `R`.
    fn random_neighbor<R: RngCore + ?Sized>(&self, v: NodeId, rng: &mut R) -> NodeId
    where
        Self: Sized,
    {
        let d = self.degree(v);
        debug_assert!(d > 0, "node {v} has no moves");
        self.neighbor(v, rng.gen_range(0..d))
    }

    /// Uniformly random node — the paper's initial placement.
    fn uniform_node<R: RngCore + ?Sized>(&self, rng: &mut R) -> NodeId
    where
        Self: Sized,
    {
        rng.gen_range(0..self.num_nodes())
    }

    /// Applies precomputed move indices to a block of packed positions:
    /// `positions[j] = neighbor(positions[j], moves[j])` for every `j` —
    /// the second loop of a batched walk kernel, after the indices were
    /// bulk-sampled.
    ///
    /// The `u32` packing guarantees every id is below `2^32`, which lets
    /// structured topologies override this with branchless, division-free
    /// loops (tori use a precomputed reciprocal and add-mod-side wraps;
    /// the hypercube a bare XOR). Overrides must produce exactly
    /// [`Topology::neighbor`]'s value for every in-range input; for
    /// out-of-range positions or move indices they may panic or produce
    /// unspecified positions (debug builds assert). Only meaningful on
    /// topologies with at most `2^32` nodes — larger graphs cannot pack
    /// their ids into `u32` at all (the dense engine enforces this via
    /// its `MAX_NODES` cap).
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length; implementations may panic
    /// on out-of-range entries.
    fn apply_moves(&self, positions: &mut [u32], moves: &[u32]) {
        assert_eq!(positions.len(), moves.len(), "one move per position");
        for (p, &i) in positions.iter_mut().zip(moves) {
            *p = self.neighbor(*p as NodeId, i as usize) as u32;
        }
    }

    /// [`Topology::apply_moves`] with an L2-sized node-tiling option for
    /// the memory-bound regime (hundreds of thousands of agents, or node
    /// data too large to stay cache-resident).
    ///
    /// The contract is **bit-identical output**: after the call,
    /// `positions` holds exactly what [`Topology::apply_moves`] would
    /// have produced — implementations may only reorder the *gathers*,
    /// never change a value. The default ignores `scratch` and delegates;
    /// [`crate::CsrGraph`] overrides with a counting-sort partition of
    /// agents by source-node tile so its offset/target gathers stay
    /// within one L2-sized tile at a time.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length; implementations may panic
    /// on out-of-range entries.
    fn apply_moves_blocked(&self, positions: &mut [u32], moves: &[u32], scratch: &mut MoveScratch) {
        let _ = scratch;
        self.apply_moves(positions, moves);
    }

    /// If every node has the same degree, that degree.
    ///
    /// Regularity matters: the paper's unbiasedness argument (Lemma 2)
    /// requires the uniform distribution to be stationary, which holds
    /// exactly for regular graphs. The default scans all nodes; structured
    /// topologies override with O(1) answers.
    fn regular_degree(&self) -> Option<usize> {
        let d0 = self.degree(0);
        for v in 1..self.num_nodes() {
            if self.degree(v) != d0 {
                return None;
            }
        }
        Some(d0)
    }

    /// Iterator over the moves at `v` (with multiplicity).
    fn neighbors(&self, v: NodeId) -> NeighborIter<'_>
    where
        Self: Sized,
    {
        NeighborIter {
            topo: self,
            v,
            i: 0,
            d: self.degree(v),
        }
    }
}

/// Reusable buffers for [`Topology::apply_moves_blocked`]: the tile
/// histogram, write cursors, and the tile-partitioned `(position, agent)`
/// key array of a counting sort. One instance amortizes its allocations
/// across every round of a run; `Default` starts empty and implementations
/// size the buffers on first use.
#[derive(Debug, Clone, Default)]
pub struct MoveScratch {
    /// Agents per node tile (counting-sort histogram).
    pub(crate) tile_counts: Vec<u32>,
    /// Per-tile write cursor (exclusive prefix sum of `tile_counts`).
    pub(crate) cursors: Vec<u32>,
    /// Tile-ordered keys packing `(position << 32) | agent_index`.
    pub(crate) keys: Vec<u64>,
}

impl MoveScratch {
    /// An empty scratch; buffers grow on first blocked apply.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Iterator over a node's incident moves. Created by
/// [`Topology::neighbors`].
pub struct NeighborIter<'a> {
    topo: &'a dyn Topology,
    v: NodeId,
    i: usize,
    d: usize,
}

impl std::fmt::Debug for NeighborIter<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NeighborIter")
            .field("v", &self.v)
            .field("i", &self.i)
            .field("d", &self.d)
            .finish()
    }
}

impl Iterator for NeighborIter<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        if self.i < self.d {
            let n = self.topo.neighbor(self.v, self.i);
            self.i += 1;
            Some(n)
        } else {
            None
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.d - self.i;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for NeighborIter<'_> {}

/// Blanket impl so `&T` is itself a topology (lets generic code borrow);
/// every method forwards, so a borrow keeps `T`'s fast paths.
impl<T: Topology> Topology for &T {
    fn num_nodes(&self) -> u64 {
        (**self).num_nodes()
    }
    fn degree(&self, v: NodeId) -> usize {
        (**self).degree(v)
    }
    fn neighbor(&self, v: NodeId, i: usize) -> NodeId {
        (**self).neighbor(v, i)
    }
    fn random_neighbor<R: RngCore + ?Sized>(&self, v: NodeId, rng: &mut R) -> NodeId {
        (**self).random_neighbor(v, rng)
    }
    fn uniform_node<R: RngCore + ?Sized>(&self, rng: &mut R) -> NodeId {
        (**self).uniform_node(rng)
    }
    fn apply_moves(&self, positions: &mut [u32], moves: &[u32]) {
        (**self).apply_moves(positions, moves)
    }
    fn apply_moves_blocked(&self, positions: &mut [u32], moves: &[u32], scratch: &mut MoveScratch) {
        (**self).apply_moves_blocked(positions, moves, scratch)
    }
    fn regular_degree(&self) -> Option<usize> {
        (**self).regular_degree()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A triangle with an extra pendant vertex: 0-1, 1-2, 2-0, 2-3.
    struct Paw;

    impl Topology for Paw {
        fn num_nodes(&self) -> u64 {
            4
        }
        fn degree(&self, v: NodeId) -> usize {
            match v {
                0 | 1 => 2,
                2 => 3,
                3 => 1,
                _ => panic!("node {v} out of range"),
            }
        }
        fn neighbor(&self, v: NodeId, i: usize) -> NodeId {
            const N: [&[NodeId]; 4] = [&[1, 2], &[0, 2], &[0, 1, 3], &[2]];
            N[v as usize][i]
        }
    }

    #[test]
    fn default_regular_degree_detects_irregular() {
        assert_eq!(Paw.regular_degree(), None);
    }

    #[test]
    fn neighbors_iterator_yields_all() {
        let ns: Vec<NodeId> = Paw.neighbors(2).collect();
        assert_eq!(ns, vec![0, 1, 3]);
        assert_eq!(Paw.neighbors(3).len(), 1);
    }

    #[test]
    fn random_neighbor_is_a_neighbor() {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..100 {
            let n = Paw.random_neighbor(2, &mut rng);
            assert!([0, 1, 3].contains(&n));
        }
    }

    #[test]
    fn uniform_node_in_range() {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let mut rng = SmallRng::seed_from_u64(4);
        for _ in 0..100 {
            assert!(Paw.uniform_node(&mut rng) < 4);
        }
    }

    #[test]
    fn reference_impl_delegates() {
        let r = &Paw;
        assert_eq!(Topology::num_nodes(&r), 4);
        assert_eq!(Topology::degree(&r, 2), 3);
        assert_eq!(Topology::neighbor(&r, 2, 2), 3);
    }
}
