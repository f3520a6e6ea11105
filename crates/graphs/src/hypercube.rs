//! The k-dimensional hypercube (Section 4.5 of the paper).
//!
//! Vertices are the bit strings {0,1}^k (A = 2^k nodes); each walk step
//! flips one uniformly chosen bit. The paper proves (Lemma 25) that the
//! re-collision probability decays like `(9/10)^{m−1} + 1/√A`: local
//! mixing *improves* with size even though the global mixing time grows.

use crate::topology::{NodeId, Topology};

/// The hypercube on `{0,1}^dims` with bit-flip moves.
///
/// # Example
///
/// ```
/// use antdensity_graphs::{Hypercube, Topology};
///
/// let h = Hypercube::new(4); // 16 nodes, degree 4
/// assert_eq!(h.num_nodes(), 16);
/// assert_eq!(h.neighbor(0b0101, 1), 0b0111);
/// let (v, u): (u64, u64) = (0b0000, 0b1011);
/// assert_eq!((v ^ u).count_ones(), 3); // Hamming distance 3
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Hypercube {
    dims: u32,
}

impl Hypercube {
    /// Creates the `dims`-dimensional hypercube (`2^dims` nodes).
    ///
    /// # Panics
    ///
    /// Panics if `dims == 0` or `dims >= 64`.
    pub fn new(dims: u32) -> Self {
        assert!(dims > 0, "hypercube needs at least one dimension");
        assert!(dims < 64, "dims must be below 64 to fit node ids in u64");
        Self { dims }
    }

    /// Number of dimensions k.
    pub fn dims(&self) -> u32 {
        self.dims
    }
}

impl Topology for Hypercube {
    #[inline]
    fn num_nodes(&self) -> u64 {
        1u64 << self.dims
    }

    #[inline]
    fn degree(&self, v: NodeId) -> usize {
        assert!(v < self.num_nodes(), "node {v} out of range");
        self.dims as usize
    }

    // Degree d = dims is a power of two for the common d ∈ {1,2,4,8,16,…}
    // cubes; the generic `random_neighbor` default reduces to a d-bit
    // mask there (the vendored sampler special-cases power-of-two spans),
    // so no per-type override is needed.
    #[inline]
    fn neighbor(&self, v: NodeId, i: usize) -> NodeId {
        assert!(v < self.num_nodes(), "node {v} out of range");
        assert!(i < self.dims as usize, "move index {i} out of range");
        v ^ (1u64 << i)
    }

    /// Branchless batched stepping: one XOR per agent.
    ///
    /// # Panics
    ///
    /// Panics if `dims > 32` — larger cubes cannot pack every node id
    /// into the `u32` positions this API requires, and a 32-bit XOR
    /// would silently flip the wrong coordinate.
    #[inline]
    fn apply_moves(&self, positions: &mut [u32], moves: &[u32]) {
        assert_eq!(positions.len(), moves.len(), "one move per position");
        assert!(
            self.dims <= 32,
            "u32-packed stepping supports at most 32 dimensions, got {}",
            self.dims
        );
        for (p, &i) in positions.iter_mut().zip(moves) {
            debug_assert!((*p as u64) < self.num_nodes(), "node {p} out of range");
            debug_assert!((i as usize) < self.dims as usize, "move {i} out of range");
            *p ^= 1u32 << (i & 31);
        }
    }

    #[inline]
    fn regular_degree(&self) -> Option<usize> {
        Some(self.dims as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn neighbors_differ_in_one_bit() {
        let h = Hypercube::new(5);
        for v in 0..h.num_nodes() {
            for u in h.neighbors(v) {
                assert_eq!((v ^ u).count_ones(), 1);
            }
        }
    }

    #[test]
    fn neighbors_are_distinct_and_symmetric() {
        let h = Hypercube::new(4);
        for v in 0..h.num_nodes() {
            let ns: Vec<NodeId> = h.neighbors(v).collect();
            let mut sorted = ns.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), ns.len(), "duplicate move at {v}");
            for u in ns {
                assert!(h.neighbors(u).any(|w| w == v));
            }
        }
    }

    #[test]
    fn bipartite_by_parity() {
        // Every step flips one bit and hence the popcount parity — the
        // hypercube is bipartite, as the paper notes when restricting to
        // W² in Section 4.5.
        let h = Hypercube::new(6);
        for v in 0..h.num_nodes() {
            for u in h.neighbors(v) {
                assert_ne!(v.count_ones() % 2, u.count_ones() % 2);
            }
        }
    }

    #[test]
    fn one_dimensional_hypercube_is_an_edge() {
        let h = Hypercube::new(1);
        assert_eq!(h.num_nodes(), 2);
        assert_eq!(h.neighbor(0, 0), 1);
        assert_eq!(h.neighbor(1, 0), 0);
    }

    #[test]
    fn degree_equals_dims() {
        assert_eq!(Hypercube::new(10).regular_degree(), Some(10));
    }

    #[test]
    #[should_panic(expected = "below 64")]
    fn dims_64_panics() {
        let _ = Hypercube::new(64);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_move_panics() {
        let _ = Hypercube::new(3).neighbor(0, 3);
    }
}
