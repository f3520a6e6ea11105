//! Torus topologies: the paper's main stage.
//!
//! * [`Torus2d`] — the √A×√A two-dimensional torus of Section 2 (the
//!   paper's model for an ant colony's surface), with coordinate and
//!   displacement helpers used by the re-collision experiments.
//! * [`TorusKd`] — k-dimensional tori (Section 4.3, where k ≥ 3 makes
//!   density estimation as accurate as independent sampling).
//! * [`Ring`] — the 1-dimensional torus (Section 4.2, where poor local
//!   mixing degrades the bound to t^{1/4} convergence).
//!
//! Neighbor lists are multisets (see [`crate::topology`]): on side-2 tori
//! the +1 and −1 moves coincide and are listed twice, preserving the exact
//! uniform-move walk distribution.

use crate::fastdiv::FastDiv;
use crate::topology::{NodeId, Topology};

/// The two-dimensional `side × side` torus (`A = side²` nodes).
///
/// Node ids are row-major: `v = y·side + x`. Moves are ordered
/// `[x+1, x−1, y+1, y−1]`, matching the paper's step set
/// `{(1,0), (−1,0), (0,1), (0,−1)}`.
///
/// Coordinate decoding uses a precomputed [`FastDiv`] reciprocal, so the
/// per-step `id → (x, y) → id` round-trip is multiply/shift arithmetic —
/// no hardware division on the walk's hot path.
///
/// # Example
///
/// ```
/// use antdensity_graphs::{Topology, Torus2d};
///
/// let t = Torus2d::new(8);
/// let v = t.node(7, 0);
/// assert_eq!(t.neighbor(v, 0), t.node(0, 0)); // x wraps
/// assert_eq!(t.displacement(t.node(1, 1), t.node(2, 1)), (1, 0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Torus2d {
    side: u64,
    div: FastDiv,
}

impl Torus2d {
    /// Creates a `side × side` torus.
    ///
    /// # Panics
    ///
    /// Panics if `side == 0` or `side²` overflows `u64`.
    pub fn new(side: u64) -> Self {
        assert!(side > 0, "torus side must be positive");
        side.checked_mul(side).expect("side^2 overflows u64");
        Self {
            side,
            div: FastDiv::new(side),
        }
    }

    /// Side length √A.
    pub fn side(&self) -> u64 {
        self.side
    }

    /// Node id of coordinates `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if either coordinate is out of range.
    #[inline]
    pub fn node(&self, x: u64, y: u64) -> NodeId {
        assert!(x < self.side && y < self.side, "coordinate out of range");
        y * self.side + x
    }

    /// Coordinates `(x, y)` of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn coord(&self, v: NodeId) -> (u64, u64) {
        assert!(v < self.num_nodes(), "node {v} out of range");
        let (y, x) = self.div.div_rem(v);
        (x, y)
    }

    /// Minimal signed displacement `(dx, dy)` from `from` to `to`, each
    /// component in `(−side/2, side/2]`.
    pub fn displacement(&self, from: NodeId, to: NodeId) -> (i64, i64) {
        let (x0, y0) = self.coord(from);
        let (x1, y1) = self.coord(to);
        (
            signed_wrap(x1 as i64 - x0 as i64, self.side as i64),
            signed_wrap(y1 as i64 - y0 as i64, self.side as i64),
        )
    }

    /// L1 (Manhattan) torus distance.
    pub fn torus_distance(&self, a: NodeId, b: NodeId) -> u64 {
        let (dx, dy) = self.displacement(a, b);
        dx.unsigned_abs() + dy.unsigned_abs()
    }

    /// The node reached from `v` by offset `(dx, dy)` with wrap-around.
    #[inline]
    pub fn offset(&self, v: NodeId, dx: i64, dy: i64) -> NodeId {
        let (x, y) = self.coord(v);
        let s = self.side as i64;
        let nx = (x as i64 + dx).rem_euclid(s) as u64;
        let ny = (y as i64 + dy).rem_euclid(s) as u64;
        self.node(nx, ny)
    }
}

impl Topology for Torus2d {
    #[inline]
    fn num_nodes(&self) -> u64 {
        self.side * self.side
    }

    #[inline]
    fn degree(&self, v: NodeId) -> usize {
        assert!(v < self.num_nodes(), "node {v} out of range");
        4
    }

    /// Single-coordinate wrap with compare/select instead of the general
    /// `offset` path's `rem_euclid` — unit moves can only wrap by one
    /// period, so the modular reduction needs no hardware division. (A
    /// fully select-based variant measured *slower*: the per-arm form
    /// keeps the dependency chains short.)
    #[inline]
    fn neighbor(&self, v: NodeId, i: usize) -> NodeId {
        assert!(i < 4, "move index {i} out of range");
        let (x, y) = self.coord(v);
        let s = self.side;
        match i {
            0 => y * s + if x + 1 == s { 0 } else { x + 1 },
            1 => y * s + if x == 0 { s - 1 } else { x - 1 },
            2 => (if y + 1 == s { 0 } else { y + 1 }) * s + x,
            _ => (if y == 0 { s - 1 } else { y - 1 }) * s + x,
        }
    }

    /// Bitmask fast path: degree 4 is a power of two, so the move index
    /// is two raw RNG bits — exactly the bits `gen_range(0..4)` consumes
    /// (the vendored Lemire sampler masks for power-of-two spans), so the
    /// draw stream is unchanged.
    #[inline]
    fn random_neighbor<R: rand::RngCore + ?Sized>(&self, v: NodeId, rng: &mut R) -> NodeId {
        self.neighbor(v, (rng.next_u64() & 3) as usize)
    }

    /// Branchless batched stepping: a unit move is *addition mod side*
    /// per coordinate (`x−1 ≡ x + (side−1)`), so each agent is two table
    /// loads, two add-compare-subtract wraps, and a multiply-shift
    /// coordinate decode ([`FastDiv`]) — no division and no
    /// data-dependent branch on the random move index. Packed `u32`
    /// positions guarantee the reciprocal's dividend range.
    #[inline]
    fn apply_moves(&self, positions: &mut [u32], moves: &[u32]) {
        assert_eq!(positions.len(), moves.len(), "one move per position");
        let s = self.side;
        // Move i adds (dx[i], dy[i]) mod side, with ordering
        // [x+1, x−1, y+1, y−1].
        let dx = [1u64, s - 1, 0, 0];
        let dy = [0u64, 0, 1, s - 1];
        for (p, &i) in positions.iter_mut().zip(moves) {
            let v = *p as u64;
            debug_assert!(v < self.num_nodes(), "node {v} out of range");
            debug_assert!((i as usize) < 4, "move index {i} out of range");
            let (y, x) = self.div.div_rem32(v);
            let mut nx = x + dx[i as usize & 3];
            if nx >= s {
                nx -= s;
            }
            let mut ny = y + dy[i as usize & 3];
            if ny >= s {
                ny -= s;
            }
            *p = (ny * s + nx) as u32;
        }
    }

    #[inline]
    fn regular_degree(&self) -> Option<usize> {
        Some(4)
    }
}

/// Reduces `d` to the representative of `d mod s` in `(−s/2, s/2]`.
#[inline]
fn signed_wrap(d: i64, s: i64) -> i64 {
    let m = d.rem_euclid(s);
    if m > s / 2 {
        m - s
    } else {
        m
    }
}

/// The k-dimensional `side^k`-node torus of Section 4.3.
///
/// Node ids are mixed-radix little-endian: dimension `j`'s coordinate is
/// digit `j` in base `side`. Moves are ordered
/// `[+e₀, −e₀, +e₁, −e₁, …]` (degree `2k`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TorusKd {
    dims: u32,
    side: u64,
    nodes: u64,
}

impl TorusKd {
    /// Creates a `dims`-dimensional torus with `side` nodes per dimension.
    ///
    /// # Panics
    ///
    /// Panics if `dims == 0`, `side == 0`, or `side^dims` overflows `u64`.
    pub fn new(dims: u32, side: u64) -> Self {
        assert!(dims > 0, "torus needs at least one dimension");
        assert!(side > 0, "torus side must be positive");
        let mut nodes: u64 = 1;
        for _ in 0..dims {
            nodes = nodes.checked_mul(side).expect("side^dims overflows u64");
        }
        Self { dims, side, nodes }
    }

    /// Number of dimensions k.
    pub fn dims(&self) -> u32 {
        self.dims
    }

    /// Side length per dimension.
    pub fn side(&self) -> u64 {
        self.side
    }

    /// Coordinate of `v` in dimension `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `v` or `dim` is out of range.
    #[inline]
    pub fn coord(&self, v: NodeId, dim: u32) -> u64 {
        assert!(v < self.nodes, "node {v} out of range");
        assert!(dim < self.dims, "dimension {dim} out of range");
        (v / self.side.pow(dim)) % self.side
    }

    /// All coordinates of `v`.
    pub fn coords(&self, v: NodeId) -> Vec<u64> {
        (0..self.dims).map(|d| self.coord(v, d)).collect()
    }

    /// Node id from coordinates.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate count or any coordinate is out of range.
    pub fn node(&self, coords: &[u64]) -> NodeId {
        assert_eq!(coords.len(), self.dims as usize, "wrong coordinate count");
        let mut v = 0u64;
        for (j, &c) in coords.iter().enumerate() {
            assert!(c < self.side, "coordinate {c} out of range");
            v += c * self.side.pow(j as u32);
        }
        v
    }

    /// The node reached from `v` by moving `delta` in dimension `dim`.
    #[inline]
    pub fn offset(&self, v: NodeId, dim: u32, delta: i64) -> NodeId {
        assert!(v < self.nodes, "node {v} out of range");
        assert!(dim < self.dims, "dimension {dim} out of range");
        let base = self.side.pow(dim);
        let c = (v / base) % self.side;
        let s = self.side as i64;
        let nc = (c as i64 + delta).rem_euclid(s) as u64;
        v - c * base + nc * base
    }

    /// Minimal signed displacement in dimension `dim` from `from` to `to`.
    pub fn displacement(&self, from: NodeId, to: NodeId, dim: u32) -> i64 {
        signed_wrap(
            self.coord(to, dim) as i64 - self.coord(from, dim) as i64,
            self.side as i64,
        )
    }

    /// L1 torus distance.
    pub fn torus_distance(&self, a: NodeId, b: NodeId) -> u64 {
        (0..self.dims)
            .map(|d| self.displacement(a, b, d).unsigned_abs())
            .sum()
    }
}

impl Topology for TorusKd {
    #[inline]
    fn num_nodes(&self) -> u64 {
        self.nodes
    }

    #[inline]
    fn degree(&self, v: NodeId) -> usize {
        assert!(v < self.nodes, "node {v} out of range");
        2 * self.dims as usize
    }

    // Degree 2k is a power of two whenever k is; the generic
    // `random_neighbor` default already reduces to a bitmask draw in
    // that case (the vendored sampler special-cases power-of-two spans),
    // so no per-type override is needed here.
    #[inline]
    fn neighbor(&self, v: NodeId, i: usize) -> NodeId {
        assert!(i < 2 * self.dims as usize, "move index {i} out of range");
        let dim = (i / 2) as u32;
        let delta = if i.is_multiple_of(2) { 1 } else { -1 };
        self.offset(v, dim, delta)
    }

    #[inline]
    fn regular_degree(&self) -> Option<usize> {
        Some(2 * self.dims as usize)
    }
}

/// The ring (cycle) on `A` nodes — the 1-dimensional torus of Section 4.2.
///
/// Moves are `[+1, −1]` with wrap-around.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ring {
    nodes: u64,
}

impl Ring {
    /// Creates a ring with `nodes` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `nodes == 0`.
    pub fn new(nodes: u64) -> Self {
        assert!(nodes > 0, "ring needs at least one node");
        Self { nodes }
    }

    /// Minimal signed displacement from `from` to `to`.
    pub fn displacement(&self, from: NodeId, to: NodeId) -> i64 {
        assert!(from < self.nodes && to < self.nodes, "node out of range");
        signed_wrap(to as i64 - from as i64, self.nodes as i64)
    }
}

impl Topology for Ring {
    #[inline]
    fn num_nodes(&self) -> u64 {
        self.nodes
    }

    #[inline]
    fn degree(&self, v: NodeId) -> usize {
        assert!(v < self.nodes, "node {v} out of range");
        2
    }

    /// Unit moves wrap by at most one period, so the modular reduction
    /// is a branchless compare/select — no division on the hot path.
    #[inline]
    fn neighbor(&self, v: NodeId, i: usize) -> NodeId {
        assert!(i < 2, "move index {i} out of range");
        assert!(v < self.nodes, "node {v} out of range");
        let s = self.nodes;
        if i == 0 {
            if v + 1 == s {
                0
            } else {
                v + 1
            }
        } else if v == 0 {
            s - 1
        } else {
            v - 1
        }
    }

    /// Bitmask fast path: degree 2 means the move index is one raw RNG
    /// bit — the same bit `gen_range(0..2)` consumes, so the draw stream
    /// is unchanged.
    #[inline]
    fn random_neighbor<R: rand::RngCore + ?Sized>(&self, v: NodeId, rng: &mut R) -> NodeId {
        self.neighbor(v, (rng.next_u64() & 1) as usize)
    }

    /// Branchless batched stepping: `−1 ≡ +(nodes−1) mod nodes`, so each
    /// agent is one table load and an add-compare-subtract wrap.
    #[inline]
    fn apply_moves(&self, positions: &mut [u32], moves: &[u32]) {
        assert_eq!(positions.len(), moves.len(), "one move per position");
        let s = self.nodes;
        let delta = [1u64, s - 1];
        for (p, &i) in positions.iter_mut().zip(moves) {
            let v = *p as u64;
            debug_assert!(v < s, "node {v} out of range");
            debug_assert!((i as usize) < 2, "move index {i} out of range");
            let mut n = v + delta[i as usize & 1];
            if n >= s {
                n -= s;
            }
            *p = n as u32;
        }
    }

    #[inline]
    fn regular_degree(&self) -> Option<usize> {
        Some(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn torus2d_roundtrip_coords() {
        let t = Torus2d::new(5);
        for v in 0..t.num_nodes() {
            let (x, y) = t.coord(v);
            assert_eq!(t.node(x, y), v);
        }
    }

    #[test]
    fn torus2d_neighbors_wrap() {
        let t = Torus2d::new(4);
        let corner = t.node(3, 3);
        assert_eq!(t.neighbor(corner, 0), t.node(0, 3)); // x+1 wraps
        assert_eq!(t.neighbor(corner, 2), t.node(3, 0)); // y+1 wraps
        let origin = t.node(0, 0);
        assert_eq!(t.neighbor(origin, 1), t.node(3, 0)); // x-1 wraps
        assert_eq!(t.neighbor(origin, 3), t.node(0, 3)); // y-1 wraps
    }

    #[test]
    fn torus2d_neighbors_are_symmetric() {
        // u in N(v) iff v in N(u), with equal multiplicity.
        let t = Torus2d::new(4);
        for v in 0..t.num_nodes() {
            for u in t.neighbors(v) {
                let back = t.neighbors(u).filter(|&w| w == v).count();
                let forth = t.neighbors(v).filter(|&w| w == u).count();
                assert_eq!(back, forth, "asymmetry between {v} and {u}");
            }
        }
    }

    #[test]
    fn torus2d_displacement_signs() {
        let t = Torus2d::new(10);
        assert_eq!(t.displacement(t.node(0, 0), t.node(1, 0)), (1, 0));
        assert_eq!(t.displacement(t.node(0, 0), t.node(9, 0)), (-1, 0));
        assert_eq!(t.displacement(t.node(0, 0), t.node(0, 6)), (0, -4));
        // half-way point maps to +side/2
        assert_eq!(t.displacement(t.node(0, 0), t.node(5, 0)), (5, 0));
    }

    #[test]
    fn torus2d_distance_triangle_inequality_spot() {
        let t = Torus2d::new(7);
        let (a, b, c) = (t.node(1, 1), t.node(5, 2), t.node(3, 6));
        assert!(t.torus_distance(a, c) <= t.torus_distance(a, b) + t.torus_distance(b, c));
        assert_eq!(t.torus_distance(a, a), 0);
        assert_eq!(t.torus_distance(a, b), t.torus_distance(b, a));
    }

    #[test]
    fn torus2d_side_one_all_self_loops() {
        let t = Torus2d::new(1);
        assert_eq!(t.num_nodes(), 1);
        for i in 0..4 {
            assert_eq!(t.neighbor(0, i), 0);
        }
    }

    #[test]
    fn torus2d_side_two_duplicate_moves() {
        let t = Torus2d::new(2);
        // +x and -x from (0,0) both land on (1,0)
        assert_eq!(t.neighbor(0, 0), t.neighbor(0, 1));
        assert_eq!(t.degree(0), 4);
    }

    #[test]
    fn torus_kd_matches_2d_special_case() {
        let t2 = Torus2d::new(6);
        let tk = TorusKd::new(2, 6);
        assert_eq!(t2.num_nodes(), tk.num_nodes());
        for v in 0..t2.num_nodes() {
            // Same move set, as sets (ordering differs: [x+1,x-1,y+1,y-1]).
            let mut a: Vec<NodeId> = t2.neighbors(v).collect();
            let mut b: Vec<NodeId> = tk.neighbors(v).collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "node {v}");
        }
    }

    #[test]
    fn torus_kd_coord_roundtrip() {
        let t = TorusKd::new(3, 4);
        assert_eq!(t.num_nodes(), 64);
        for v in 0..t.num_nodes() {
            assert_eq!(t.node(&t.coords(v)), v);
        }
    }

    #[test]
    fn torus_kd_neighbor_changes_one_dim() {
        let t = TorusKd::new(4, 5);
        let v = t.node(&[1, 2, 3, 4]);
        for i in 0..t.degree(v) {
            let u = t.neighbor(v, i);
            let diffs: Vec<u32> = (0..4).filter(|&d| t.coord(u, d) != t.coord(v, d)).collect();
            assert_eq!(diffs.len(), 1, "move {i} changed {} dims", diffs.len());
            assert_eq!(t.displacement(v, u, diffs[0]).abs(), 1);
        }
    }

    #[test]
    fn torus_kd_degree_is_2k() {
        assert_eq!(TorusKd::new(3, 10).regular_degree(), Some(6));
        assert_eq!(TorusKd::new(5, 3).regular_degree(), Some(10));
    }

    #[test]
    fn ring_wraps_both_ways() {
        let r = Ring::new(5);
        assert_eq!(r.neighbor(4, 0), 0);
        assert_eq!(r.neighbor(0, 1), 4);
        assert_eq!(r.displacement(0, 3), -2);
        assert_eq!(r.displacement(0, 2), 2);
    }

    #[test]
    fn ring_matches_torus_kd_1d() {
        let r = Ring::new(8);
        let t = TorusKd::new(1, 8);
        for v in 0..8 {
            let mut a: Vec<NodeId> = r.neighbors(v).collect();
            let mut b: Vec<NodeId> = t.neighbors(v).collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn bipartite_structure_of_even_torus() {
        // On an even-sided torus a walk alternates between parities: the
        // paper notes the torus is bipartite. One step always changes
        // coordinate-sum parity.
        let t = Torus2d::new(6);
        for v in 0..t.num_nodes() {
            let (x, y) = t.coord(v);
            for u in t.neighbors(v) {
                let (ux, uy) = t.coord(u);
                assert_ne!((x + y) % 2, (ux + uy) % 2);
            }
        }
    }

    #[test]
    #[should_panic(expected = "side must be positive")]
    fn zero_side_panics() {
        let _ = Torus2d::new(0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_node_panics() {
        let t = Torus2d::new(3);
        let _ = t.coord(9);
    }

    #[test]
    #[should_panic(expected = "overflows")]
    fn giant_kd_torus_overflows() {
        let _ = TorusKd::new(10, 1 << 32);
    }
}
