//! Dense occupancy buffers with touched-node reset lists.
//!
//! The paper's sensing primitive `count(position)` needs, every round, the
//! number of agents at each occupied node. A `HashMap<NodeId, u32>` rebuilt
//! per round costs a hash + allocation-churn per agent; with N agents on A
//! nodes the occupied set is at most `min(N, A)` nodes, so a flat
//! `Vec<u32>` indexed by node plus a *touched list* gives O(1) increments,
//! O(1) queries, and O(touched) resets — no hashing, no rehashing, and the
//! buffers are reused across rounds.
//!
//! [`GroupOccupancy`] is the per-property-group variant (Section 5.2's
//! "separately track encounters" sensing) stored as one flat
//! `groups × nodes` buffer with its own touched list.

use antdensity_graphs::NodeId;

/// Maximum node count the dense engine supports (positions are `u32`).
pub const MAX_NODES: u64 = u32::MAX as u64;

/// Agent-count floor for the tile-blocked rebuild: below this the two
/// partition passes cost more than the scattered increments they avoid.
const BLOCKED_REBUILD_MIN_AGENTS: usize = 1 << 18;

/// Agent-count floor for the engine's cache-blocked pure-walk round
/// (whole-round move buffer, tiled gather, then this module's blocked
/// rebuild). It is bit-identical to the per-block round, so the floor
/// moves wall clock only.
pub const BLOCKED_ROUND_MIN_AGENTS: usize = 1 << 18;

/// Node-count floor for the tile-blocked rebuild: below this the counts
/// array is L2-resident and scattered increments are already cheap.
const BLOCKED_REBUILD_MIN_NODES: usize = 1 << 17;

/// Nodes per rebuild tile (`1 << REBUILD_TILE_SHIFT`): 16k nodes keep
/// one tile's `u32` counts in 64 KiB, comfortably inside L2 alongside
/// the streamed partition buffers.
const REBUILD_TILE_SHIFT: u32 = 14;

/// Per-node agent counts for one round, reset via a touched list.
#[derive(Debug, Clone, Default)]
pub struct DenseOccupancy {
    counts: Vec<u32>,
    touched: Vec<u32>,
    /// Counting-sort buffers for the tile-blocked rebuild (empty until
    /// the first large rebuild; reused across rounds).
    tile_counts: Vec<u32>,
    tile_sorted: Vec<u32>,
}

impl DenseOccupancy {
    /// Creates a zeroed occupancy buffer over `num_nodes` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `num_nodes` exceeds [`MAX_NODES`].
    pub fn new(num_nodes: u64) -> Self {
        assert!(
            num_nodes <= MAX_NODES,
            "dense engine supports at most {MAX_NODES} nodes, got {num_nodes}"
        );
        Self {
            counts: vec![0; num_nodes as usize],
            touched: Vec::new(),
            tile_counts: Vec::new(),
            tile_sorted: Vec::new(),
        }
    }

    /// Number of nodes covered.
    pub fn num_nodes(&self) -> usize {
        self.counts.len()
    }

    /// Zeroes every touched node and clears the touched list. O(occupied).
    pub fn clear(&mut self) {
        for &v in &self.touched {
            self.counts[v as usize] = 0;
        }
        self.touched.clear();
    }

    /// Adds one agent at `node`.
    #[inline]
    pub fn record(&mut self, node: u32) {
        let c = &mut self.counts[node as usize];
        if *c == 0 {
            self.touched.push(node);
        }
        *c += 1;
    }

    /// Resets and re-counts from a position array.
    ///
    /// Large rebuilds (mega-scale populations over node sets whose
    /// counts array exceeds L2) automatically take a tile-blocked path:
    /// positions are counting-sorted into 16k-node tiles first, so the
    /// per-node increments of one tile hit a cache-resident window
    /// instead of scattering across the whole array. Counts are
    /// identical either way; only the order of [`DenseOccupancy::touched`]
    /// differs (first-touch vs tile-major).
    pub fn rebuild(&mut self, positions: &[u32]) {
        self.clear();
        if positions.len() >= BLOCKED_REBUILD_MIN_AGENTS
            && self.counts.len() >= BLOCKED_REBUILD_MIN_NODES
        {
            self.rebuild_tiled(positions, REBUILD_TILE_SHIFT);
            return;
        }
        for &p in positions {
            self.record(p);
        }
    }

    /// The tile-blocked rebuild core: counting-sort `positions` by node
    /// tile, then record tile by tile. Counts match the plain loop
    /// exactly; `touched` holds the same set in tile-major order.
    /// Caller must have cleared first.
    fn rebuild_tiled(&mut self, positions: &[u32], tile_shift: u32) {
        assert!(
            positions.len() <= u32::MAX as usize,
            "tile cursors are u32; rebuild of {} agents overflows",
            positions.len()
        );
        let num_tiles = ((self.counts.len().max(1) - 1) >> tile_shift) + 1;
        self.tile_counts.clear();
        self.tile_counts.resize(num_tiles, 0);
        for &p in positions {
            self.tile_counts[(p >> tile_shift) as usize] += 1;
        }
        let mut cursors = Vec::with_capacity(num_tiles);
        let mut acc = 0u32;
        for &c in &self.tile_counts {
            cursors.push(acc);
            acc += c;
        }
        self.tile_sorted.clear();
        self.tile_sorted.resize(positions.len(), 0);
        for &p in positions {
            let cursor = &mut cursors[(p >> tile_shift) as usize];
            self.tile_sorted[*cursor as usize] = p;
            *cursor += 1;
        }
        // Same-set-of-increments as the plain loop, grouped so one
        // tile's counts window stays hot.
        for &p in &self.tile_sorted {
            let c = &mut self.counts[p as usize];
            if *c == 0 {
                self.touched.push(p);
            }
            *c += 1;
        }
    }

    /// Agents at `node` this round; 0 for any node (in or out of range).
    #[inline]
    pub fn count(&self, node: NodeId) -> u32 {
        self.counts.get(node as usize).copied().unwrap_or(0)
    }

    /// Number of distinct occupied nodes.
    pub fn occupied_nodes(&self) -> usize {
        self.touched.len()
    }

    /// The distinct occupied nodes. Order is unspecified: first-touch
    /// for small rebuilds and direct [`DenseOccupancy::record`] use,
    /// tile-major when a large rebuild takes the blocked path.
    pub fn touched(&self) -> &[u32] {
        &self.touched
    }
}

/// Per-group per-node agent counts as one flat `groups × nodes` buffer.
#[derive(Debug, Clone, Default)]
pub struct GroupOccupancy {
    num_nodes: usize,
    num_groups: usize,
    counts: Vec<u32>,
    touched: Vec<usize>,
}

impl GroupOccupancy {
    /// Creates an empty buffer (no groups yet) over `num_nodes` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `num_nodes` exceeds [`MAX_NODES`].
    pub fn new(num_nodes: u64) -> Self {
        assert!(
            num_nodes <= MAX_NODES,
            "dense engine supports at most {MAX_NODES} nodes, got {num_nodes}"
        );
        Self {
            num_nodes: num_nodes as usize,
            num_groups: 0,
            counts: Vec::new(),
            touched: Vec::new(),
        }
    }

    /// Number of declared groups.
    pub fn num_groups(&self) -> usize {
        self.num_groups
    }

    /// Grows the buffer so groups `0..count` exist. Existing counts and
    /// touched indices stay valid (the layout is group-major).
    pub fn ensure_groups(&mut self, count: usize) {
        if count > self.num_groups {
            self.num_groups = count;
            self.counts.resize(count * self.num_nodes, 0);
        }
    }

    /// Zeroes every touched slot. O(touched).
    pub fn clear(&mut self) {
        for &i in &self.touched {
            self.counts[i] = 0;
        }
        self.touched.clear();
    }

    /// Adds one agent of `group` at `node`.
    ///
    /// # Panics
    ///
    /// Panics if `group` was never declared or `node` is out of range
    /// (the flat layout would otherwise alias the write into a
    /// neighboring group's region).
    #[inline]
    pub fn record(&mut self, group: usize, node: u32) {
        assert!(group < self.num_groups, "group {group} unassigned");
        assert!((node as usize) < self.num_nodes, "node {node} out of range");
        let i = group * self.num_nodes + node as usize;
        let c = &mut self.counts[i];
        if *c == 0 {
            self.touched.push(i);
        }
        *c += 1;
    }

    /// Resets and re-counts from positions and group assignments
    /// (`groups[agent]` is `None` for group-less agents).
    pub fn rebuild(&mut self, positions: &[u32], groups: &[Option<usize>]) {
        self.clear();
        for (&p, g) in positions.iter().zip(groups) {
            if let Some(g) = *g {
                self.record(g, p);
            }
        }
    }

    /// Agents of `group` at every node this round, indexed by node.
    ///
    /// # Panics
    ///
    /// Panics if `group` was never declared.
    pub(crate) fn group_counts(&self, group: usize) -> &[u32] {
        assert!(group < self.num_groups, "group {group} unassigned");
        &self.counts[group * self.num_nodes..][..self.num_nodes]
    }

    /// Agents of `group` at `node` this round; 0 for an out-of-range
    /// node (same contract as [`DenseOccupancy::count`] — the flat layout
    /// must not let a wild node index read a neighboring group's region).
    ///
    /// # Panics
    ///
    /// Panics if `group` was never declared.
    #[inline]
    pub fn count(&self, group: usize, node: NodeId) -> u32 {
        assert!(group < self.num_groups, "group {group} unassigned");
        if node >= self.num_nodes as u64 {
            return 0;
        }
        self.counts[group * self.num_nodes + node as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_count() {
        let mut occ = DenseOccupancy::new(16);
        occ.record(3);
        occ.record(3);
        occ.record(9);
        assert_eq!(occ.count(3), 2);
        assert_eq!(occ.count(9), 1);
        assert_eq!(occ.count(0), 0);
        assert_eq!(occ.count(1_000_000), 0);
        assert_eq!(occ.occupied_nodes(), 2);
        assert_eq!(occ.touched(), &[3, 9]);
    }

    #[test]
    fn clear_is_complete() {
        let mut occ = DenseOccupancy::new(8);
        for p in [0u32, 1, 1, 7] {
            occ.record(p);
        }
        occ.clear();
        for v in 0..8 {
            assert_eq!(occ.count(v), 0);
        }
        assert_eq!(occ.occupied_nodes(), 0);
    }

    #[test]
    fn rebuild_matches_positions() {
        let mut occ = DenseOccupancy::new(8);
        occ.rebuild(&[2, 2, 5]);
        occ.rebuild(&[1, 1, 1, 4]);
        assert_eq!(occ.count(1), 3);
        assert_eq!(occ.count(2), 0);
        assert_eq!(occ.count(4), 1);
        assert_eq!(occ.occupied_nodes(), 2);
    }

    #[test]
    fn tiled_rebuild_counts_match_plain_exactly() {
        // Force tiny tiles (shift 2 → 4-node tiles over 37 nodes, ragged
        // last tile) and compare against the plain record loop: counts
        // identical per node, touched the same set (order may differ).
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        for seed in 0..5u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let positions: Vec<u32> = (0..10_000)
                .map(|_| rng.gen_range(0..37u64) as u32)
                .collect();
            let mut plain = DenseOccupancy::new(37);
            plain.rebuild(&positions);
            let mut tiled = DenseOccupancy::new(37);
            tiled.clear();
            tiled.rebuild_tiled(&positions, 2);
            for v in 0..37 {
                assert_eq!(tiled.count(v), plain.count(v), "node {v} seed {seed}");
            }
            let mut a: Vec<u32> = plain.touched().to_vec();
            let mut b: Vec<u32> = tiled.touched().to_vec();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
            // The blocked buffers reset correctly for reuse.
            tiled.rebuild(&positions[..100]);
            let mut small = DenseOccupancy::new(37);
            small.rebuild(&positions[..100]);
            for v in 0..37 {
                assert_eq!(tiled.count(v), small.count(v));
            }
        }
    }

    #[test]
    fn group_occupancy_tracks_per_group() {
        let mut g = GroupOccupancy::new(8);
        g.ensure_groups(2);
        g.rebuild(&[3, 3, 4, 3], &[Some(0), Some(1), Some(0), None]);
        assert_eq!(g.count(0, 3), 1);
        assert_eq!(g.count(1, 3), 1);
        assert_eq!(g.count(0, 4), 1);
        assert_eq!(g.count(1, 4), 0);
        g.rebuild(&[0, 0, 0, 0], &[Some(0), Some(1), Some(0), None]);
        assert_eq!(g.count(0, 3), 0);
        assert_eq!(g.count(0, 0), 2);
    }

    #[test]
    fn group_growth_preserves_counts() {
        let mut g = GroupOccupancy::new(4);
        g.ensure_groups(1);
        g.record(0, 2);
        g.ensure_groups(3);
        assert_eq!(g.count(0, 2), 1);
        assert_eq!(g.count(2, 2), 0);
        assert_eq!(g.num_groups(), 3);
    }

    #[test]
    fn group_out_of_range_node_reads_zero_not_next_group() {
        // Flat group-major layout: group 0's region is followed by group
        // 1's, so an unchecked wild node index would alias into it.
        let mut g = GroupOccupancy::new(100);
        g.ensure_groups(2);
        g.record(1, 20); // lives at flat index 1*100 + 20 = 120
        assert_eq!(g.count(0, 120), 0); // must NOT see group 1's node 20
        assert_eq!(g.count(1, 20), 1);
        assert_eq!(g.count(0, u64::MAX), 0);
    }

    #[test]
    #[should_panic(expected = "unassigned")]
    fn undeclared_group_panics() {
        let g = GroupOccupancy::new(4);
        let _ = g.count(0, 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn group_record_rejects_out_of_range_node() {
        let mut g = GroupOccupancy::new(100);
        g.ensure_groups(2);
        g.record(0, 120); // would alias into group 1's region
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn too_many_nodes_rejected() {
        let _ = DenseOccupancy::new(u64::MAX);
    }
}
