//! Test support shared by the integration tests: a recorded walk and the
//! collision count against a fixed focal path.
//!
//! Several of the paper's statements condition on an agent's walk `W`
//! (Lemma 4's re-collision bound "conditioned on the random walk taken by
//! one of the agents", Lemma 11's moments "conditioned on W"). The tests
//! that check them need explicit paths; [`Trajectory`] records one and
//! exposes the per-axis step counters `Mx`, `My` that the proof of
//! Lemma 9 works with. The crate's own unit tests of this code live in
//! `src/pairwise.rs` and `src/trajectory.rs`.

#![allow(dead_code)]

use antdensity_engine::MovementModel;
use antdensity_graphs::{NodeId, Topology, Torus2d};
use rand::RngCore;

/// A recorded walk: positions at rounds `0..=t` (index 0 is the start).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trajectory {
    pub(crate) nodes: Vec<NodeId>,
}

impl Trajectory {
    /// Records a `t`-round walk from `start` under `model`.
    pub fn record<T: Topology, R: RngCore>(
        topo: &T,
        start: NodeId,
        t: u64,
        model: &MovementModel,
        rng: &mut R,
    ) -> Self {
        let mut nodes = Vec::with_capacity(t as usize + 1);
        let mut v = start;
        nodes.push(v);
        for _ in 0..t {
            v = model.step(topo, v, rng);
            nodes.push(v);
        }
        Self { nodes }
    }

    /// Number of rounds walked (`len − 1` positions after the start).
    pub fn rounds(&self) -> u64 {
        (self.nodes.len() - 1) as u64
    }

    /// The start position.
    pub fn start(&self) -> NodeId {
        self.nodes[0]
    }

    /// The final position.
    pub fn end(&self) -> NodeId {
        *self.nodes.last().expect("non-empty")
    }

    /// All positions, rounds `0..=t`.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Number of equalizations (returns to the start at rounds ≥ 1).
    pub fn equalizations(&self) -> u64 {
        let s = self.start();
        self.nodes[1..].iter().filter(|&&v| v == s).count() as u64
    }

    /// Number of distinct nodes touched (the walk's range).
    pub fn distinct_range(&self) -> u64 {
        let set: std::collections::HashSet<NodeId> = self.nodes.iter().copied().collect();
        set.len() as u64
    }

    /// Per-axis step counts `(Mx, My)` on a 2-d torus: how many rounds
    /// moved in x and in y (stationary rounds count toward neither).
    /// These are the conditioning variables of Lemma 5 / Lemma 9.
    ///
    /// # Panics
    ///
    /// Panics if any hop is not a legal single-round torus move.
    pub fn axis_step_counts(&self, torus: &Torus2d) -> (u64, u64) {
        let mut mx = 0;
        let mut my = 0;
        for w in self.nodes.windows(2) {
            let (dx, dy) = torus.displacement(w[0], w[1]);
            match (dx.abs(), dy.abs()) {
                (1, 0) => mx += 1,
                (0, 1) => my += 1,
                (0, 0) => {}
                _ => panic!("illegal hop {:?} -> {:?}", w[0], w[1]),
            }
        }
        (mx, my)
    }
}

/// Samples the collision count against a *fixed* focal path (the paper
/// conditions on the focal agent's walk `W` in Lemmas 4/11): the other
/// agent starts uniform and walks `path.len()−1` rounds; returns the
/// number of rounds `r ≥ 1` with matching positions.
pub fn collision_count_against_path<T: Topology>(
    topo: &T,
    path: &[NodeId],
    rng: &mut dyn RngCore,
) -> u64 {
    assert!(!path.is_empty(), "path must contain the start position");
    let mut b = topo.uniform_node(rng);
    let mut c = 0u64;
    for &focal_pos in &path[1..] {
        b = topo.random_neighbor(b, rng);
        if b == focal_pos {
            c += 1;
        }
    }
    c
}
