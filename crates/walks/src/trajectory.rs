//! Full-path recording.
//!
//! Several of the paper's statements condition on an agent's walk `W`
//! (Lemma 4's re-collision bound "conditioned on the random walk taken by
//! one of the agents", Lemma 11's moments "conditioned on W"). The
//! experiments that verify them need explicit paths; [`Trajectory`]
//! records one and exposes the per-axis step counters `Mx`, `My` that the
//! proof of Lemma 9 works with.

use antdensity_engine::MovementModel;
use antdensity_graphs::{NodeId, Topology, Torus2d};
use rand::RngCore;

/// A recorded walk: positions at rounds `0..=t` (index 0 is the start).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trajectory {
    nodes: Vec<NodeId>,
}

impl Trajectory {
    /// Records a `t`-round walk from `start` under `model`.
    pub fn record<T: Topology>(
        topo: &T,
        start: NodeId,
        t: u64,
        model: &MovementModel,
        rng: &mut dyn RngCore,
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

    /// Builds a trajectory from explicit positions.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is empty.
    pub fn from_nodes(nodes: Vec<NodeId>) -> Self {
        assert!(!nodes.is_empty(), "trajectory needs at least the start");
        Self { nodes }
    }

    /// Number of rounds walked (`len − 1` positions after the start).
    pub fn rounds(&self) -> u64 {
        (self.nodes.len() - 1) as u64
    }

    /// Position at round `r` (`r = 0` is the start).
    ///
    /// # Panics
    ///
    /// Panics if `r` exceeds [`Trajectory::rounds`].
    pub fn position_at(&self, r: u64) -> NodeId {
        self.nodes[r as usize]
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

    /// Rounds `r ≥ 1` at which this walk and `other` share a node (the
    /// collision rounds between two recorded agents).
    ///
    /// # Panics
    ///
    /// Panics if the trajectories have different lengths.
    pub fn collision_rounds(&self, other: &Trajectory) -> Vec<u64> {
        assert_eq!(
            self.nodes.len(),
            other.nodes.len(),
            "trajectories must cover the same rounds"
        );
        self.nodes
            .iter()
            .zip(&other.nodes)
            .enumerate()
            .skip(1)
            .filter(|(_, (a, b))| a == b)
            .map(|(r, _)| r as u64)
            .collect()
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

#[cfg(test)]
mod tests {
    use super::*;
    use antdensity_graphs::Ring;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn record_has_t_plus_one_positions() {
        let topo = Torus2d::new(8);
        let mut rng = SmallRng::seed_from_u64(1);
        let tr = Trajectory::record(&topo, 0, 10, &MovementModel::Pure, &mut rng);
        assert_eq!(tr.rounds(), 10);
        assert_eq!(tr.nodes().len(), 11);
        assert_eq!(tr.start(), 0);
        assert_eq!(tr.position_at(0), 0);
    }

    #[test]
    fn consecutive_positions_are_adjacent() {
        let topo = Torus2d::new(8);
        let mut rng = SmallRng::seed_from_u64(2);
        let tr = Trajectory::record(&topo, 5, 50, &MovementModel::Pure, &mut rng);
        for w in tr.nodes().windows(2) {
            assert_eq!(topo.torus_distance(w[0], w[1]), 1);
        }
    }

    #[test]
    fn axis_steps_sum_to_rounds_for_pure_walk() {
        let topo = Torus2d::new(16);
        let mut rng = SmallRng::seed_from_u64(3);
        let tr = Trajectory::record(&topo, 0, 200, &MovementModel::Pure, &mut rng);
        let (mx, my) = tr.axis_step_counts(&topo);
        assert_eq!(mx + my, 200);
        // Lemma 9: both are Theta(t) whp; 5-sigma band around t/2 = 100.
        assert!((mx as f64 - 100.0).abs() < 5.0 * (200.0f64 * 0.25).sqrt() + 1.0);
    }

    #[test]
    fn lazy_walk_axis_steps_below_rounds() {
        let topo = Torus2d::new(16);
        let mut rng = SmallRng::seed_from_u64(4);
        let tr = Trajectory::record(&topo, 0, 100, &MovementModel::lazy(0.5), &mut rng);
        let (mx, my) = tr.axis_step_counts(&topo);
        assert!(mx + my < 100);
    }

    #[test]
    fn collision_rounds_symmetric_and_correct() {
        let a = Trajectory::from_nodes(vec![0, 1, 2, 3, 2]);
        let b = Trajectory::from_nodes(vec![5, 1, 7, 3, 2]);
        assert_eq!(a.collision_rounds(&b), vec![1, 3, 4]);
        assert_eq!(b.collision_rounds(&a), vec![1, 3, 4]);
        // round 0 shared start would NOT count (paper counts per-round
        // collisions after moving)
        let c = Trajectory::from_nodes(vec![0, 9]);
        let d = Trajectory::from_nodes(vec![0, 8]);
        assert!(c.collision_rounds(&d).is_empty());
    }

    #[test]
    fn equalizations_counted() {
        let tr = Trajectory::from_nodes(vec![4, 5, 4, 3, 4]);
        assert_eq!(tr.equalizations(), 2);
        assert_eq!(tr.distinct_range(), 3);
    }

    #[test]
    fn drift_on_ring_never_equalizes_prematurely() {
        let ring = Ring::new(10);
        let mut rng = SmallRng::seed_from_u64(5);
        let tr = Trajectory::record(
            &ring,
            0,
            9,
            &MovementModel::Drift { move_index: 0 },
            &mut rng,
        );
        assert_eq!(tr.equalizations(), 0);
        assert_eq!(tr.distinct_range(), 10);
        assert_eq!(tr.end(), 9);
    }

    #[test]
    #[should_panic(expected = "same rounds")]
    fn collision_rounds_length_checked() {
        let a = Trajectory::from_nodes(vec![0, 1]);
        let b = Trajectory::from_nodes(vec![0, 1, 2]);
        let _ = a.collision_rounds(&b);
    }

    #[test]
    #[should_panic(expected = "illegal hop")]
    fn axis_steps_reject_teleports() {
        let topo = Torus2d::new(8);
        let tr = Trajectory::from_nodes(vec![0, 20]);
        let _ = tr.axis_step_counts(&topo);
    }
}
