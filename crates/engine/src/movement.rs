//! Agent movement models.
//!
//! The paper's agents move by **pure random walk** — a uniformly random
//! neighbor each round (Section 2). Section 6.1 discusses extensions this
//! module also provides: staying put with some probability (lazy walks),
//! non-uniform step distributions (perturbed/biased behaviour), and the
//! two deterministic modes used by the independent-sampling Algorithm 4
//! (Appendix A): stationary agents and agents drifting along a fixed
//! direction.

use antdensity_graphs::{NodeId, Topology};
use rand::Rng;
use rand::RngCore;

/// How an agent chooses its move each round.
#[derive(Debug, Clone, PartialEq)]
pub enum MovementModel {
    /// The paper's default: step to a uniformly random neighbor.
    Pure,
    /// With probability `stay_prob` remain in place, otherwise step to a
    /// uniformly random neighbor. (The paper's step set includes `(0,0)`;
    /// a lazy walk also breaks the torus' bipartite periodicity.)
    Lazy {
        /// Probability of staying put in a round.
        stay_prob: f64,
    },
    /// Never move — the "stationary" half of Algorithm 4.
    Stationary,
    /// Always take the move with this index — the "mobile" half of
    /// Algorithm 4 (on [`antdensity_graphs::Torus2d`], index 2 is the
    /// paper's `position + (0, 1)`). Any fixed pattern works, as the
    /// paper notes.
    Drift {
        /// Move index taken every round.
        move_index: usize,
    },
    /// Arbitrary distribution over the moves plus staying put — the
    /// perturbed-step robustness model of Section 6.1. `move_probs[i]` is
    /// the probability of move `i`; the remainder `1 − Σ move_probs` is
    /// the stay probability. Requires a regular topology whose degree
    /// equals `move_probs.len()`.
    Biased {
        /// Probability of each move index; must sum to at most 1.
        move_probs: Vec<f64>,
    },
}

impl std::fmt::Display for MovementModel {
    /// Canonical spec-file syntax: `pure`, `lazy:<stay_prob>`,
    /// `stationary`, `drift:<move_index>`, `biased:<p0>,<p1>,…`.
    /// Round-trips through [`FromStr`](std::str::FromStr).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Pure => write!(f, "pure"),
            Self::Lazy { stay_prob } => write!(f, "lazy:{stay_prob}"),
            Self::Stationary => write!(f, "stationary"),
            Self::Drift { move_index } => write!(f, "drift:{move_index}"),
            Self::Biased { move_probs } => {
                write!(f, "biased:")?;
                for (i, p) in move_probs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{p}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::str::FromStr for MovementModel {
    type Err = String;

    /// Parses the [`Display`](std::fmt::Display) syntax (the sweep
    /// spec-file axis format). Validates the same invariants as the
    /// builder methods, returning `Err` instead of panicking.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        match s {
            "pure" => return Ok(Self::Pure),
            "stationary" => return Ok(Self::Stationary),
            _ => {}
        }
        if let Some(arg) = s.strip_prefix("lazy:") {
            let stay_prob: f64 = arg
                .trim()
                .parse()
                .map_err(|_| format!("movement `{s}`: bad stay probability `{arg}`"))?;
            if !(0.0..=1.0).contains(&stay_prob) {
                return Err(format!("movement `{s}`: stay probability outside [0,1]"));
            }
            return Ok(Self::Lazy { stay_prob });
        }
        if let Some(arg) = s.strip_prefix("drift:") {
            let move_index: usize = arg
                .trim()
                .parse()
                .map_err(|_| format!("movement `{s}`: bad move index `{arg}`"))?;
            return Ok(Self::Drift { move_index });
        }
        if let Some(arg) = s.strip_prefix("biased:") {
            let move_probs: Vec<f64> = arg
                .split(',')
                .map(|p| {
                    p.trim()
                        .parse::<f64>()
                        .map_err(|_| format!("movement `{s}`: bad probability `{p}`"))
                })
                .collect::<Result<_, _>>()?;
            if move_probs.iter().any(|&p| p < 0.0) {
                return Err(format!(
                    "movement `{s}`: probabilities must be non-negative"
                ));
            }
            let total: f64 = move_probs.iter().sum();
            if total > 1.0 + 1e-9 {
                return Err(format!("movement `{s}`: probabilities sum to {total} > 1"));
            }
            return Ok(Self::Biased { move_probs });
        }
        Err(format!(
            "unknown movement `{s}` (expected pure, lazy:<p>, stationary, drift:<i>, biased:<p0>,…)"
        ))
    }
}

impl MovementModel {
    /// A lazy walk staying put with probability `stay_prob`.
    ///
    /// # Panics
    ///
    /// Panics if `stay_prob ∉ [0, 1]`.
    pub fn lazy(stay_prob: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&stay_prob),
            "stay probability must lie in [0,1]"
        );
        Self::Lazy { stay_prob }
    }

    /// A biased walk over move indices; the unassigned remainder of the
    /// probability mass is the stay probability.
    ///
    /// # Panics
    ///
    /// Panics if any probability is negative or the sum exceeds 1 + 1e-9.
    pub fn biased(move_probs: Vec<f64>) -> Self {
        assert!(
            move_probs.iter().all(|&p| p >= 0.0),
            "move probabilities must be non-negative"
        );
        let total: f64 = move_probs.iter().sum();
        assert!(total <= 1.0 + 1e-9, "move probabilities sum to {total} > 1");
        Self::Biased { move_probs }
    }

    /// Executes one round of movement from `v` on `topo`.
    ///
    /// Generic over both the topology and the RNG: with concrete types
    /// the entire draw (walk step, lazy coin, biased scan) monomorphizes
    /// with zero virtual dispatch, while `&mut dyn RngCore` callers keep
    /// working (`R = dyn RngCore`) and consume the identical bit-stream.
    ///
    /// # Panics
    ///
    /// Panics if a `Drift` index is out of range for `v`'s degree, or a
    /// `Biased` probability vector length differs from `v`'s degree.
    #[inline]
    pub fn step<T: Topology, R: RngCore + ?Sized>(
        &self,
        topo: &T,
        v: NodeId,
        rng: &mut R,
    ) -> NodeId {
        match self {
            Self::Pure => topo.random_neighbor(v, rng),
            Self::Lazy { stay_prob } => {
                if rng.gen_bool(*stay_prob) {
                    v
                } else {
                    topo.random_neighbor(v, rng)
                }
            }
            Self::Stationary => v,
            Self::Drift { move_index } => {
                assert!(
                    *move_index < topo.degree(v),
                    "drift index {move_index} out of range at node {v}"
                );
                topo.neighbor(v, *move_index)
            }
            Self::Biased { move_probs } => {
                assert_eq!(
                    move_probs.len(),
                    topo.degree(v),
                    "biased distribution length must equal degree"
                );
                let u: f64 = rng.gen_range(0.0..1.0);
                let mut acc = 0.0;
                for (i, &p) in move_probs.iter().enumerate() {
                    acc += p;
                    if u < acc {
                        return topo.neighbor(v, i);
                    }
                }
                v // residual mass: stay
            }
        }
    }
}

impl Default for MovementModel {
    /// The paper's pure random walk.
    fn default() -> Self {
        Self::Pure
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use antdensity_graphs::{Ring, Torus2d};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn pure_walk_moves_to_neighbors_uniformly() {
        let t = Torus2d::new(8);
        let mut rng = SmallRng::seed_from_u64(1);
        let v = t.node(3, 3);
        let mut counts = std::collections::HashMap::new();
        for _ in 0..40_000 {
            let u = MovementModel::Pure.step(&t, v, &mut rng);
            *counts.entry(u).or_insert(0u32) += 1;
        }
        assert_eq!(counts.len(), 4);
        for (&u, &c) in &counts {
            assert_eq!(t.torus_distance(v, u), 1);
            assert!((c as f64 - 10_000.0).abs() < 500.0, "count {c} for {u}");
        }
    }

    #[test]
    fn lazy_walk_stays_at_expected_rate() {
        let t = Torus2d::new(8);
        let mut rng = SmallRng::seed_from_u64(2);
        let model = MovementModel::lazy(0.3);
        let v = t.node(0, 0);
        let stays = (0..50_000)
            .filter(|_| model.step(&t, v, &mut rng) == v)
            .count();
        let rate = stays as f64 / 50_000.0;
        assert!((rate - 0.3).abs() < 0.01, "stay rate {rate}");
    }

    #[test]
    fn stationary_never_moves() {
        let t = Torus2d::new(4);
        let mut rng = SmallRng::seed_from_u64(3);
        for v in 0..t.num_nodes() {
            assert_eq!(MovementModel::Stationary.step(&t, v, &mut rng), v);
        }
    }

    #[test]
    fn drift_follows_fixed_direction() {
        let t = Torus2d::new(5);
        let mut rng = SmallRng::seed_from_u64(4);
        // index 2 is (0, +1) in Torus2d's move ordering
        let model = MovementModel::Drift { move_index: 2 };
        let mut v = t.node(2, 0);
        for expected_y in 1..10u64 {
            v = model.step(&t, v, &mut rng);
            assert_eq!(t.coord(v), (2, expected_y % 5));
        }
    }

    #[test]
    fn biased_walk_respects_distribution() {
        let r = Ring::new(10);
        let mut rng = SmallRng::seed_from_u64(5);
        // 70% clockwise, 10% counter-clockwise, 20% stay
        let model = MovementModel::biased(vec![0.7, 0.1]);
        let v = 5;
        let mut cw = 0;
        let mut ccw = 0;
        let mut stay = 0;
        for _ in 0..100_000 {
            match model.step(&r, v, &mut rng) {
                6 => cw += 1,
                4 => ccw += 1,
                5 => stay += 1,
                other => panic!("impossible destination {other}"),
            }
        }
        assert!((cw as f64 / 1e5 - 0.7).abs() < 0.01);
        assert!((ccw as f64 / 1e5 - 0.1).abs() < 0.01);
        assert!((stay as f64 / 1e5 - 0.2).abs() < 0.01);
    }

    #[test]
    fn default_is_pure() {
        assert_eq!(MovementModel::default(), MovementModel::Pure);
    }

    #[test]
    #[should_panic(expected = "sum to")]
    fn biased_rejects_excess_mass() {
        let _ = MovementModel::biased(vec![0.9, 0.3]);
    }

    #[test]
    #[should_panic(expected = "length must equal degree")]
    fn biased_checks_degree() {
        let t = Torus2d::new(4);
        let mut rng = SmallRng::seed_from_u64(6);
        let model = MovementModel::biased(vec![0.5, 0.5]);
        let _ = model.step(&t, 0, &mut rng);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn drift_checks_index() {
        let r = Ring::new(5);
        let mut rng = SmallRng::seed_from_u64(7);
        let _ = MovementModel::Drift { move_index: 2 }.step(&r, 0, &mut rng);
    }
}
