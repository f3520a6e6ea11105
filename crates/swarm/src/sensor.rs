//! Section 6.3.1: random-walk-based sensor network sampling.
//!
//! "A query message (a 'token') is initially sent by a base station to
//! some sensor. The token is relayed randomly between sensors, which are
//! connected via a grid communication network, and its value is updated
//! appropriately at each step … it easily adapts to node failures and
//! does not require setting up or storing spanning tree communication
//! structures."
//!
//! The token records one reading per hop *without* remembering which
//! sensors it has visited; repeat visits therefore inflate the variance
//! relative to i.i.d. sampling. The paper's Corollary 15 moment bound
//! says the inflation on a grid is only logarithmic — [`TokenEstimate`]
//! exposes the revisit statistics so experiments can verify exactly that.
//! Tokens are the agents of an [`Engine`] stepped by [`Engine::run`].

use antdensity_engine::Engine;
use antdensity_graphs::{NodeId, Topology};
use antdensity_stats::rng::SeedSequence;
use rand::Rng;
use rand::RngCore;
use std::ops::ControlFlow;

/// A field of sensors on a topology: one value per node, plus an alive
/// flag (failed sensors still relay tokens but contribute no reading).
#[derive(Debug, Clone, PartialEq)]
pub struct SensorField<T: Topology> {
    topo: T,
    values: Vec<f64>,
    alive: Vec<bool>,
}

impl<T: Topology> SensorField<T> {
    /// Creates a field with explicit per-node readings.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != topo.num_nodes()`.
    pub fn new(topo: T, values: Vec<f64>) -> Self {
        assert_eq!(
            values.len() as u64,
            topo.num_nodes(),
            "one value per sensor required"
        );
        let n = values.len();
        Self {
            topo,
            values,
            alive: vec![true; n],
        }
    }

    /// Creates a field whose readings are i.i.d. draws from `sample`
    /// (the paper's general data-aggregation setting: `vᵢ ~ D`).
    pub fn from_distribution(
        topo: T,
        rng: &mut dyn RngCore,
        mut sample: impl FnMut(&mut dyn RngCore) -> f64,
    ) -> Self {
        let n = topo.num_nodes() as usize;
        let values = (0..n).map(|_| sample(rng)).collect();
        Self {
            topo,
            values,
            alive: vec![true; n],
        }
    }

    /// A binary field where each sensor has recorded a condition with
    /// probability `p` — density estimation as a special case of
    /// aggregation ("vᵢ is an indicator which is 1 with probability d").
    pub fn bernoulli(topo: T, p: f64, rng: &mut dyn RngCore) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability must lie in [0,1]");
        Self::from_distribution(topo, rng, |r| if r.gen_bool(p) { 1.0 } else { 0.0 })
    }

    /// The underlying topology.
    pub fn topology(&self) -> &T {
        &self.topo
    }

    /// The reading at `node`.
    pub fn value(&self, node: NodeId) -> f64 {
        self.values[node as usize]
    }

    /// Whether the sensor at `node` is alive.
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.alive[node as usize]
    }

    /// Fails each sensor independently with probability `p` (failed
    /// sensors still relay the token — the radio works, the sensing
    /// element does not).
    pub fn fail_random(&mut self, p: f64, rng: &mut dyn RngCore) {
        assert!((0.0..=1.0).contains(&p), "probability must lie in [0,1]");
        for a in self.alive.iter_mut() {
            if *a && rng.gen_bool(p) {
                *a = false;
            }
        }
    }

    /// Number of alive sensors.
    pub fn alive_count(&self) -> usize {
        self.alive.iter().filter(|a| **a).count()
    }

    /// The true mean over alive sensors (the aggregation target).
    ///
    /// # Panics
    ///
    /// Panics if every sensor has failed.
    pub fn true_mean(&self) -> f64 {
        let alive: Vec<f64> = self
            .values
            .iter()
            .zip(&self.alive)
            .filter(|(_, a)| **a)
            .map(|(v, _)| *v)
            .collect();
        assert!(!alive.is_empty(), "all sensors failed");
        alive.iter().sum::<f64>() / alive.len() as f64
    }
}

/// The result of one token walk.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TokenEstimate {
    /// The aggregated mean estimate.
    pub mean: f64,
    /// Readings collected (excludes hops onto failed sensors).
    pub samples: u64,
    /// Hops that landed on already-visited sensors (revisit inflation).
    pub revisits: u64,
    /// Distinct sensors visited.
    pub distinct: u64,
    /// Hops that landed on failed sensors.
    pub failed_reads: u64,
}

/// Walks `tokens` independent query tokens for `hops` hops each from
/// `start`, as the agents of one engine (tokens never interact), and
/// aggregates each token's mean reading. A token is memoryless — exactly
/// the scheme the paper argues stays accurate thanks to strong local
/// mixing.
///
/// # Panics
///
/// Panics if `hops == 0`, `tokens == 0` or `start` is out of range.
pub fn token_mean_estimates<T: Topology>(
    field: &SensorField<T>,
    start: NodeId,
    hops: u64,
    tokens: usize,
    seed: u64,
) -> Vec<TokenEstimate> {
    assert!(hops > 0, "token needs at least one hop");
    let mut walk = Engine::new(&field.topo, tokens).with_seed_sequence(SeedSequence::new(seed));
    walk.place_at(&vec![start; tokens]);
    let nodes = field.values.len();
    // Per token: its visited sensors, and its running sum in `mean`.
    let mut seen = vec![false; tokens * nodes];
    let mut out = vec![TokenEstimate::default(); tokens];
    for visited in seen.chunks_exact_mut(nodes) {
        visited[start as usize] = true;
    }
    walk.run(hops, |walk| {
        let tokens = walk.agent_positions().zip(seen.chunks_exact_mut(nodes));
        for (((_, v), visited), est) in tokens.zip(&mut out) {
            if std::mem::replace(&mut visited[v as usize], true) {
                est.revisits += 1;
            } else {
                est.distinct += 1;
            }
            if field.is_alive(v) {
                est.mean += field.value(v);
                est.samples += 1;
            } else {
                est.failed_reads += 1;
            }
        }
        ControlFlow::Continue(())
    });
    for est in &mut out {
        est.distinct += 1; // the start
        if est.samples > 0 {
            est.mean /= est.samples as f64;
        }
    }
    out
}

/// I.i.d.-sampling baseline: `samples` uniform random alive sensors (with
/// replacement). This is what the token walk is compared against.
pub fn iid_mean_estimate<T: Topology>(field: &SensorField<T>, samples: u64, seed: u64) -> f64 {
    assert!(samples > 0, "need at least one sample");
    let seq = SeedSequence::new(seed);
    let mut rng = seq.rng(0);
    let mut sum = 0.0;
    let mut got = 0u64;
    let mut guard = 0u64;
    while got < samples {
        let v = field.topo.uniform_node(&mut rng);
        if field.is_alive(v) {
            sum += field.value(v);
            got += 1;
        }
        guard += 1;
        assert!(
            guard < samples.saturating_mul(1000) + 1000,
            "too many failed sensors to sample"
        );
    }
    sum / samples as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use antdensity_graphs::Torus2d;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn token(field: &SensorField<Torus2d>, start: NodeId, hops: u64, seed: u64) -> TokenEstimate {
        token_mean_estimates(field, start, hops, 1, seed)[0]
    }

    fn checkerboard_field(side: u64) -> SensorField<Torus2d> {
        let topo = Torus2d::new(side);
        let values = (0..topo.num_nodes())
            .map(|v| {
                let (x, y) = topo.coord(v);
                ((x + y) % 2) as f64
            })
            .collect();
        SensorField::new(topo, values)
    }

    #[test]
    fn token_estimates_checkerboard_mean() {
        // mean is exactly 0.5; a long token walk should get close.
        let field = checkerboard_field(16);
        let est = token(&field, 0, 4000, 1);
        assert!((est.mean - 0.5).abs() < 0.05, "mean {}", est.mean);
        assert_eq!(est.samples, 4000);
        assert_eq!(est.failed_reads, 0);
    }

    #[test]
    fn token_revisits_are_counted() {
        let field = checkerboard_field(8); // small field: many revisits
        let est = token(&field, 0, 1000, 2);
        assert!(est.revisits > 0);
        assert!(est.distinct <= 64);
        assert_eq!(est.revisits + est.distinct, (1000 + 1)); // revisits + distinct = hops + 1 when nothing else counted... see below
    }

    #[test]
    fn revisit_accounting_identity() {
        // each hop is either a first visit (distinct grows) or a revisit;
        // plus the start node is distinct. So distinct + revisits = hops + 1.
        let field = checkerboard_field(8);
        for seed in 0..5 {
            let est = token(&field, 5, 300, seed);
            assert_eq!(est.distinct + est.revisits, 301);
        }
    }

    #[test]
    fn failed_sensors_relay_but_do_not_report() {
        let mut field = checkerboard_field(16);
        let mut rng = SmallRng::seed_from_u64(3);
        field.fail_random(0.5, &mut rng);
        let alive = field.alive_count();
        assert!(alive > 64 && alive < 192, "alive {alive}");
        let est = token(&field, 0, 2000, 4);
        assert!(est.failed_reads > 0);
        assert_eq!(est.samples + est.failed_reads, 2000);
        // estimate still tracks the alive-sensor mean
        assert!((est.mean - field.true_mean()).abs() < 0.1);
    }

    #[test]
    fn iid_baseline_matches_true_mean() {
        let field = checkerboard_field(16);
        let est = iid_mean_estimate(&field, 4000, 5);
        assert!((est - 0.5).abs() < 0.03, "iid mean {est}");
    }

    #[test]
    fn bernoulli_field_density_estimation() {
        let mut rng = SmallRng::seed_from_u64(6);
        let field = SensorField::bernoulli(Torus2d::new(32), 0.2, &mut rng);
        let truth = field.true_mean();
        assert!((truth - 0.2).abs() < 0.05, "field mean {truth}");
        let est = token(&field, 0, 5000, 7);
        assert!((est.mean - truth).abs() < 0.05, "token mean {}", est.mean);
    }

    #[test]
    fn token_variance_close_to_iid_on_torus() {
        // The punchline of Section 6.3.1: repeat visits cost only a small
        // factor on the grid. Compare standard deviations of token vs iid
        // estimates with the same number of readings.
        let field = checkerboard_field(32);
        let hops = 512;
        let reps = 200u64;
        let token_ests: Vec<f64> = (0..reps)
            .map(|s| token(&field, 0, hops, 100 + s).mean)
            .collect();
        let iid_ests: Vec<f64> = (0..reps)
            .map(|s| iid_mean_estimate(&field, hops, 500 + s))
            .collect();
        let sd = |xs: &[f64]| {
            let m = xs.iter().sum::<f64>() / xs.len() as f64;
            (xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64).sqrt()
        };
        let ratio = sd(&token_ests) / sd(&iid_ests);
        // checkerboard alternates every step, so the token actually does
        // fine; the guard is that inflation stays modest (< 5x).
        assert!(ratio < 5.0, "token/iid sd ratio {ratio}");
    }

    #[test]
    fn all_failed_sensors_panics_on_true_mean() {
        let mut field = checkerboard_field(4);
        let mut rng = SmallRng::seed_from_u64(8);
        field.fail_random(1.0, &mut rng);
        assert_eq!(field.alive_count(), 0);
        let r = std::panic::catch_unwind(|| field.true_mean());
        assert!(r.is_err());
    }

    #[test]
    fn deterministic_given_seed() {
        let field = checkerboard_field(8);
        assert_eq!(token(&field, 0, 100, 9), token(&field, 0, 100, 9));
    }

    #[test]
    #[should_panic(expected = "one value per sensor")]
    fn wrong_value_count_rejected() {
        let _ = SensorField::new(Torus2d::new(4), vec![0.0; 3]);
    }
}
