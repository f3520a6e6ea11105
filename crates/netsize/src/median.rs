//! Median-of-estimates boosting for network-size estimation.
//!
//! Theorem 27's guarantee comes from Chebyshev's inequality, so its
//! failure probability enters *linearly* (`1/δ`). Section 5.1.2: "we can
//! simply perform log(1/δ) estimates each with failure probability 1/3
//! and return the median, which will be correct with probability 1 − δ."

use crate::algorithm2::{Algorithm2, NetSizeRun, StartMode};
use crate::queries::QueryCount;
use antdensity_graphs::CsrGraph;
use antdensity_stats::mom;

/// The result of a median-boosted run.
#[derive(Debug, Clone, PartialEq)]
pub struct BoostedRun {
    /// The boosted estimate (median of the repetition estimates).
    pub estimate: f64,
    /// Each repetition's raw result.
    pub repetitions: Vec<NetSizeRun>,
    /// Total queries across repetitions.
    pub queries: QueryCount,
}

/// Runs `Algorithm 2` `repetitions` times with independent seeds and
/// returns the median estimate. Infinite estimates (no collisions) are
/// retained — the median absorbs them as long as a majority of
/// repetitions succeed, which is exactly the boosting argument.
///
/// # Panics
///
/// Panics if `repetitions == 0`.
pub fn median_boosted(
    alg: Algorithm2,
    graph: &CsrGraph,
    avg_degree: f64,
    start: StartMode,
    repetitions: usize,
    seed: u64,
) -> BoostedRun {
    assert!(repetitions > 0, "need at least one repetition");
    let seq = antdensity_stats::rng::SeedSequence::new(seed);
    let mut runs = Vec::with_capacity(repetitions);
    let mut queries = QueryCount::new();
    for r in 0..repetitions {
        let run = alg.run(graph, avg_degree, start, seq.derive(r as u64));
        queries.add(&run.queries);
        runs.push(run);
    }
    // median over (possibly infinite) estimates: sort manually since
    // quantile::median rejects NaN but infinities are fine.
    let mut ests: Vec<f64> = runs.iter().map(|r| r.estimate).collect();
    ests.sort_by(|a, b| a.partial_cmp(b).expect("estimates are never NaN"));
    let estimate = if ests.len() % 2 == 1 {
        ests[ests.len() / 2]
    } else {
        let hi = ests[ests.len() / 2];
        let lo = ests[ests.len() / 2 - 1];
        if hi.is_infinite() {
            lo
        } else {
            (lo + hi) / 2.0
        }
    };
    BoostedRun {
        estimate,
        repetitions: runs,
        queries,
    }
}

/// Repetition count for a target failure probability, re-exported from
/// the stats substrate (`p_fail = 1/3` per the paper's remark).
pub fn repetitions_for(delta: f64) -> usize {
    mom::repetitions_for(1.0 / 3.0, delta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use antdensity_graphs::generators;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn boosted_estimate_is_stable() {
        let mut rng = SmallRng::seed_from_u64(1);
        let g = generators::random_regular(256, 6, 300, &mut rng).unwrap();
        let alg = Algorithm2::new(48, 32);
        let boosted = median_boosted(alg, &g, 6.0, StartMode::Stationary, 9, 7);
        assert!(
            (boosted.estimate - 256.0).abs() / 256.0 < 0.35,
            "boosted estimate {}",
            boosted.estimate
        );
        assert_eq!(boosted.repetitions.len(), 9);
    }

    #[test]
    fn median_resists_infinite_outliers() {
        // tiny walk counts on a big graph: some repetitions see zero
        // collisions (infinite estimates) but the median survives.
        let mut rng = SmallRng::seed_from_u64(2);
        let g = generators::random_regular(512, 4, 300, &mut rng).unwrap();
        let alg = Algorithm2::new(24, 24);
        let boosted = median_boosted(alg, &g, 4.0, StartMode::Stationary, 11, 3);
        assert!(
            boosted.estimate.is_finite(),
            "median must dodge infinite repetitions"
        );
    }

    #[test]
    fn queries_accumulate_across_repetitions() {
        let mut rng = SmallRng::seed_from_u64(3);
        let g = generators::random_regular(64, 4, 300, &mut rng).unwrap();
        let alg = Algorithm2::new(10, 5);
        let boosted = median_boosted(alg, &g, 4.0, StartMode::Stationary, 4, 1);
        assert_eq!(boosted.queries.walking, 4 * 10 * 5);
    }

    #[test]
    fn repetition_count_grows_with_confidence() {
        assert!(repetitions_for(0.001) > repetitions_for(0.1));
        assert!(repetitions_for(0.1) % 2 == 1);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut rng = SmallRng::seed_from_u64(4);
        let g = generators::random_regular(128, 4, 300, &mut rng).unwrap();
        let alg = Algorithm2::new(16, 8);
        let a = median_boosted(alg, &g, 4.0, StartMode::Stationary, 5, 11);
        let b = median_boosted(alg, &g, 4.0, StartMode::Stationary, 5, 11);
        assert_eq!(a, b);
    }
}
