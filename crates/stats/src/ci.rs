//! Confidence intervals for Monte-Carlo outputs.
//!
//! A Wilson score interval for proportions (empirical failure
//! probabilities near 0, where the normal-approximation interval
//! misbehaves), built on the standard-normal quantile.

/// A two-sided confidence interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    /// Point estimate.
    pub estimate: f64,
    /// Lower bound.
    pub lo: f64,
    /// Upper bound.
    pub hi: f64,
}

impl ConfidenceInterval {
    /// Whether the interval contains `x`.
    pub fn contains(&self, x: f64) -> bool {
        self.lo <= x && x <= self.hi
    }
}

/// The standard-normal quantile `z` such that `Φ(z) = p`.
///
/// Acklam's rational approximation; absolute error below 1.2e-8 over
/// `p ∈ (0, 1)` — far more accuracy than any Monte-Carlo use needs.
///
/// # Panics
///
/// Panics if `p ∉ (0, 1)`.
pub fn normal_quantile(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "probability must lie strictly in (0,1)");
    // Coefficients for the central and tail regions.
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const P_LOW: f64 = 0.02425;
    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

/// Wilson score interval for a proportion with `successes` out of `n`.
///
/// Well behaved at the boundaries (p̂ = 0 or 1), unlike the Wald interval —
/// important when checking failure probabilities that should be ≈ δ ≪ 1.
///
/// # Panics
///
/// Panics if `n == 0`, `successes > n`, or `confidence ∉ (0, 1)`.
pub fn wilson_ci(successes: u64, n: u64, confidence: f64) -> ConfidenceInterval {
    assert!(n > 0, "need at least one trial");
    assert!(successes <= n, "successes cannot exceed trials");
    assert!(
        confidence > 0.0 && confidence < 1.0,
        "confidence must lie in (0,1)"
    );
    let z = normal_quantile(0.5 + confidence / 2.0);
    let nf = n as f64;
    let p_hat = successes as f64 / nf;
    let z2 = z * z;
    let denom = 1.0 + z2 / nf;
    let center = (p_hat + z2 / (2.0 * nf)) / denom;
    let half = z * (p_hat * (1.0 - p_hat) / nf + z2 / (4.0 * nf * nf)).sqrt() / denom;
    ConfidenceInterval {
        estimate: p_hat,
        lo: (center - half).max(0.0),
        hi: (center + half).min(1.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normal_quantile_known_values() {
        assert!((normal_quantile(0.5) - 0.0).abs() < 1e-8);
        assert!((normal_quantile(0.975) - 1.959_964).abs() < 1e-5);
        assert!((normal_quantile(0.025) + 1.959_964).abs() < 1e-5);
        assert!((normal_quantile(0.8413447) - 1.0).abs() < 1e-5);
        // Extreme tails stay finite and monotone.
        assert!(normal_quantile(1e-10) < normal_quantile(1e-5));
    }

    #[test]
    fn normal_quantile_symmetry() {
        for &p in &[0.01, 0.1, 0.3, 0.49] {
            assert!((normal_quantile(p) + normal_quantile(1.0 - p)).abs() < 1e-8);
        }
    }

    #[test]
    fn wilson_interval_contains_true_p_for_fair_coin() {
        // 5000 heads out of 10000 — p = 0.5 clearly inside.
        let ci = wilson_ci(5000, 10_000, 0.95);
        assert!(ci.contains(0.5));
        assert!((ci.hi - ci.lo) / 2.0 < 0.02);
    }

    #[test]
    fn wilson_interval_zero_successes_positive_width() {
        let ci = wilson_ci(0, 100, 0.95);
        assert_eq!(ci.estimate, 0.0);
        assert_eq!(ci.lo, 0.0);
        assert!(ci.hi > 0.0 && ci.hi < 0.1);
    }

    #[test]
    fn wilson_interval_all_successes() {
        let ci = wilson_ci(100, 100, 0.95);
        assert_eq!(ci.estimate, 1.0);
        assert!(ci.lo > 0.9);
        assert_eq!(ci.hi, 1.0);
    }

    #[test]
    fn wilson_bounds_stay_in_unit_interval() {
        for &(s, n) in &[(1u64, 3u64), (2, 5), (999, 1000)] {
            let ci = wilson_ci(s, n, 0.999);
            assert!(ci.lo >= 0.0 && ci.hi <= 1.0);
            assert!(ci.lo <= ci.estimate && ci.estimate <= ci.hi);
        }
    }

    #[test]
    #[should_panic(expected = "strictly in (0,1)")]
    fn quantile_rejects_boundary() {
        let _ = normal_quantile(1.0);
    }

    #[test]
    #[should_panic(expected = "successes cannot exceed trials")]
    fn wilson_rejects_impossible_counts() {
        let _ = wilson_ci(5, 4, 0.95);
    }
}
