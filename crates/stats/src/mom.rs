//! Median boosting.
//!
//! Section 5.1.2 of the paper notes that the Chebyshev-based network-size
//! bound has *linear* dependence on `1/δ`, and that one can "perform
//! log(1/δ) estimates each with failure probability 1/3 and return the
//! median, which will be correct with probability 1−δ". This module
//! sizes that boosting step; `quantile::median` takes the median.

/// Number of independent repetitions needed so that the median of
/// estimates, each failing with probability at most `p_fail < 1/2`, fails
/// with probability at most `delta`.
///
/// From the Chernoff bound on Binomial(k, p_fail) exceeding k/2:
/// `k = ln(1/δ) / (2·(1/2 − p_fail)²)` (rounded up to the next odd count
/// so the median is unique).
///
/// # Panics
///
/// Panics if `p_fail ∉ (0, 0.5)` or `delta ∉ (0, 1)`.
pub fn repetitions_for(p_fail: f64, delta: f64) -> usize {
    assert!(
        p_fail > 0.0 && p_fail < 0.5,
        "per-estimate failure probability must lie in (0, 0.5)"
    );
    assert!(delta > 0.0 && delta < 1.0, "delta must lie in (0,1)");
    let gap = 0.5 - p_fail;
    let k = ((1.0 / delta).ln() / (2.0 * gap * gap)).ceil() as usize;
    let k = k.max(1);
    if k.is_multiple_of(2) {
        k + 1
    } else {
        k
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repetitions_is_odd_and_grows_with_confidence() {
        let k1 = repetitions_for(1.0 / 3.0, 0.1);
        let k2 = repetitions_for(1.0 / 3.0, 0.001);
        assert!(k1 % 2 == 1 && k2 % 2 == 1);
        assert!(k2 > k1);
    }

    #[test]
    fn repetitions_small_for_weak_targets() {
        // delta = 0.3 with p_fail = 1/3 needs very few repetitions.
        assert!(repetitions_for(1.0 / 3.0, 0.3) <= 45);
    }

    #[test]
    #[should_panic(expected = "(0, 0.5)")]
    fn repetitions_rejects_bad_pfail() {
        let _ = repetitions_for(0.5, 0.1);
    }
}
