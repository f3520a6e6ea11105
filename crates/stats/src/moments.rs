//! Sample moments: streaming (Welford) and exact central moments of
//! arbitrary order.
//!
//! The paper's key technical result (Lemma 11) bounds *all* central moments
//! of the pairwise collision count: `E[c̄ⱼᵏ] ≤ (t/A)·wᵏ·k!·logᵏ(2t)`.
//! Corollaries 15 and 16 give analogous bounds for node visits and
//! equalizations. Testing those claims requires computing empirical k-th
//! central moments for k well beyond 2, which [`CentralMoments`] provides.

/// Streaming mean/variance via Welford's algorithm.
///
/// Numerically stable one-pass computation; O(1) memory. Use this when
/// samples are too numerous to retain.
///
/// # Example
///
/// ```
/// use antdensity_stats::moments::StreamingMoments;
///
/// let mut m = StreamingMoments::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     m.push(x);
/// }
/// assert_eq!(m.count(), 8);
/// assert!((m.mean() - 5.0).abs() < 1e-12);
/// assert!((m.population_variance() - 4.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StreamingMoments {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl StreamingMoments {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    #[inline]
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
    }

    /// Merges another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &StreamingMoments) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean. Returns 0 for an empty accumulator.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased (n−1) sample variance. Returns 0 with fewer than 2 samples.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Population (n) variance. Returns 0 when empty.
    pub fn population_variance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Unbiased sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Standard error of the mean (σ/√n).
    pub fn std_error(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.std_dev() / (self.count as f64).sqrt()
        }
    }

    /// Smallest observation (∞ when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (−∞ when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// The exact internal state `(count, mean, m2, min, max)` — for
    /// bit-exact persistence (checkpoint files). Round-trips through
    /// [`StreamingMoments::from_raw`] without losing a single bit, so a
    /// resumed accumulator continues the identical floating-point
    /// trajectory.
    pub fn raw_parts(&self) -> (u64, f64, f64, f64, f64) {
        (self.count, self.mean, self.m2, self.min, self.max)
    }

    /// Reconstructs an accumulator from [`StreamingMoments::raw_parts`]
    /// output. The caller is responsible for passing state produced by a
    /// real accumulator; no invariants beyond NaN-freeness are checked.
    ///
    /// # Errors
    ///
    /// Returns a message if `mean` or `m2` is NaN.
    pub fn from_raw(count: u64, mean: f64, m2: f64, min: f64, max: f64) -> Result<Self, String> {
        if mean.is_nan() || m2.is_nan() {
            return Err("NaN mean or m2 in serialized moments".into());
        }
        Ok(Self {
            count,
            mean,
            m2,
            min,
            max,
        })
    }
}

impl Extend<f64> for StreamingMoments {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.push(x);
        }
    }
}

impl FromIterator<f64> for StreamingMoments {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut m = StreamingMoments::new();
        m.extend(iter);
        m
    }
}

/// Descriptive statistics over a retained sample.
///
/// Keeps the (sorted) samples so quantiles are exact. Use for trial-level
/// outputs (thousands to millions of values).
#[derive(Debug, Clone, PartialEq)]
pub struct SampleStats {
    sorted: Vec<f64>,
    mean: f64,
}

impl SampleStats {
    /// Builds statistics from a slice (copies and sorts it).
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or contains NaN.
    pub fn from_slice(samples: &[f64]) -> Self {
        Self::from_vec(samples.to_vec())
    }

    /// Builds statistics taking ownership of `samples`.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or contains NaN.
    pub fn from_vec(mut samples: Vec<f64>) -> Self {
        assert!(
            !samples.is_empty(),
            "SampleStats requires at least one sample"
        );
        assert!(
            samples.iter().all(|x| !x.is_nan()),
            "SampleStats cannot contain NaN"
        );
        samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaN after check"));
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        Self {
            sorted: samples,
            mean,
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Always false: construction rejects empty inputs.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Sample mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased (n−1) sample variance; 0 for a single sample.
    pub fn variance(&self) -> f64 {
        if self.sorted.len() < 2 {
            return 0.0;
        }
        let m = self.mean;
        let ss: f64 = self.sorted.iter().map(|x| (x - m) * (x - m)).sum();
        ss / (self.sorted.len() - 1) as f64
    }

    /// Unbiased sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Standard error of the mean.
    pub fn std_error(&self) -> f64 {
        self.std_dev() / (self.len() as f64).sqrt()
    }

    /// Minimum (first of the sorted samples).
    pub fn min(&self) -> f64 {
        self.sorted[0]
    }

    /// Maximum (last of the sorted samples).
    pub fn max(&self) -> f64 {
        *self.sorted.last().expect("non-empty")
    }

    /// Median (50th percentile).
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Empirical quantile with linear interpolation, `q ∈ [0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        crate::quantile::quantile_sorted(&self.sorted, q)
    }
}

/// Central moments about a *known* mean, computed online.
///
/// The paper's Lemma 11 bounds moments of `c̄ⱼ = cⱼ − E[cⱼ|W]` where the
/// conditional expectation `t/A` is known exactly. Centering on the known
/// mean (rather than the sample mean) matches the theorem statement and
/// avoids plug-in bias.
#[derive(Debug, Clone, PartialEq)]
pub struct CentralMoments {
    center: f64,
    max_order: u32,
    count: u64,
    /// sums[k-1] = Σ (x − center)^k for k = 1..=max_order
    sums: Vec<f64>,
    /// abs_sums[k-1] = Σ |x − center|^k
    abs_sums: Vec<f64>,
}

impl CentralMoments {
    /// Accumulator for moments 1..=`max_order` about `center`.
    ///
    /// # Panics
    ///
    /// Panics if `max_order == 0`.
    pub fn new(center: f64, max_order: u32) -> Self {
        assert!(max_order >= 1, "max_order must be at least 1");
        Self {
            center,
            max_order,
            count: 0,
            sums: vec![0.0; max_order as usize],
            abs_sums: vec![0.0; max_order as usize],
        }
    }

    /// Adds one observation.
    #[inline]
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let d = x - self.center;
        let mut p = 1.0;
        let ad = d.abs();
        let mut ap = 1.0;
        for k in 0..self.max_order as usize {
            p *= d;
            ap *= ad;
            self.sums[k] += p;
            self.abs_sums[k] += ap;
        }
    }

    /// Merges another accumulator (must share center and order).
    ///
    /// # Panics
    ///
    /// Panics if centers or orders differ.
    pub fn merge(&mut self, other: &CentralMoments) {
        assert_eq!(self.center, other.center, "centers differ");
        assert_eq!(self.max_order, other.max_order, "orders differ");
        self.count += other.count;
        for k in 0..self.max_order as usize {
            self.sums[k] += other.sums[k];
            self.abs_sums[k] += other.abs_sums[k];
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The centering constant.
    pub fn center(&self) -> f64 {
        self.center
    }

    /// Highest tracked order.
    pub fn max_order(&self) -> u32 {
        self.max_order
    }

    /// `E[(x − center)ᵏ]` for `1 ≤ k ≤ max_order`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is 0 or exceeds `max_order`, or if no samples were
    /// added.
    pub fn moment(&self, k: u32) -> f64 {
        assert!(k >= 1 && k <= self.max_order, "order {k} out of range");
        assert!(self.count > 0, "no samples");
        self.sums[(k - 1) as usize] / self.count as f64
    }

    /// `E[|x − center|ᵏ]` for `1 ≤ k ≤ max_order`.
    ///
    /// # Panics
    ///
    /// Same conditions as [`CentralMoments::moment`].
    pub fn abs_moment(&self, k: u32) -> f64 {
        assert!(k >= 1 && k <= self.max_order, "order {k} out of range");
        assert!(self.count > 0, "no samples");
        self.abs_sums[(k - 1) as usize] / self.count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_naive() {
        let xs = [1.5, -2.0, 3.25, 0.0, 7.5, -1.25];
        let mut m = StreamingMoments::new();
        for &x in &xs {
            m.push(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (xs.len() - 1) as f64;
        assert!((m.mean() - mean).abs() < 1e-12);
        assert!((m.variance() - var).abs() < 1e-12);
        assert_eq!(m.min(), -2.0);
        assert_eq!(m.max(), 7.5);
    }

    #[test]
    fn welford_empty_is_safe() {
        let m = StreamingMoments::new();
        assert_eq!(m.count(), 0);
        assert_eq!(m.mean(), 0.0);
        assert_eq!(m.variance(), 0.0);
        assert_eq!(m.std_error(), 0.0);
    }

    #[test]
    fn welford_single_sample() {
        let mut m = StreamingMoments::new();
        m.push(3.0);
        assert_eq!(m.mean(), 3.0);
        assert_eq!(m.variance(), 0.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = StreamingMoments::new();
        xs.iter().for_each(|&x| whole.push(x));
        let mut left = StreamingMoments::new();
        let mut right = StreamingMoments::new();
        xs[..37].iter().for_each(|&x| left.push(x));
        xs[37..].iter().for_each(|&x| right.push(x));
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-12);
        assert!((left.variance() - whole.variance()).abs() < 1e-10);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a: StreamingMoments = [1.0, 2.0, 3.0].into_iter().collect();
        let before = a;
        a.merge(&StreamingMoments::new());
        assert_eq!(a, before);
        let mut empty = StreamingMoments::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn raw_parts_round_trip_is_bit_exact() {
        let mut m = StreamingMoments::new();
        for i in 0..37 {
            m.push((i as f64).sin() * 3.0 + 0.1);
        }
        let (count, mean, m2, min, max) = m.raw_parts();
        let rebuilt = StreamingMoments::from_raw(count, mean, m2, min, max).unwrap();
        assert_eq!(rebuilt, m);
        // continuing both accumulators stays bit-identical
        let mut a = m;
        let mut b = rebuilt;
        a.push(0.25);
        b.push(0.25);
        assert_eq!(a, b);
    }

    #[test]
    fn sample_stats_basics() {
        let s = SampleStats::from_slice(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(s.len(), 4);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 4.0);
        assert_eq!(s.mean(), 2.5);
        assert_eq!(s.median(), 2.5);
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn sample_stats_rejects_empty() {
        let _ = SampleStats::from_slice(&[]);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn sample_stats_rejects_nan() {
        let _ = SampleStats::from_slice(&[1.0, f64::NAN]);
    }

    #[test]
    fn known_mean_moments_match_naive() {
        let xs = [0.0, 1.0, 2.0, 3.0, 10.0];
        let center = 2.0;
        let mut cm = CentralMoments::new(center, 4);
        xs.iter().for_each(|&x| cm.push(x));
        for k in 1..=4u32 {
            let naive: f64 =
                xs.iter().map(|x| (x - center).powi(k as i32)).sum::<f64>() / xs.len() as f64;
            assert!(
                (cm.moment(k) - naive).abs() < 1e-12,
                "k = {k}: {} vs {naive}",
                cm.moment(k)
            );
            let naive_abs: f64 = xs
                .iter()
                .map(|x| (x - center).abs().powi(k as i32))
                .sum::<f64>()
                / xs.len() as f64;
            assert!((cm.abs_moment(k) - naive_abs).abs() < 1e-12);
        }
    }

    #[test]
    fn central_moments_merge() {
        let xs: Vec<f64> = (0..50).map(|i| i as f64 * 0.1).collect();
        let mut whole = CentralMoments::new(1.0, 6);
        xs.iter().for_each(|&x| whole.push(x));
        let mut a = CentralMoments::new(1.0, 6);
        let mut b = CentralMoments::new(1.0, 6);
        xs[..20].iter().for_each(|&x| a.push(x));
        xs[20..].iter().for_each(|&x| b.push(x));
        a.merge(&b);
        for k in 1..=6 {
            assert!((a.moment(k) - whole.moment(k)).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn central_moments_order_checked() {
        let mut cm = CentralMoments::new(0.0, 2);
        cm.push(1.0);
        let _ = cm.moment(3);
    }

    #[test]
    #[should_panic(expected = "centers differ")]
    fn central_moments_merge_checks_center() {
        let mut a = CentralMoments::new(0.0, 2);
        let b = CentralMoments::new(1.0, 2);
        a.merge(&b);
    }
}
