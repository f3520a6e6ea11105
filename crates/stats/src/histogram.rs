//! Fixed-width histograms.
//!
//! Used by the harness to render error distributions and collision-count
//! distributions.

/// A histogram over `[lo, hi)` with equal-width bins plus underflow and
/// overflow counters.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
    count: u64,
}

impl Histogram {
    /// Creates a histogram over `[lo, hi)` with `bins` equal-width bins.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0`, `lo >= hi`, or either bound is not finite.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(lo.is_finite() && hi.is_finite(), "bounds must be finite");
        assert!(lo < hi, "lo must be strictly below hi");
        Self {
            lo,
            hi,
            bins: vec![0; bins],
            underflow: 0,
            overflow: 0,
            count: 0,
        }
    }

    /// Adds an observation.
    #[inline]
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let w = (self.hi - self.lo) / self.bins.len() as f64;
            let idx = (((x - self.lo) / w) as usize).min(self.bins.len() - 1);
            self.bins[idx] += 1;
        }
    }

    /// Number of bins (excluding under/overflow).
    pub fn num_bins(&self) -> usize {
        self.bins.len()
    }

    /// Total observations, including under/overflow.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Count in bin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn bin_count(&self, i: usize) -> u64 {
        self.bins[i]
    }

    /// `[lo, hi)` edges of bin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn bin_edges(&self, i: usize) -> (f64, f64) {
        assert!(i < self.bins.len(), "bin {i} out of range");
        let w = (self.hi - self.lo) / self.bins.len() as f64;
        (self.lo + w * i as f64, self.lo + w * (i + 1) as f64)
    }

    /// Observations below `lo`.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Observations at or above `hi`.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Lower bound of the binned range.
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper bound of the binned range (exclusive).
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// Merges another histogram into this one (streaming parallel
    /// reduction: shard-local histograms combine into the sweep-level
    /// aggregate without retaining samples). Bin counts add, so the
    /// result is identical to having pushed every observation into one
    /// histogram — in any merge order. Counts saturate at `u64::MAX`
    /// instead of overflowing, so merging adversarially large inputs
    /// degrades gracefully rather than panicking (debug) or wrapping
    /// to nonsense (release).
    ///
    /// # Panics
    ///
    /// Panics if the bounds or bin counts differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert!(
            self.lo == other.lo && self.hi == other.hi,
            "histogram bounds differ"
        );
        assert_eq!(self.bins.len(), other.bins.len(), "bin counts differ");
        for (a, b) in self.bins.iter_mut().zip(&other.bins) {
            *a = a.saturating_add(*b);
        }
        self.underflow = self.underflow.saturating_add(other.underflow);
        self.overflow = self.overflow.saturating_add(other.overflow);
        self.count = self.count.saturating_add(other.count);
    }

    /// Approximate `q`-quantile from the binned counts, interpolating
    /// uniformly within the containing bin. Underflow mass is treated as
    /// sitting at `lo`, overflow mass at `hi` — so the result is always
    /// within `[lo, hi]` and exact to one bin width for in-range data.
    ///
    /// # Panics
    ///
    /// Panics if the histogram is empty or `q ∉ [0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!(self.count > 0, "quantile of empty histogram");
        assert!((0.0..=1.0).contains(&q), "quantile level {q} outside [0,1]");
        let target = q * self.count as f64;
        let mut seen = self.underflow as f64;
        if target <= seen {
            return self.lo;
        }
        for (i, &c) in self.bins.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let next = seen + c as f64;
            if target <= next {
                let (blo, bhi) = self.bin_edges(i);
                let frac = (target - seen) / c as f64;
                return blo + frac * (bhi - blo);
            }
            seen = next;
        }
        self.hi
    }

    /// The exact internal state
    /// `(lo, hi, bins, underflow, overflow, count)` — for bit-exact
    /// persistence. Round-trips through [`Histogram::from_parts`].
    pub fn raw_parts(&self) -> (f64, f64, &[u64], u64, u64, u64) {
        (
            self.lo,
            self.hi,
            &self.bins,
            self.underflow,
            self.overflow,
            self.count,
        )
    }

    /// Reconstructs a histogram from [`Histogram::raw_parts`] output.
    ///
    /// # Errors
    ///
    /// Returns a message on an empty bin vector, non-finite bounds,
    /// `lo >= hi`, or recorded counts that do not sum to the total.
    pub fn from_parts(
        lo: f64,
        hi: f64,
        bins: Vec<u64>,
        underflow: u64,
        overflow: u64,
        count: u64,
    ) -> Result<Self, String> {
        if bins.is_empty() {
            return Err("histogram needs at least one bin".into());
        }
        if !(lo.is_finite() && hi.is_finite() && lo < hi) {
            return Err(format!(
                "histogram bounds [{lo}, {hi}) are not a finite range"
            ));
        }
        // Checked arithmetic: an overflowing sum is a mismatch, not UB
        // (counts near u64::MAX are legal after a saturating merge).
        let total = bins
            .iter()
            .try_fold(0u64, |acc, &c| acc.checked_add(c))
            .and_then(|b| b.checked_add(underflow))
            .and_then(|b| b.checked_add(overflow));
        if total != Some(count) {
            return Err(format!(
                "histogram counts do not sum to the recorded total {count}"
            ));
        }
        Ok(Self {
            lo,
            hi,
            bins,
            underflow,
            overflow,
            count,
        })
    }

    /// The bin densities normalised so the histogram integrates to 1
    /// (under/overflow excluded from the numerator but included in n).
    pub fn densities(&self) -> Vec<f64> {
        let w = (self.hi - self.lo) / self.bins.len() as f64;
        let n = self.count as f64;
        self.bins.iter().map(|&c| c as f64 / (n * w)).collect()
    }

    /// Renders a compact ASCII bar chart, one line per bin.
    pub fn render(&self, width: usize) -> String {
        let max = self.bins.iter().copied().max().unwrap_or(0).max(1);
        let mut out = String::new();
        for (i, &c) in self.bins.iter().enumerate() {
            let (lo, hi) = self.bin_edges(i);
            let bar = "#".repeat((c as usize * width) / max as usize);
            out.push_str(&format!("[{lo:>10.4}, {hi:>10.4}) {c:>8} {bar}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_histogram_bins_correctly() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for i in 0..10 {
            h.push(i as f64 + 0.5);
        }
        for i in 0..10 {
            assert_eq!(h.bin_count(i), 1, "bin {i}");
        }
        assert_eq!(h.count(), 10);
        assert_eq!(h.underflow(), 0);
        assert_eq!(h.overflow(), 0);
    }

    #[test]
    fn linear_histogram_under_overflow() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.push(-0.1);
        h.push(1.0); // hi is exclusive
        h.push(5.0);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.count(), 3);
    }

    #[test]
    fn linear_histogram_edge_values() {
        let mut h = Histogram::new(0.0, 1.0, 2);
        h.push(0.0); // inclusive lower edge -> bin 0
        h.push(0.5); // boundary -> bin 1
        assert_eq!(h.bin_count(0), 1);
        assert_eq!(h.bin_count(1), 1);
    }

    #[test]
    fn densities_integrate_to_one_without_overflow() {
        let mut h = Histogram::new(0.0, 1.0, 5);
        for i in 0..100 {
            h.push((i as f64 + 0.5) / 100.0);
        }
        let w = 0.2;
        let total: f64 = h.densities().iter().map(|d| d * w).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bin_edges_cover_range() {
        let h = Histogram::new(-1.0, 1.0, 4);
        assert_eq!(h.bin_edges(0), (-1.0, -0.5));
        assert_eq!(h.bin_edges(3), (0.5, 1.0));
    }

    #[test]
    fn merge_matches_single_stream() {
        let mut whole = Histogram::new(0.0, 1.0, 8);
        let mut a = Histogram::new(0.0, 1.0, 8);
        let mut b = Histogram::new(0.0, 1.0, 8);
        for i in 0..200 {
            let x = (i as f64 * 0.7919) % 1.4 - 0.2; // exercises under/overflow
            whole.push(x);
            if i % 3 == 0 {
                a.push(x);
            } else {
                b.push(x);
            }
        }
        a.merge(&b);
        assert_eq!(a, whole);
    }

    #[test]
    #[should_panic(expected = "bounds differ")]
    fn merge_rejects_mismatched_bounds() {
        let mut a = Histogram::new(0.0, 1.0, 4);
        a.merge(&Histogram::new(0.0, 2.0, 4));
    }

    #[test]
    fn merge_with_empty_is_identity_in_both_directions() {
        let mut filled = Histogram::new(0.0, 1.0, 4);
        for x in [0.1, 0.4, 0.9, -0.5, 2.0] {
            filled.push(x);
        }
        let before = filled.clone();
        // empty into filled: no-op
        filled.merge(&Histogram::new(0.0, 1.0, 4));
        assert_eq!(filled, before);
        // filled into empty: copy
        let mut empty = Histogram::new(0.0, 1.0, 4);
        empty.merge(&before);
        assert_eq!(empty, before);
        // empty into empty stays empty
        let mut a = Histogram::new(0.0, 1.0, 4);
        a.merge(&Histogram::new(0.0, 1.0, 4));
        assert_eq!(a.count(), 0);
    }

    #[test]
    fn single_bin_histogram_merges_and_interpolates_quantiles() {
        let mut a = Histogram::new(0.0, 1.0, 1);
        let mut b = Histogram::new(0.0, 1.0, 1);
        a.push(0.25);
        b.push(0.5);
        b.push(0.75);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.bin_count(0), 3);
        // all mass in the one bin: quantiles interpolate linearly in [0,1)
        assert!((a.quantile(0.5) - 0.5).abs() < 1e-12);
        assert_eq!(a.quantile(1.0), 1.0);
        assert_eq!(a.quantile(0.0), 0.0);
    }

    #[test]
    fn merge_saturates_instead_of_overflowing() {
        let near_max = u64::MAX - 1;
        let mut a = Histogram::from_parts(0.0, 1.0, vec![near_max], 0, 0, near_max).unwrap();
        let b = Histogram::from_parts(0.0, 1.0, vec![u64::MAX - 2], 1, 1, u64::MAX).unwrap();
        a.merge(&b);
        assert_eq!(a.bin_count(0), u64::MAX);
        assert_eq!(a.count(), u64::MAX);
        assert_eq!(a.underflow(), 1);
        assert_eq!(a.overflow(), 1);
        // a saturated histogram still answers quantile queries sanely
        let q = a.quantile(0.5);
        assert!((0.0..=1.0).contains(&q), "q={q}");
    }

    #[test]
    #[should_panic(expected = "empty histogram")]
    fn quantile_of_empty_histogram_panics() {
        let _ = Histogram::new(0.0, 1.0, 4).quantile(0.5);
    }

    #[test]
    #[should_panic(expected = "outside [0,1]")]
    fn quantile_rejects_out_of_range_level() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.push(0.5);
        let _ = h.quantile(1.5);
    }

    #[test]
    fn quantile_tracks_exact_quantile_to_bin_width() {
        let mut h = Histogram::new(0.0, 1.0, 1000);
        let xs: Vec<f64> = (0..500).map(|i| (i as f64 + 0.5) / 500.0).collect();
        xs.iter().for_each(|&x| h.push(x));
        for q in [0.1, 0.5, 0.9] {
            let exact = crate::quantile::quantile(&xs, q);
            assert!(
                (h.quantile(q) - exact).abs() < 2.0 / 1000.0,
                "q={q}: {} vs {exact}",
                h.quantile(q)
            );
        }
    }

    #[test]
    fn quantile_clamps_overflow_mass() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.push(0.5);
        h.push(10.0);
        h.push(20.0);
        assert_eq!(h.quantile(1.0), 1.0);
        assert_eq!(h.quantile(0.9), 1.0);
    }

    #[test]
    fn raw_parts_round_trip() {
        let mut h = Histogram::new(-1.0, 3.0, 16);
        for i in 0..100 {
            h.push(i as f64 * 0.05 - 1.2);
        }
        let (lo, hi, bins, under, over, count) = h.raw_parts();
        let rebuilt = Histogram::from_parts(lo, hi, bins.to_vec(), under, over, count).unwrap();
        assert_eq!(rebuilt, h);
    }

    #[test]
    #[should_panic(expected = "do not sum")]
    fn from_parts_checks_totals() {
        Histogram::from_parts(0.0, 1.0, vec![1, 2], 0, 0, 5).unwrap();
    }

    #[test]
    fn from_parts_rejects_empty_bins_and_bad_bounds() {
        assert!(Histogram::from_parts(0.0, 1.0, vec![], 0, 0, 0).is_err());
        assert!(Histogram::from_parts(1.0, 1.0, vec![1], 0, 0, 1).is_err());
        assert!(Histogram::from_parts(0.0, f64::NAN, vec![1], 0, 0, 1).is_err());
        assert!(Histogram::from_parts(f64::NEG_INFINITY, 1.0, vec![1], 0, 0, 1).is_err());
    }

    #[test]
    fn render_is_nonempty() {
        let mut h = Histogram::new(0.0, 1.0, 3);
        h.push(0.1);
        let s = h.render(20);
        assert!(s.contains('#'));
        assert_eq!(s.lines().count(), 3);
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn zero_bins_panics() {
        let _ = Histogram::new(0.0, 1.0, 0);
    }
}
