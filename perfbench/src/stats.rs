//! The benchmark's own arithmetic: medians, guarded percentiles, and
//! delivered work.

use antdensity_sweep::ResolvedSweep;

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the middle pair for even counts).
///
/// # Panics
///
/// Panics on an empty sample; callers measure at least once.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let v = sorted(xs);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank `p`-th percentile, refused unless at least
/// [`MIN_BEYOND`] samples lie above its rank: a tail figure read off a
/// handful of samples would be one sample's noise.
pub fn percentile(xs: &[f64], p: f64) -> Result<f64, String> {
    if !(p > 0.0 && p < 100.0) {
        return Err(format!("percentile {p} outside (0, 100)"));
    }
    let n = xs.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    if rank == 0 || n - rank < MIN_BEYOND {
        return Err(format!(
            "p{p} of {n} samples has {} beyond it, needs {MIN_BEYOND}",
            n.saturating_sub(rank)
        ));
    }
    Ok(sorted(xs)[rank - 1])
}

/// Agent-steps a sweep delivers: Σ over cells of agents × rounds ×
/// trials. Fused cells share simulation passes, but each row of the
/// report stands for its own full run, so that is the work delivered.
pub fn delivered_agent_steps(resolved: &ResolvedSweep) -> u64 {
    resolved
        .cells
        .iter()
        .map(|c| c.num_agents as u64 * c.rounds * resolved.trials)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 90.0), Ok(90.0));
        assert!(percentile(&xs[..99], 90.0).is_err());
        assert_eq!(percentile(&xs[..20], 50.0), Ok(10.0));
        assert!(percentile(&xs[..19], 50.0).is_err());
        assert!(percentile(&[], 50.0).is_err());
        assert!(percentile(&xs, 100.0).is_err());
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn delivered_steps_count_every_cell() {
        // alg1_table, computed from the spec's axes alone
        let text = crate::gen::alg1_table_spec(5);
        let resolved = antdensity_sweep::SweepSpec::parse(&text)
            .unwrap()
            .resolve(false)
            .unwrap();
        let nodes = [1024u64, 1024, 1024, 1024];
        let densities = [0.02, 0.05, 0.1, 0.2];
        let rounds: u64 = antdensity_engine::Schedule::log_spaced(16, 512, 3)
            .points()
            .iter()
            .sum();
        let agents: u64 = nodes
            .iter()
            .flat_map(|&a| {
                densities
                    .iter()
                    .map(move |d| ((d * a as f64).round() as u64).max(2) + 1)
            })
            .sum();
        assert_eq!(delivered_agent_steps(&resolved), agents * rounds * 256);
    }
}
