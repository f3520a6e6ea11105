//! Planning `(n, t)` from Theorem 27 and predicting query costs.
//!
//! Theorem 27: `n²t = Θ((B(t)·|E| + |V|)/(ε²δ))` suffices for a `(1±ε)`
//! size estimate w.p. `1−δ`. Given a burn-in length `M`, total queries
//! are `n·(M + t)`; increasing `t` lets `n` shrink like `1/√t`, so when
//! `M` is large the optimum moves toward long walks — the Section 5.1.5
//! effect (`O(|V|^{(k+1)/2k})` queries for ours vs `Θ(|V|^{2/k+1/2})` for
//! KLSC14 on the k-dimensional torus).

/// A planned configuration for Algorithm 2.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetsizePlan {
    /// Number of walks `n`.
    pub walks: usize,
    /// Collision-counting rounds `t`.
    pub rounds: u64,
    /// Burn-in steps per walk `M`.
    pub burnin: u64,
    /// Predicted total link queries `n·(M + t)`.
    pub predicted_queries: u64,
}

/// Plans `n` for a *fixed* `t` from Theorem 27:
/// `n = √(c·(B(t)·|E| + |V|)/(ε²δ·t))` (at least 2).
///
/// `b_of_t` supplies the graph's re-collision sum `B(t)` — use
/// `antdensity_core::theory::TopologyClass::b_sum` for the analysed
/// families or a measured value for arbitrary graphs.
///
/// # Panics
///
/// Panics if `t == 0`, sizes are zero, or `eps`/`delta` are outside
/// `(0,1)`.
#[allow(clippy::too_many_arguments)] // mirrors Theorem 27's parameter list
pub fn plan_for_rounds(
    t: u64,
    b_of_t: f64,
    edges: u64,
    vertices: u64,
    eps: f64,
    delta: f64,
    burnin: u64,
    c: f64,
) -> NetsizePlan {
    assert!(t > 0, "rounds must be positive");
    assert!(edges > 0 && vertices > 0, "graph sizes must be positive");
    let n2t = antdensity_stats::bounds::theorem27_n2t(
        b_of_t,
        edges as f64,
        vertices as f64,
        eps,
        delta,
        c,
    );
    let n = ((n2t / t as f64).sqrt().ceil() as usize).max(2);
    NetsizePlan {
        walks: n,
        rounds: t,
        burnin,
        predicted_queries: n as u64 * (burnin + t),
    }
}

/// Sweeps `t` over powers of two up to `t_max` and returns the plan with
/// the fewest predicted queries. This is the paper's trade-off: long
/// walks amortise burn-in across fewer walkers.
///
/// # Panics
///
/// Same conditions as [`plan_for_rounds`]; additionally `t_max == 0`.
#[allow(clippy::too_many_arguments)] // mirrors Theorem 27's parameter list
pub fn plan_optimal(
    b_of: &dyn Fn(u64) -> f64,
    edges: u64,
    vertices: u64,
    eps: f64,
    delta: f64,
    burnin: u64,
    t_max: u64,
    c: f64,
) -> NetsizePlan {
    assert!(t_max > 0, "t_max must be positive");
    let mut best: Option<NetsizePlan> = None;
    let mut t = 1u64;
    while t <= t_max {
        let plan = plan_for_rounds(t, b_of(t), edges, vertices, eps, delta, burnin, c);
        if best.is_none_or(|b| plan.predicted_queries < b.predicted_queries) {
            best = Some(plan);
        }
        t = t.saturating_mul(2);
    }
    best.expect("at least one t considered")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// B(t) for a 3-d torus-like graph: bounded constant.
    fn b_const(_t: u64) -> f64 {
        1.2
    }

    #[test]
    fn plan_walks_shrink_with_rounds() {
        let p1 = plan_for_rounds(1, 1.2, 3000, 1000, 0.2, 0.2, 0, 1.0);
        let p64 = plan_for_rounds(64, 1.2, 3000, 1000, 0.2, 0.2, 0, 1.0);
        assert!(p64.walks < p1.walks);
        // n ~ 1/sqrt(t): 64x rounds -> ~8x fewer walks
        let ratio = p1.walks as f64 / p64.walks as f64;
        assert!((ratio - 8.0).abs() < 1.0, "ratio {ratio}");
    }

    #[test]
    fn optimal_plan_uses_long_walks_when_burnin_expensive() {
        let cheap = plan_optimal(&b_const, 3000, 1000, 0.2, 0.2, 0, 1 << 16, 1.0);
        let pricey = plan_optimal(&b_const, 3000, 1000, 0.2, 0.2, 5000, 1 << 16, 1.0);
        assert!(
            pricey.rounds > cheap.rounds,
            "expensive burn-in should push t up: {} vs {}",
            pricey.rounds,
            cheap.rounds
        );
        assert!(pricey.predicted_queries >= cheap.predicted_queries);
    }

    #[test]
    fn no_burnin_favours_single_round() {
        // With M = 0 and constant B, queries n(M+t) ~ sqrt(n2t * t):
        // minimised at t = 1 (mirroring KLSC14's choice when mixing is
        // free).
        let p = plan_optimal(&b_const, 3000, 1000, 0.2, 0.2, 0, 1 << 16, 1.0);
        assert_eq!(p.rounds, 1);
    }

    #[test]
    fn predicted_queries_add_up() {
        let p = plan_for_rounds(16, 2.0, 500, 250, 0.3, 0.2, 10, 1.0);
        assert_eq!(p.predicted_queries, p.walks as u64 * (p.burnin + p.rounds));
    }

    #[test]
    fn tighter_accuracy_needs_more_walks() {
        let loose = plan_for_rounds(16, 1.0, 3000, 1000, 0.3, 0.2, 0, 1.0);
        let tight = plan_for_rounds(16, 1.0, 3000, 1000, 0.1, 0.2, 0, 1.0);
        assert!(tight.walks > 2 * loose.walks);
    }

    #[test]
    fn torus_b_log_growth_still_plannable() {
        // 2-d-torus-like B(t) = ln(2t): planner still returns something
        // sensible and monotone in burn-in.
        let b_log = |t: u64| (2.0 * t as f64).ln();
        let p = plan_optimal(&b_log, 20_000, 10_000, 0.2, 0.2, 1000, 1 << 20, 1.0);
        assert!(p.rounds >= 64, "rounds {}", p.rounds);
        assert!(p.walks >= 2);
    }

    #[test]
    #[should_panic(expected = "rounds must be positive")]
    fn zero_rounds_rejected() {
        let _ = plan_for_rounds(0, 1.0, 10, 10, 0.1, 0.1, 0, 1.0);
    }
}
