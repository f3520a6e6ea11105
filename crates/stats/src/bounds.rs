//! Closed forms of the concentration bounds stated in the paper.
//!
//! All bounds are *asymptotic* in the paper ("for some fixed constant c");
//! the functions here expose the constant as a parameter (default 1.0) so
//! experiments can fit it and verify it is stable — which is what
//! "reproducing a Theta-bound" means empirically.
//!
//! Paper references:
//! * Section 1.1 — complete-graph Chernoff baseline.
//! * Theorem 1 — random-walk estimation on the 2-d torus.
//! * Lemma 19 — generic accuracy from a re-collision sum `B(t)`.
//! * Theorem 21 — ring (Chebyshev-based alternative bound).
//! * Theorem 27 — network-size estimation sample complexity.
//! * Theorem 31 — average-degree estimation sample complexity.
//! * Theorem 32 — independent-sampling variant (Algorithm 4).

/// Rounds needed by the complete-graph (i.i.d. sampling) baseline of
/// Section 1.1: `t = 3·ln(2/δ) / (d·ε²)`.
///
/// Each round is an independent Bernoulli(d) collision sample, so the
/// standard Chernoff bound gives a `(1±ε)` estimate w.p. `1−δ` after this
/// many rounds.
///
/// # Panics
///
/// Panics if any argument is outside `(0, 1)` ranges (`d ≤ 1` is required
/// since a density larger than one agent per node is outside the model).
pub fn chernoff_rounds(eps: f64, delta: f64, d: f64) -> f64 {
    assert!(eps > 0.0 && eps < 1.0, "eps must lie in (0,1)");
    assert!(delta > 0.0 && delta < 1.0, "delta must lie in (0,1)");
    assert!(d > 0.0 && d <= 1.0, "density must lie in (0,1]");
    3.0 * (2.0 / delta).ln() / (d * eps * eps)
}

/// Theorem 1, first form: the accuracy reached after `t` rounds on the
/// 2-d torus: `ε(t) = c₁ · √(ln(1/δ)/(t·d)) · ln(2t)`.
///
/// # Panics
///
/// Panics if `t == 0`, `d ∉ (0,1]`, or `delta ∉ (0,1)`.
pub fn theorem1_epsilon(t: u64, d: f64, delta: f64, c1: f64) -> f64 {
    assert!(t > 0, "t must be positive");
    assert!(d > 0.0 && d <= 1.0, "density must lie in (0,1]");
    assert!(delta > 0.0 && delta < 1.0, "delta must lie in (0,1)");
    c1 * ((1.0 / delta).ln() / (t as f64 * d)).sqrt() * (2.0 * t as f64).ln()
}

/// Theorem 1, second form: rounds sufficient for a `(1±ε)` estimate w.p.
/// `1−δ`: `t = c₂ · ln(1/δ) · [ln ln(1/δ) + ln(1/(dε))]² / (d·ε²)`.
///
/// # Panics
///
/// Panics if `eps` or `delta` is outside `(0,1)` or `d ∉ (0,1]`.
pub fn theorem1_rounds(eps: f64, delta: f64, d: f64, c2: f64) -> f64 {
    assert!(eps > 0.0 && eps < 1.0, "eps must lie in (0,1)");
    assert!(delta > 0.0 && delta < 1.0, "delta must lie in (0,1)");
    assert!(d > 0.0 && d <= 1.0, "density must lie in (0,1]");
    let log_term = (1.0 / delta).ln().max(1.0);
    let inner = log_term.ln().max(0.0) + (1.0 / (d * eps)).ln().max(0.0);
    c2 * (1.0 / delta).ln() * inner * inner / (d * eps * eps)
}

/// Lemma 19: accuracy on a general regular graph from the re-collision sum
/// `B(t) = Σ_{m=0..t} β(m)`: `ε = c · √(ln(1/δ)/(t·d)) · B(t)`.
///
/// On the 2-d torus `B(t) = Θ(log 2t)` recovers Theorem 1.
///
/// # Panics
///
/// Panics if `t == 0`, `d ∉ (0,1]`, `delta ∉ (0,1)` or `b_t <= 0`.
pub fn lemma19_epsilon(t: u64, d: f64, delta: f64, b_t: f64, c: f64) -> f64 {
    assert!(t > 0, "t must be positive");
    assert!(d > 0.0 && d <= 1.0, "density must lie in (0,1]");
    assert!(delta > 0.0 && delta < 1.0, "delta must lie in (0,1)");
    assert!(b_t > 0.0, "B(t) must be positive");
    c * ((1.0 / delta).ln() / (t as f64 * d)).sqrt() * b_t
}

/// Theorem 21 (ring, Chebyshev-based): `ε = c·√(1/(√t·d·δ))`.
///
/// Note the linear (not logarithmic) dependence on `1/δ` and the `t^{1/4}`
/// convergence — both consequences of the ring's poor local mixing.
///
/// # Panics
///
/// Panics if `t == 0`, `d ∉ (0,1]`, or `delta ∉ (0,1)`.
pub fn theorem21_epsilon(t: u64, d: f64, delta: f64, c: f64) -> f64 {
    assert!(t > 0, "t must be positive");
    assert!(d > 0.0 && d <= 1.0, "density must lie in (0,1]");
    assert!(delta > 0.0 && delta < 1.0, "delta must lie in (0,1)");
    c * (1.0 / ((t as f64).sqrt() * d * delta)).sqrt()
}

/// Theorem 32 (Algorithm 4, independent sampling): `ε = c·√(ln(1/δ)/(t·d))`
/// — the grid bound *without* the `log 2t` factor.
///
/// # Panics
///
/// Panics if `t == 0`, `d ∉ (0,1]`, or `delta ∉ (0,1)`.
pub fn theorem32_epsilon(t: u64, d: f64, delta: f64, c: f64) -> f64 {
    assert!(t > 0, "t must be positive");
    assert!(d > 0.0 && d <= 1.0, "density must lie in (0,1]");
    assert!(delta > 0.0 && delta < 1.0, "delta must lie in (0,1)");
    c * ((1.0 / delta).ln() / (t as f64 * d)).sqrt()
}

/// Theorem 27: required `n²·t` for network-size estimation:
/// `n²t = c·(B(t)·|E| + |V|)/(ε²δ)` (equivalently `(B(t)·deḡ + 1)·|V|`
/// with `deḡ = 2|E|/|V|` up to the factor 2 absorbed in `c`).
///
/// # Panics
///
/// Panics if `eps`/`delta` outside `(0,1)`, or any size is zero/negative.
pub fn theorem27_n2t(b_t: f64, edges: f64, vertices: f64, eps: f64, delta: f64, c: f64) -> f64 {
    assert!(eps > 0.0 && eps < 1.0, "eps must lie in (0,1)");
    assert!(delta > 0.0 && delta < 1.0, "delta must lie in (0,1)");
    assert!(
        edges > 0.0 && vertices > 0.0,
        "graph sizes must be positive"
    );
    assert!(b_t >= 0.0, "B(t) must be non-negative");
    c * (b_t * edges + vertices) / (eps * eps * delta)
}

/// Theorem 31: walks needed to estimate `1/deḡ` to `(1±ε)` w.p. `1−δ`:
/// `n = c·deḡ/(deg_min·ε²·δ)`.
///
/// # Panics
///
/// Panics if degrees are non-positive or `eps`/`delta` outside `(0,1)`.
pub fn theorem31_walks(avg_deg: f64, min_deg: f64, eps: f64, delta: f64, c: f64) -> f64 {
    assert!(avg_deg > 0.0 && min_deg > 0.0, "degrees must be positive");
    assert!(
        min_deg <= avg_deg,
        "min degree cannot exceed average degree"
    );
    assert!(eps > 0.0 && eps < 1.0, "eps must lie in (0,1)");
    assert!(delta > 0.0 && delta < 1.0, "delta must lie in (0,1)");
    c * avg_deg / (min_deg * eps * eps * delta)
}

/// Burn-in length from Section 5.1.4: `M = c·ln(|E|/δ)/(1−λ)` steps bring a
/// walk within TV distance `δ/(n|E|)`-per-vertex of stationarity.
///
/// # Panics
///
/// Panics if `lambda ∉ [0,1)`, `edges == 0`, or `delta ∉ (0,1)`.
pub fn burnin_rounds(lambda: f64, edges: u64, delta: f64, c: f64) -> f64 {
    assert!((0.0..1.0).contains(&lambda), "lambda must lie in [0,1)");
    assert!(edges > 0, "graph must have edges");
    assert!(delta > 0.0 && delta < 1.0, "delta must lie in (0,1)");
    c * (edges as f64 / delta).ln() / (1.0 - lambda)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chernoff_rounds_scaling() {
        // Halving eps quadruples t; halving d doubles t.
        let base = chernoff_rounds(0.1, 0.05, 0.02);
        assert!((chernoff_rounds(0.05, 0.05, 0.02) / base - 4.0).abs() < 1e-9);
        assert!((chernoff_rounds(0.1, 0.05, 0.01) / base - 2.0).abs() < 1e-9);
    }

    #[test]
    fn theorem1_epsilon_decays_like_sqrt_t_logt() {
        // eps(t) * sqrt(t) / log(2t) must be constant in t.
        let f = |t: u64| {
            theorem1_epsilon(t, 0.02, 0.05, 1.0) * (t as f64).sqrt() / (2.0 * t as f64).ln()
        };
        let a = f(1 << 8);
        let b = f(1 << 16);
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn theorem1_rounds_monotone() {
        let t1 = theorem1_rounds(0.2, 0.05, 0.02, 1.0);
        let t2 = theorem1_rounds(0.1, 0.05, 0.02, 1.0);
        let t3 = theorem1_rounds(0.1, 0.01, 0.02, 1.0);
        assert!(t2 > t1, "smaller eps needs more rounds");
        assert!(t3 > t2, "smaller delta needs more rounds");
    }

    #[test]
    fn theorem1_roundtrip_is_consistent() {
        // Running for theorem1_rounds(eps) rounds should achieve roughly
        // epsilon <= eps (up to the log-factor slack absorbed in c3).
        let (eps, delta, d) = (0.1, 0.05, 0.02);
        let t = theorem1_rounds(eps, delta, d, 4.0).ceil() as u64;
        let achieved = theorem1_epsilon(t, d, delta, 1.0);
        assert!(
            achieved <= eps * 1.5,
            "achieved {achieved} should be near requested {eps}"
        );
    }

    #[test]
    fn lemma19_recovers_theorem1_on_torus() {
        // With B(t) = ln(2t) Lemma 19 equals Theorem 1 with c1 = c.
        let t = 4096;
        let bt = (2.0 * t as f64).ln();
        let a = lemma19_epsilon(t, 0.02, 0.05, bt, 1.0);
        let b = theorem1_epsilon(t, 0.02, 0.05, 1.0);
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn theorem21_quartic_convergence() {
        // eps(t) * t^{1/4} is constant.
        let f = |t: u64| theorem21_epsilon(t, 0.02, 0.1, 1.0) * (t as f64).powf(0.25);
        assert!((f(256) - f(65_536)).abs() < 1e-12);
    }

    #[test]
    fn theorem32_has_no_log_factor() {
        // ratio of theorem1 to theorem32 epsilon must equal ln(2t).
        let t = 1 << 12;
        let r = theorem1_epsilon(t, 0.02, 0.05, 1.0) / theorem32_epsilon(t, 0.02, 0.05, 1.0);
        assert!((r - (2.0 * t as f64).ln()).abs() < 1e-9);
    }

    #[test]
    fn theorem27_scales_linearly_in_v_for_constant_bt() {
        let n2t_small = theorem27_n2t(1.0, 3.0 * 1000.0, 1000.0, 0.1, 0.1, 1.0);
        let n2t_big = theorem27_n2t(1.0, 3.0 * 8000.0, 8000.0, 0.1, 0.1, 1.0);
        assert!((n2t_big / n2t_small - 8.0).abs() < 1e-9);
    }

    #[test]
    fn theorem31_regular_graph_needs_inverse_eps2_delta() {
        let n = theorem31_walks(6.0, 6.0, 0.1, 0.1, 1.0);
        assert!((n - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn burnin_grows_as_mixing_slows() {
        let fast = burnin_rounds(0.5, 10_000, 0.05, 1.0);
        let slow = burnin_rounds(0.99, 10_000, 0.05, 1.0);
        assert!(slow > fast * 10.0);
    }

    #[test]
    #[should_panic(expected = "eps must lie in (0,1)")]
    fn rejects_bad_eps() {
        let _ = chernoff_rounds(0.0, 0.1, 0.1);
    }

    #[test]
    #[should_panic(expected = "delta must lie in (0,1)")]
    fn rejects_bad_delta() {
        let _ = theorem1_rounds(0.1, 1.0, 0.1, 1.0);
    }

    #[test]
    #[should_panic(expected = "density must lie in (0,1]")]
    fn rejects_bad_density() {
        let _ = theorem1_epsilon(100, 0.0, 0.1, 1.0);
    }
}
