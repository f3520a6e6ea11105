//! Spectral quantities of the random-walk matrix.
//!
//! The expander bound (Lemma 23/24) and the burn-in analysis (Section
//! 5.1.4) are parameterised by `λ = max(|λ₂|, |λ_A|)` of the walk matrix
//! `W = D⁻¹A`. We estimate λ by power iteration on the symmetrised matrix
//! `S = D^{−1/2} A D^{−1/2}` (similar to `W`, hence same spectrum) after
//! deflating its known top eigenvector `φ₁(v) ∝ √deg(v)`.

use crate::topology::Topology;
use rand::Rng;

/// Result of a spectral estimation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpectralEstimate {
    /// Estimated `λ = max(|λ₂|, |λ_A|)` of the walk matrix.
    pub lambda: f64,
    /// Number of power iterations performed.
    pub iterations: u32,
    /// Relative change of the estimate in the final iteration.
    pub residual: f64,
}

impl SpectralEstimate {
    /// The spectral gap `1 − λ` (clamped at 0).
    pub fn gap(&self) -> f64 {
        (1.0 - self.lambda).max(0.0)
    }
}

/// Estimates `λ = max(|λ₂|, |λ_A|)` of the walk matrix of `graph` by
/// deflated power iteration.
///
/// Generic over any [`Topology`] — structured tori and
/// [`crate::CsrGraph`] alike, with neighbor multiplicities entering
/// the walk matrix exactly as they enter the walk itself. This is the
/// numeric fallback the theory layer uses when a topology has no
/// closed-form re-collision envelope: measure λ, apply the expander
/// bound (Lemma 23/24) with it.
///
/// `λ = 1` (up to tolerance) signals a bipartite or disconnected graph —
/// random walks on it never mix.
///
/// # Panics
///
/// Panics if `max_iters == 0`.
pub fn walk_matrix_lambda<T: Topology, R: Rng + ?Sized>(
    graph: &T,
    max_iters: u32,
    rng: &mut R,
) -> SpectralEstimate {
    let op = WalkOperator::new(graph);
    power_iterate(&op, &[op.stationary()], max_iters, rng)
}

/// The **decay rate** of the walk's non-structural modes: the largest
/// `|λ|` after deflating the stationary eigenvector *and*, on bipartite
/// graphs, the parity eigenvector `ψ(v) = ±√deg(v)` (eigenvalue −1).
///
/// On non-bipartite graphs this equals [`walk_matrix_lambda`]. On
/// bipartite graphs the plain estimate saturates at `λ = 1` even though
/// *co-located* walkers still separate and re-meet (they share parity,
/// so the −1 mode only contributes the `1/A`-scale floor that the
/// re-collision envelopes carry as a separate term — the paper's
/// hypercube treatment, Lemma 25, is the closed-form instance of the
/// same observation). This is therefore the right λ to feed the
/// expander envelope on masked-lattice graphs, which are bipartite by
/// construction (subgraphs of the grid).
///
/// # Panics
///
/// Panics if `max_iters == 0`.
pub fn effective_lambda<T: Topology, R: Rng + ?Sized>(
    graph: &T,
    max_iters: u32,
    rng: &mut R,
) -> SpectralEstimate {
    let op = WalkOperator::new(graph);
    let phi = op.stationary();
    match op.bipartite_signs() {
        Some(signs) => {
            let mut psi: Vec<f64> = phi
                .iter()
                .zip(&signs)
                .map(|(p, &s)| p * f64::from(s))
                .collect();
            normalize(&mut psi);
            power_iterate(&op, &[phi, psi], max_iters, rng)
        }
        None => power_iterate(&op, &[phi], max_iters, rng),
    }
}

/// `S = D^{−1/2} A D^{−1/2}` (A with move multiplicity), flattened once
/// per estimate: `v`'s moves are `offsets[v]..offsets[v + 1]`, in
/// neighbor-index order, each with its target and its scale
/// `s = √(deg v · deg u)` (the entry of `S` is `1 / s`). Power
/// iteration then runs over flat slices instead of re-walking the
/// topology's neighbor and degree lookups every iteration.
struct WalkOperator {
    offsets: Vec<usize>,
    targets: Vec<usize>,
    scale: Vec<f64>,
}

impl WalkOperator {
    fn new<T: Topology>(graph: &T) -> Self {
        let n = graph.num_nodes();
        let degree: Vec<f64> = (0..n).map(|v| graph.degree(v) as f64).collect();
        let mut offsets = Vec::with_capacity(degree.len() + 1);
        offsets.push(0);
        let (mut targets, mut scale) = (Vec::new(), Vec::new());
        for v in 0..n {
            let dv = degree[v as usize];
            for i in 0..graph.degree(v) {
                let u = graph.neighbor(v, i) as usize;
                targets.push(u);
                scale.push((dv * degree[u]).sqrt());
            }
            offsets.push(targets.len());
        }
        Self {
            offsets,
            targets,
            scale,
        }
    }

    fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// `v`'s outgoing moves as (targets, scales).
    fn edges(&self, v: usize) -> (&[usize], &[f64]) {
        let range = self.offsets[v]..self.offsets[v + 1];
        (&self.targets[range.clone()], &self.scale[range])
    }

    /// The top eigenvector of `S`: `φ(v) = √deg(v)`, normalised.
    fn stationary(&self) -> Vec<f64> {
        let mut phi: Vec<f64> = self
            .offsets
            .windows(2)
            .map(|w| ((w[1] - w[0]) as f64).sqrt())
            .collect();
        normalize(&mut phi);
        phi
    }

    /// BFS 2-coloring over every component: `Some(±1 per node)` when the
    /// graph is bipartite, `None` otherwise (including self-loop moves).
    fn bipartite_signs(&self) -> Option<Vec<i8>> {
        let n = self.num_nodes();
        let mut sign = vec![0i8; n];
        let mut queue = std::collections::VecDeque::new();
        for start in 0..n {
            if sign[start] != 0 {
                continue;
            }
            sign[start] = 1;
            queue.push_back(start);
            while let Some(v) = queue.pop_front() {
                let sv = sign[v];
                for &u in self.edges(v).0 {
                    let su = &mut sign[u];
                    if *su == 0 {
                        *su = -sv;
                        queue.push_back(u);
                    } else if *su == sv {
                        return None;
                    }
                }
            }
        }
        Some(sign)
    }

    /// `y = S x`, pushed from each `v` along its moves in order. The
    /// summation order and the `xv / s` division are part of the
    /// estimate's bit pattern: pinned λ values depend on both.
    fn matvec(&self, x: &[f64], y: &mut [f64]) {
        y.fill(0.0);
        for (v, &xv) in x.iter().enumerate() {
            if xv == 0.0 {
                continue;
            }
            let (targets, scale) = self.edges(v);
            for (&u, &s) in targets.iter().zip(scale) {
                y[u] += xv / s;
            }
        }
    }
}

/// Deflated power iteration on `S`: the largest `|λ|` orthogonal to
/// every vector in `deflators` (which must be normalised).
///
/// # Panics
///
/// Panics if `max_iters == 0`.
fn power_iterate<R: Rng + ?Sized>(
    op: &WalkOperator,
    deflators: &[Vec<f64>],
    max_iters: u32,
    rng: &mut R,
) -> SpectralEstimate {
    assert!(max_iters > 0, "need at least one iteration");
    let n = op.num_nodes();
    if n <= deflators.len() {
        // the deflated subspace is empty: no non-structural modes
        return SpectralEstimate {
            lambda: 0.0,
            iterations: 0,
            residual: 0.0,
        };
    }
    let deflate_all = |x: &mut [f64]| {
        for d in deflators {
            deflate(x, d);
        }
    };
    // Random start, deflated.
    let mut x: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
    deflate_all(&mut x);
    normalize(&mut x);
    let mut y = vec![0.0; n];
    let mut lambda = 0.0f64;
    let mut residual = f64::INFINITY;
    let mut iters = 0;
    for it in 0..max_iters {
        iters = it + 1;
        op.matvec(&x, &mut y);
        deflate_all(&mut y);
        let norm = y.iter().map(|v| v * v).sum::<f64>().sqrt();
        if norm < 1e-300 {
            // x was (numerically) in the kernel; restart from fresh noise.
            for v in x.iter_mut() {
                *v = rng.gen_range(-1.0..1.0);
            }
            deflate_all(&mut x);
            normalize(&mut x);
            continue;
        }
        let new_lambda = norm; // since ||x|| = 1
        residual = ((new_lambda - lambda) / new_lambda.max(1e-300)).abs();
        lambda = new_lambda;
        for (xi, yi) in x.iter_mut().zip(&y) {
            *xi = yi / norm;
        }
        if residual < 1e-10 && it > 10 {
            break;
        }
    }
    SpectralEstimate {
        lambda: lambda.min(1.0),
        iterations: iters,
        residual,
    }
}

fn deflate(x: &mut [f64], phi: &[f64]) {
    let dot: f64 = x.iter().zip(phi).map(|(a, b)| a * b).sum();
    for (xi, pi) in x.iter_mut().zip(phi) {
        *xi -= dot * pi;
    }
}

fn normalize(x: &mut [f64]) {
    let norm = x.iter().map(|v| v * v).sum::<f64>().sqrt();
    assert!(norm > 0.0, "cannot normalise the zero vector");
    x.iter_mut().for_each(|v| *v /= norm);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::WalkDistribution;
    use crate::generators::{complete_adj, cycle_graph, random_regular, star_graph};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn complete_graph_lambda_is_one_over_n_minus_one() {
        // Walk matrix of K_n (no self-loops): lambda_2 = ... = -1/(n-1).
        let g = complete_adj(10);
        let mut rng = SmallRng::seed_from_u64(1);
        let est = walk_matrix_lambda(&g, 2000, &mut rng);
        assert!(
            (est.lambda - 1.0 / 9.0).abs() < 1e-6,
            "lambda {} should be 1/9",
            est.lambda
        );
    }

    #[test]
    fn odd_cycle_lambda_is_cos_pi_over_n() {
        // C_5 eigenvalues are cos(2 pi k / 5); the largest magnitude below 1
        // is |cos(4 pi / 5)| = cos(pi/5) ~ 0.809017.
        let g = cycle_graph(5);
        let mut rng = SmallRng::seed_from_u64(2);
        let est = walk_matrix_lambda(&g, 5000, &mut rng);
        assert!(
            (est.lambda - (std::f64::consts::PI / 5.0).cos()).abs() < 1e-5,
            "lambda {}",
            est.lambda
        );
    }

    #[test]
    fn bipartite_star_has_lambda_one() {
        let g = star_graph(8);
        let mut rng = SmallRng::seed_from_u64(3);
        let est = walk_matrix_lambda(&g, 2000, &mut rng);
        assert!(
            est.lambda > 0.999,
            "bipartite lambda {} must be ~1",
            est.lambda
        );
        assert!(est.gap() < 1e-3);
    }

    #[test]
    fn random_regular_graph_is_an_expander() {
        let mut rng = SmallRng::seed_from_u64(4);
        let g = random_regular(200, 8, 500, &mut rng).unwrap();
        let est = walk_matrix_lambda(&g, 2000, &mut rng);
        // Friedman: lambda ~ 2 sqrt(d-1)/d + o(1) ~ 0.66 for d = 8.
        assert!(est.lambda < 0.85, "regular graph lambda {}", est.lambda);
        assert!(
            est.lambda > 0.3,
            "lambda suspiciously small: {}",
            est.lambda
        );
    }

    #[test]
    fn lambda_predicts_tv_decay_on_odd_cycle() {
        // TV(m) decays roughly like lambda^m for reversible chains.
        let g = cycle_graph(9);
        let mut rng = SmallRng::seed_from_u64(5);
        let lambda = walk_matrix_lambda(&g, 5000, &mut rng).lambda;
        let stationary = WalkDistribution::stationary(&g);
        let mut dist = WalkDistribution::point(&g, 0);
        dist.evolve(&g, 50);
        let tv50 = dist.tv_distance(&stationary);
        dist.evolve(&g, 50);
        let tv100 = dist.tv_distance(&stationary);
        let measured_ratio = (tv100 / tv50).powf(1.0 / 50.0);
        assert!(
            (measured_ratio - lambda).abs() < 0.05,
            "decay rate {measured_ratio} vs lambda {lambda}"
        );
    }

    #[test]
    fn generic_lambda_agrees_between_adj_and_csr_and_structured() {
        // same graph, three representations, one spectrum: the sorted
        // simple-graph build, the move-order rebuild, and the ring itself
        let cycle = crate::torus::Ring::new(9);
        let adj = cycle_graph(9);
        let csr = crate::csr::CsrGraph::from_topology(&cycle);
        let l_adj = walk_matrix_lambda(&adj, 3000, &mut SmallRng::seed_from_u64(6)).lambda;
        let l_csr = walk_matrix_lambda(&csr, 3000, &mut SmallRng::seed_from_u64(6)).lambda;
        let l_ring = walk_matrix_lambda(&cycle, 3000, &mut SmallRng::seed_from_u64(6)).lambda;
        assert!((l_adj - l_csr).abs() < 1e-9, "{l_adj} vs {l_csr}");
        assert!((l_adj - l_ring).abs() < 1e-9, "{l_adj} vs {l_ring}");
        // C_9 eigenvalues are cos(2 pi k / 9); the largest magnitude
        // below 1 is |cos(8 pi / 9)| = cos(pi / 9).
        let expect = (std::f64::consts::PI / 9.0).cos();
        assert!((l_adj - expect).abs() < 1e-5, "{l_adj} vs {expect}");
    }

    #[test]
    fn effective_lambda_deflates_the_bipartite_parity_mode() {
        // Even cycle C_16: bipartite, so the plain estimate saturates at
        // 1, while the effective estimate reports the true decay mode
        // cos(2 pi / 16).
        let g = cycle_graph(16);
        let plain = walk_matrix_lambda(&g, 4000, &mut SmallRng::seed_from_u64(21));
        assert!(
            plain.lambda > 0.999,
            "bipartite plain lambda {}",
            plain.lambda
        );
        let eff = effective_lambda(&g, 4000, &mut SmallRng::seed_from_u64(21));
        let expect = (2.0 * std::f64::consts::PI / 16.0).cos();
        assert!(
            (eff.lambda - expect).abs() < 1e-5,
            "effective lambda {} vs cos(2pi/16) = {expect}",
            eff.lambda
        );
    }

    #[test]
    fn effective_lambda_equals_plain_on_non_bipartite() {
        let g = cycle_graph(9);
        let a = walk_matrix_lambda(&g, 4000, &mut SmallRng::seed_from_u64(22));
        let b = effective_lambda(&g, 4000, &mut SmallRng::seed_from_u64(22));
        assert_eq!(a, b);
    }

    #[test]
    fn effective_lambda_responds_to_grid_holes() {
        // Masked lattices are bipartite (grid subgraphs): the effective
        // estimate stays strictly informative where the plain one
        // saturates.
        let mut mask_rng = SmallRng::seed_from_u64(23);
        let holed = crate::generators::grid_with_holes(12, 0.3, &mut mask_rng).unwrap();
        let plain = walk_matrix_lambda(&holed, 4000, &mut SmallRng::seed_from_u64(24));
        assert!(plain.lambda > 0.999, "grid subgraph must be bipartite");
        let eff = effective_lambda(&holed, 4000, &mut SmallRng::seed_from_u64(24));
        assert!(
            eff.lambda < 0.9999 && eff.lambda > 0.5,
            "effective lambda {} should reflect slow-but-real mixing",
            eff.lambda
        );
    }

    #[test]
    fn degenerate_deflation_reports_zero() {
        // path on 2 nodes: bipartite with n == number of deflators
        let g = crate::generators::path_graph(2);
        let eff = effective_lambda(&g, 100, &mut SmallRng::seed_from_u64(25));
        assert_eq!(eff.lambda, 0.0);
    }

    #[test]
    fn estimate_is_deterministic_given_seed() {
        let g = cycle_graph(7);
        let a = walk_matrix_lambda(&g, 500, &mut SmallRng::seed_from_u64(9));
        let b = walk_matrix_lambda(&g, 500, &mut SmallRng::seed_from_u64(9));
        assert_eq!(a, b);
    }
}
