//! Spectral quantities of the random-walk matrix.
//!
//! The expander bound (Lemma 23/24) and the burn-in analysis (Section
//! 5.1.4) are parameterised by `λ = max(|λ₂|, |λ_A|)` of the walk matrix
//! `W = D⁻¹A`. We estimate λ by power iteration on the symmetrised matrix
//! `S = D^{−1/2} A D^{−1/2}` (similar to `W`, hence same spectrum) after
//! deflating its known top eigenvector `φ₁(v) ∝ √deg(v)`.
//!
//! Each iteration's `S x` runs in pull form: one division per distinct
//! `(node, scale)` pair into a contiguous slot buffer, then one register
//! sum per target over its incoming slots. Its bits are those of the
//! push form `y[u] += x[v] / s`, which the tests keep as the reference
//! (the argument is on the private `WalkOperator::matvec`).

use crate::topology::{NodeId, Topology};
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
    power_iterate(&op, &[stationary(graph)], max_iters, rng)
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
    let phi = stationary(graph);
    match bipartite_signs(graph) {
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

/// The top eigenvector of `S`: `φ(v) = √deg(v)`, normalised.
fn stationary<T: Topology>(graph: &T) -> Vec<f64> {
    let mut phi: Vec<f64> = (0..graph.num_nodes())
        .map(|v| (graph.degree(v) as f64).sqrt())
        .collect();
    normalize(&mut phi);
    phi
}

/// BFS 2-coloring over every component: `Some(±1 per node)` when the
/// graph is bipartite, `None` otherwise (including self-loop moves).
fn bipartite_signs<T: Topology>(graph: &T) -> Option<Vec<i8>> {
    let n = graph.num_nodes() as usize;
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
            for i in 0..graph.degree(v as NodeId) {
                let u = graph.neighbor(v as NodeId, i);
                let su = &mut sign[u as usize];
                if *su == 0 {
                    *su = -sv;
                    queue.push_back(u as usize);
                } else if *su == sv {
                    return None;
                }
            }
        }
    }
    Some(sign)
}

/// `S = D^{−1/2} A D^{−1/2}` (A with move multiplicity) in pull form,
/// built once per estimate. The entry of `S` for a move `v → u` is
/// `1 / s` with `s = √(deg v · deg u)`.
///
/// - **Quotient slots.** Each node owns one slot per distinct `s` among
///   its moves: slot `k` stands for `x[slot_source[k]] / scale[k]`. A
///   node whose moves share one scale (every node of a regular graph)
///   pays one division instead of one per move, and the divisions run
///   as one contiguous pass.
/// - **Rows.** Each target sums the slots of its incoming moves, sources
///   ascending and each source's moves in neighbor-index order. Rows are
///   grouped by in-degree: `groups` holds `(in-degree, row count)` runs
///   over `rows`, and each row's slot indices are the next in-degree
///   entries of `cols`. A group's inner loop has one trip count, and no
///   row is padded.
///
/// Memory is `O(n + moves)`: four bytes per move, four per node and
/// twelve per slot.
struct WalkOperator {
    slot_source: Vec<u32>,
    scale: Vec<f64>,
    rows: Vec<u32>,
    cols: Vec<u32>,
    groups: Vec<(usize, usize)>,
}

impl WalkOperator {
    fn new<T: Topology>(graph: &T) -> Self {
        let n = graph.num_nodes() as usize;
        let index = |i: usize| u32::try_from(i).expect("walk operator index exceeds u32");
        let degree: Vec<usize> = (0..n).map(|v| graph.degree(v as NodeId)).collect();
        // Every move as (target, slot), in push order. A source's scales
        // differ exactly where its targets' degrees do, so `slot_of[deg u]`
        // is the source's slot for `u` when it lies in that source's range.
        let mut moves: Vec<(u32, u32)> = Vec::with_capacity(degree.iter().sum());
        let (mut slot_source, mut scale) = (Vec::with_capacity(n), Vec::with_capacity(n));
        let mut slot_of = vec![usize::MAX; degree.iter().copied().max().unwrap_or(0) + 1];
        let mut at = vec![0usize; n];
        for (v, &dv) in degree.iter().enumerate() {
            let first = scale.len();
            for i in 0..dv {
                let u = graph.neighbor(v as NodeId, i) as usize;
                let slot = &mut slot_of[degree[u]];
                if !(first..scale.len()).contains(slot) {
                    *slot = scale.len();
                    slot_source.push(index(v));
                    scale.push((dv as f64 * degree[u] as f64).sqrt());
                }
                moves.push((index(u), index(*slot)));
                at[u] += 1;
            }
        }
        // Rows by (in-degree, node), a counting sort. `at[u]` is first
        // `u`'s in-degree, then where its next slot index goes in `cols`.
        let mut row_at = vec![0usize; at.iter().copied().max().unwrap_or(0) + 1];
        at.iter().for_each(|&d| row_at[d] += 1);
        let groups: Vec<(usize, usize)> = (row_at.iter().enumerate())
            .filter(|&(_, &count)| count > 0)
            .map(|(d, &count)| (d, count))
            .collect();
        let mut col_at = vec![0usize; row_at.len()];
        let (mut rows_before, mut cols_before) = (0, 0);
        for (d, (row, col)) in row_at.iter_mut().zip(&mut col_at).enumerate() {
            (*col, cols_before) = (cols_before, cols_before + d * *row);
            (*row, rows_before) = (rows_before, rows_before + *row);
        }
        let mut rows = vec![0u32; n];
        for (u, at) in at.iter_mut().enumerate() {
            let d = *at;
            rows[row_at[d]] = index(u);
            row_at[d] += 1;
            *at = col_at[d];
            col_at[d] += d;
        }
        let mut cols = vec![0u32; moves.len()];
        for (u, slot) in moves {
            let at = &mut at[u as usize];
            cols[*at] = slot;
            *at += 1;
        }
        Self {
            slot_source,
            scale,
            rows,
            cols,
            groups,
        }
    }

    fn num_nodes(&self) -> usize {
        self.rows.len()
    }

    fn num_slots(&self) -> usize {
        self.scale.len()
    }

    /// `y = S x`, with `q` as scratch for [`Self::num_slots`] quotients.
    ///
    /// Bit for bit the push form: `y = 0`, then `y[u] += x[v] / s` along
    /// every move of every `v` with `x[v] ≠ 0`, sources ascending and
    /// moves in neighbor-index order. Each slot holds that same quotient,
    /// and each row adds its moves' quotients in that same order from
    /// `+0.0`. A sum started at `+0.0` never becomes `−0.0`, so the
    /// `±0.0` quotients the push skips change nothing here. The division
    /// (not a multiply by `1 / s`) and the summation order are part of
    /// λ's bit pattern.
    fn matvec(&self, x: &[f64], q: &mut [f64], y: &mut [f64]) {
        for (qk, &v) in q.iter_mut().zip(&self.slot_source) {
            *qk = x[v as usize];
        }
        for (qk, s) in q.iter_mut().zip(&self.scale) {
            *qk /= s;
        }
        let (mut rows, mut cols) = (&self.rows[..], &self.cols[..]);
        for &(degree, count) in &self.groups {
            let (here, rest) = rows.split_at(count);
            rows = rest;
            if degree == 0 {
                here.iter().for_each(|&u| y[u as usize] = 0.0);
                continue;
            }
            let (block, rest) = cols.split_at(count * degree);
            cols = rest;
            sum_rows(degree, here, block, q, y);
        }
    }
}

/// Sums each row's slots in order into `y[row]`, four rows at a time so
/// their add chains overlap.
fn sum_rows(degree: usize, rows: &[u32], block: &[u32], q: &[f64], y: &mut [f64]) {
    let quads = rows.chunks_exact(4).zip(block.chunks_exact(4 * degree));
    for (us, ks) in quads {
        let (k0, rest) = ks.split_at(degree);
        let (k1, rest) = rest.split_at(degree);
        let (k2, k3) = rest.split_at(degree);
        let mut acc = [0.0f64; 4];
        for j in 0..degree {
            acc[0] += q[k0[j] as usize];
            acc[1] += q[k1[j] as usize];
            acc[2] += q[k2[j] as usize];
            acc[3] += q[k3[j] as usize];
        }
        for (&u, a) in us.iter().zip(acc) {
            y[u as usize] = a;
        }
    }
    let done = rows.len() / 4 * 4;
    for (&u, ks) in rows[done..]
        .iter()
        .zip(block[done * degree..].chunks_exact(degree))
    {
        y[u as usize] = ks.iter().fold(0.0, |acc, &k| acc + q[k as usize]);
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
    let mut q = vec![0.0; op.num_slots()];
    let mut lambda = 0.0f64;
    let mut residual = f64::INFINITY;
    let mut iters = 0;
    for it in 0..max_iters {
        iters = it + 1;
        op.matvec(&x, &mut q, &mut y);
        let norm = deflated_norm(&mut y, deflators);
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

/// [`deflate`]s `y` by each of `deflators` in turn and returns `‖y‖`,
/// with each axpy fused into the pass that sums the next dot product
/// (or the squared norm). Every reduction runs in element order from
/// `Iterator::sum`'s start, so the result equals the unfused passes bit
/// for bit.
fn deflated_norm(y: &mut [f64], deflators: &[Vec<f64>]) -> f64 {
    let (first, rest) = deflators
        .split_first()
        .expect("every estimate deflates the stationary vector");
    let mut dot: f64 = y.iter().zip(first).map(|(a, b)| a * b).sum();
    let mut phi = first;
    for next in rest {
        let mut sum = SUM_START;
        for ((yi, pi), ni) in y.iter_mut().zip(phi).zip(next) {
            *yi -= dot * pi;
            sum += *yi * ni;
        }
        (dot, phi) = (sum, next);
    }
    let mut sum = SUM_START;
    for (yi, pi) in y.iter_mut().zip(phi) {
        *yi -= dot * pi;
        sum += *yi * *yi;
    }
    sum.sqrt()
}

/// The value `Iterator::sum` starts an `f64` sum from.
const SUM_START: f64 = -0.0;

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
    use crate::generators::{
        barabasi_albert, complete_adj, cycle_graph, random_regular, star_graph,
    };
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    /// The push form [`WalkOperator::matvec`] must match bit for bit,
    /// read straight off the topology: `y[u] += x[v] / s` along each
    /// move, sources ascending, zero entries skipped.
    fn push_matvec<T: Topology>(graph: &T, x: &[f64], y: &mut [f64]) {
        y.fill(0.0);
        for (v, &xv) in x.iter().enumerate() {
            if xv == 0.0 {
                continue;
            }
            let dv = graph.degree(v as NodeId) as f64;
            for i in 0..graph.degree(v as NodeId) {
                let u = graph.neighbor(v as NodeId, i);
                y[u as usize] += xv / (dv * graph.degree(u) as f64).sqrt();
            }
        }
    }

    /// A symmetric multigraph given by its move lists, in any order:
    /// self-loops, duplicate moves and isolated nodes allowed.
    struct Moves(Vec<Vec<NodeId>>);

    impl Topology for Moves {
        fn num_nodes(&self) -> u64 {
            self.0.len() as u64
        }
        fn degree(&self, v: NodeId) -> usize {
            self.0[v as usize].len()
        }
        fn neighbor(&self, v: NodeId, i: usize) -> NodeId {
            self.0[v as usize][i]
        }
    }

    /// Random multigraph on `n` nodes with `edges` random edges (each
    /// listed from both ends), then `leaves` degree-1 leaves hung off
    /// random nodes; every move list shuffled.
    fn multigraph(n: usize, edges: usize, leaves: usize, rng: &mut SmallRng) -> Moves {
        let mut moves = vec![Vec::new(); n];
        for _ in 0..edges {
            let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
            moves[a].push(b as NodeId);
            moves[b].push(a as NodeId);
        }
        for _ in 0..leaves {
            let (a, leaf) = (rng.gen_range(0..moves.len()), moves.len());
            moves[a].push(leaf as NodeId);
            moves.push(vec![a as NodeId]);
        }
        moves.iter_mut().for_each(|m| m.shuffle(rng));
        Moves(moves)
    }

    /// One of the property families as a move list: a multigraph, a
    /// multigraph with leaves, a star or a Barabási–Albert graph.
    fn family(kind: u8, seed: u64) -> Moves {
        let mut rng = SmallRng::seed_from_u64(seed);
        let n = rng.gen_range(2..60);
        let from = |g: &dyn Topology| {
            Moves(
                (0..g.num_nodes())
                    .map(|v| (0..g.degree(v)).map(|i| g.neighbor(v, i)).collect())
                    .collect(),
            )
        };
        match kind {
            0 => multigraph(n, rng.gen_range(1..4 * n), 0, &mut rng),
            1 => multigraph(n, rng.gen_range(1..2 * n), rng.gen_range(1..n), &mut rng),
            2 => from(&star_graph(n as u64 + 1)),
            _ => from(&barabasi_albert(n as u64 + 4, rng.gen_range(1..4), &mut rng).unwrap()),
        }
    }

    /// Entries that mix `±0.0`, subnormals and ordinary values across
    /// several magnitudes.
    fn entries(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|_| match rng.gen_range(0..8) {
                0 => 0.0,
                1 => -0.0,
                2 => f64::MIN_POSITIVE * rng.gen_range(-1.0..1.0),
                _ => rng.gen_range(-1.0..1.0) * 10f64.powi(rng.gen_range(-4..4)),
            })
            .collect()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]
        #[test]
        fn pull_matvec_is_the_push_matvec_bit_for_bit(kind in 0u8..4, seed in any::<u64>()) {
            let graph = family(kind, seed);
            let n = graph.num_nodes() as usize;
            let moves: usize = (0..n).map(|v| graph.degree(v as NodeId)).sum();
            let op = WalkOperator::new(&graph);
            // no padding: one slot index per move, at most one slot per move
            prop_assert_eq!((op.num_nodes(), op.cols.len()), (n, moves));
            prop_assert!(op.num_slots() <= moves);
            let x = entries(n, seed ^ 0x5eed);
            let (mut q, mut pull, mut push) = (vec![0.0; op.num_slots()], vec![1.0; n], vec![0.0; n]);
            op.matvec(&x, &mut q, &mut pull);
            push_matvec(&graph, &x, &mut push);
            prop_assert_eq!(bits(&pull), bits(&push), "kind {} x {:?}", kind, x);
        }

        #[test]
        fn fused_deflation_is_deflate_then_sum_bit_for_bit(
            n in 3usize..80,
            count in 1usize..3,
            seed in any::<u64>(),
        ) {
            let deflators: Vec<Vec<f64>> = (0..count as u64)
                .map(|i| {
                    let mut d = entries(n, seed.wrapping_add(i + 1));
                    d[0] = 1.0; // never the zero vector
                    normalize(&mut d);
                    d
                })
                .collect();
            let mut fused = entries(n, seed);
            let mut plain = fused.clone();
            let norm = deflated_norm(&mut fused, &deflators);
            deflators.iter().for_each(|d| deflate(&mut plain, d));
            let expect = plain.iter().map(|v| v * v).sum::<f64>().sqrt();
            prop_assert_eq!(norm.to_bits(), expect.to_bits());
            prop_assert_eq!(bits(&fused), bits(&plain));
        }
    }

    #[test]
    fn sum_start_is_the_iterator_sums_start() {
        let empty: f64 = std::iter::empty::<f64>().sum();
        assert_eq!(empty.to_bits(), SUM_START.to_bits());
    }

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
