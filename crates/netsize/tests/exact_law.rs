//! Algorithm 2 against its exact law on a tiny irregular graph.
//!
//! On the paw (a triangle `0 1 2` with a pendant `3` on node 0, degrees
//! 3, 2, 2, 1) three walks and four counting rounds have few enough
//! joint states to evolve exactly: a DP over walker-position tuples
//! carries the degree-weighted collision total `W = Σ_r Σ_j count/deg`
//! along with the positions. `W` is a multiple of `1/6` (the lcm of the
//! degrees), so the DP keys it by the integer `6W`.
//!
//! Each test runs Algorithm 2 for 20,000 seeds and fits the observed law
//! of `6W` with a χ² goodness-of-fit test at α = 1e-4, pooling the cells
//! whose expected count is below 5. The stationary start also gets a
//! z-test of Lemma 28's exact mean `E[C] = 1/|V|`. The seeded start
//! burns in from the pendant for two uncounted rounds, far from
//! stationarity, so the law shows when burn-in rounds are counted or
//! when a round is counted before its move.

use antdensity_graphs::{CsrGraph, NodeId, Topology};
use antdensity_netsize::algorithm2::{Algorithm2, StartMode};
use antdensity_stats::ci::normal_quantile;

const WALKS: usize = 3;
const ROUNDS: u64 = 4;
const RUNS: u64 = 20_000;
const ALPHA: f64 = 1e-4;
/// The lcm of the paw's degrees: `6W` is an integer.
const SCALE: f64 = 6.0;

fn paw() -> CsrGraph {
    CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 0), (0, 3)]).unwrap()
}

/// Walker-position tuples, each walker's node a base-`nodes` digit.
fn tuple(code: usize, nodes: usize) -> [NodeId; WALKS] {
    let mut out = [0; WALKS];
    for (j, slot) in out.iter_mut().enumerate() {
        *slot = ((code / nodes.pow(j as u32)) % nodes) as NodeId;
    }
    out
}

fn code(walkers: &[NodeId; WALKS], nodes: usize) -> usize {
    walkers
        .iter()
        .enumerate()
        .map(|(j, &v)| v as usize * nodes.pow(j as u32))
        .sum()
}

/// `6·Σ_j count(w_j)/deg(w_j)` for one round's positions.
fn round_weight(g: &CsrGraph, walkers: &[NodeId; WALKS]) -> usize {
    walkers
        .iter()
        .map(|&v| {
            let others = walkers.iter().filter(|&&u| u == v).count() - 1;
            others * SCALE as usize / g.degree(v)
        })
        .sum()
}

/// The exact law of `6W`: evolve the tuple law one synchronous round at
/// a time, adding each counted round's weight after the move.
fn exact_law(g: &CsrGraph, start: &[f64], burnin: u64) -> Vec<f64> {
    let nodes = g.num_nodes() as usize;
    let states = nodes.pow(WALKS as u32);
    let max_weight = ROUNDS as usize * WALKS * (WALKS - 1) * SCALE as usize + 1;
    // law[state][6W]
    let mut law = vec![vec![0.0; max_weight]; states];
    for (s, &p) in start.iter().enumerate() {
        law[s][0] = p;
    }
    for round in 1..=burnin + ROUNDS {
        let mut next = vec![vec![0.0; max_weight]; states];
        for (s, row) in law.iter().enumerate() {
            let here = tuple(s, nodes);
            let moves: usize = here.iter().map(|&v| g.degree(v)).product();
            for choice in 0..moves {
                let mut to = here;
                let mut rest = choice;
                for slot in to.iter_mut() {
                    let d = g.degree(*slot);
                    *slot = g.neighbor(*slot, rest % d);
                    rest /= d;
                }
                let add = if round > burnin {
                    round_weight(g, &to)
                } else {
                    0
                };
                let target = &mut next[code(&to, nodes)];
                for (w, &p) in row.iter().enumerate() {
                    if p > 0.0 {
                        target[w + add] += p / moves as f64;
                    }
                }
            }
        }
        law = next;
    }
    let mut out = vec![0.0; max_weight];
    for row in &law {
        for (w, &p) in row.iter().enumerate() {
            out[w] += p;
        }
    }
    out
}

/// Observed counts of `6W` over [`RUNS`] seeded runs (at least `len`
/// cells), and the runs' `W`.
fn observed_law(g: &CsrGraph, start: StartMode, len: usize) -> (Vec<u64>, Vec<f64>) {
    let alg = Algorithm2::new(WALKS, ROUNDS);
    let mut counts = vec![0u64; len];
    let mut weights = Vec::with_capacity(RUNS as usize);
    for seed in 0..RUNS {
        let w = alg.run(g, g.avg_degree(), start, seed).weighted_collisions;
        let key = (w * SCALE).round();
        assert!(
            (w * SCALE - key).abs() < 1e-9,
            "6W = {} is not an integer",
            w * SCALE
        );
        let key = key as usize;
        if key >= counts.len() {
            counts.resize(key + 1, 0);
        }
        counts[key] += 1;
        weights.push(w);
    }
    (counts, weights)
}

/// Pearson's statistic over the cells of `law` with expected count at
/// least 5 (the rest pooled into one cell, itself merged into the
/// smallest kept cell while below 5), and its degrees of freedom.
fn chi_square(law: &[f64], observed: &[u64]) -> (f64, usize) {
    let n = observed.iter().sum::<u64>() as f64;
    let mut cells: Vec<(f64, f64)> = Vec::new();
    let mut pooled = (0.0, 0.0);
    for (w, &o) in observed.iter().enumerate() {
        let p = law.get(w).copied().unwrap_or(0.0);
        assert!(
            p > 0.0 || o == 0,
            "observed 6W = {w}, which the exact law rules out"
        );
        if n * p >= 5.0 {
            cells.push((n * p, o as f64));
        } else {
            pooled.0 += n * p;
            pooled.1 += o as f64;
        }
    }
    if pooled.0 >= 5.0 {
        cells.push(pooled);
    } else if let Some(smallest) = cells
        .iter_mut()
        .min_by(|a, b| a.0.partial_cmp(&b.0).unwrap())
    {
        smallest.0 += pooled.0;
        smallest.1 += pooled.1;
    }
    let stat = cells.iter().map(|&(e, o)| (o - e) * (o - e) / e).sum();
    (stat, cells.len() - 1)
}

/// The χ² critical value at level `alpha` with `df` degrees of freedom
/// (Wilson–Hilferty).
fn chi_square_critical(df: usize, alpha: f64) -> f64 {
    let k = df as f64;
    let z = normal_quantile(1.0 - alpha);
    let h = 2.0 / (9.0 * k);
    k * (1.0 - h + z * h.sqrt()).powi(3)
}

fn assert_fits(law: &[f64], observed: &[u64], what: &str) {
    let (stat, df) = chi_square(law, observed);
    let critical = chi_square_critical(df, ALPHA);
    eprintln!("{what}: χ² = {stat:.2} on {df} df, critical {critical:.2}");
    assert!(df >= 3, "{what}: too few cells ({df} df) for a useful fit");
    assert!(
        stat < critical,
        "{what}: χ² = {stat:.1} on {df} df exceeds {critical:.1} (α = {ALPHA})"
    );
}

#[test]
fn stationary_start_matches_the_exact_law_and_lemma_28_mean() {
    let g = paw();
    let nodes = g.num_nodes() as usize;
    let two_e: f64 = (0..nodes as u64).map(|v| g.degree(v) as f64).sum();
    let start: Vec<f64> = (0..nodes.pow(WALKS as u32))
        .map(|s| {
            tuple(s, nodes)
                .iter()
                .map(|&v| g.degree(v) as f64 / two_e)
                .product()
        })
        .collect();
    let law = exact_law(&g, &start, 0);
    assert!((law.iter().sum::<f64>() - 1.0).abs() < 1e-12);

    // Lemma 28: E[C] = 1/|V| exactly, with C = deḡ·W/(n(n−1)t).
    let c_of = |w: f64| g.avg_degree() * w / ((WALKS * (WALKS - 1)) as f64 * ROUNDS as f64);
    let exact_mean: f64 = law
        .iter()
        .enumerate()
        .map(|(w, p)| p * c_of(w as f64 / SCALE))
        .sum();
    assert!(
        (exact_mean - 1.0 / nodes as f64).abs() < 1e-12,
        "DP mean {exact_mean}"
    );

    let (observed, weights) = observed_law(&g, StartMode::Stationary, law.len());
    assert_fits(&law, &observed, "stationary start");

    let cs: Vec<f64> = weights.iter().map(|&w| c_of(w)).collect();
    let mean = cs.iter().sum::<f64>() / RUNS as f64;
    let var = cs.iter().map(|c| (c - mean).powi(2)).sum::<f64>() / (RUNS - 1) as f64;
    let z = (mean - 1.0 / nodes as f64) / (var / RUNS as f64).sqrt();
    let bound = normal_quantile(1.0 - ALPHA / 2.0);
    eprintln!(
        "Lemma 28: mean C {mean:.6} vs 1/|V| = {}, z = {z:.2}",
        1.0 / nodes as f64
    );
    assert!(
        z.abs() < bound,
        "mean C {mean} vs 1/|V| = {}: z = {z:.2}",
        1.0 / nodes as f64
    );
}

#[test]
fn burnin_start_matches_the_exact_law() {
    let g = paw();
    let nodes = g.num_nodes() as usize;
    let seed_vertex = 3;
    let steps = 2;
    let mut start = vec![0.0; nodes.pow(WALKS as u32)];
    start[code(&[seed_vertex; WALKS], nodes)] = 1.0;
    let law = exact_law(&g, &start, steps);
    assert!((law.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    let burn = StartMode::SeedWithBurnin { seed_vertex, steps };
    let (observed, _) = observed_law(&g, burn, law.len());
    assert_fits(&law, &observed, "burn-in start");
}
