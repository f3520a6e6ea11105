//! Golden vectors pinning the general-graph generators and the
//! network-size estimators that walk their output.
//!
//! The committed file `tests/golden/graph_outputs.txt` holds, for every
//! generator in `antdensity_graphs::generators` at fixed seeds, an
//! FNV-1a digest of each node's ordered neighbor list, and, on two
//! irregular graphs, the outputs of Algorithm 2, the KLSC14 baseline,
//! the single-walk estimator, Algorithm 3's degree estimate, the burn-in
//! recommendation and the exact TV profile — every float as its IEEE-754
//! bit pattern. A change to the graph storage, the neighbor order, the
//! neighbor draw or the stationary sampler fails here first.
//!
//! Regenerate (only when one of those is *deliberately* changed) with:
//!
//! ```text
//! cargo test -p antdensity-netsize --test graph_golden -- --ignored regenerate
//! ```

use antdensity_graphs::{generators, Topology};
use antdensity_netsize::algorithm2::{Algorithm2, NetSizeRun, StartMode};
use antdensity_netsize::katzir::Katzir;
use antdensity_netsize::median::median_boosted;
use antdensity_netsize::singlewalk::SingleWalk;
use antdensity_netsize::{burnin, degree};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::fmt::Write;

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/graph_outputs.txt"
);

const MAGIC: &str = "antdensity-graph-golden v1";

fn rng(seed: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed)
}

/// FNV-1a over every node's degree followed by its neighbors in move
/// order, each as a little-endian u64.
fn digest<T: Topology>(g: &T) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for v in 0..g.num_nodes() {
        eat(g.degree(v) as u64);
        for i in 0..g.degree(v) {
            eat(g.neighbor(v, i));
        }
    }
    h
}

fn bits(xs: &[f64]) -> String {
    xs.iter()
        .map(|x| format!("{:016x}", x.to_bits()))
        .collect::<Vec<_>>()
        .join(" ")
}

fn graph_line<T: Topology>(out: &mut String, name: &str, g: &T) {
    let moves: usize = (0..g.num_nodes()).map(|v| g.degree(v)).sum();
    writeln!(
        out,
        "graph {name} nodes {} moves {moves} digest {:016x}",
        g.num_nodes(),
        digest(g)
    )
    .unwrap();
}

fn run_line(out: &mut String, name: &str, r: &NetSizeRun) {
    writeln!(
        out,
        "  {name} estimate {} weighted {} walks {} rounds {} queries {} {} {}",
        bits(&[r.estimate]),
        bits(&[r.weighted_collisions]),
        r.walks,
        r.rounds,
        r.queries.burnin,
        r.queries.walking,
        r.queries.degree_sampling
    )
    .unwrap();
}

fn render() -> String {
    let mut out = String::new();
    writeln!(out, "{MAGIC}").unwrap();
    for seed in [11u64, 12] {
        let g = generators::random_regular(200, 6, 500, &mut rng(seed)).unwrap();
        graph_line(&mut out, &format!("random_regular:200:6 seed {seed}"), &g);
        let g = generators::erdos_renyi_connected(200, 0.04, 50, &mut rng(seed)).unwrap();
        graph_line(&mut out, &format!("erdos_renyi:200:0.04 seed {seed}"), &g);
        let g = generators::barabasi_albert(300, 3, &mut rng(seed)).unwrap();
        graph_line(&mut out, &format!("barabasi_albert:300:3 seed {seed}"), &g);
        let g = generators::watts_strogatz(200, 6, 0.2, &mut rng(seed)).unwrap();
        graph_line(
            &mut out,
            &format!("watts_strogatz:200:6:0.2 seed {seed}"),
            &g,
        );
        let g = generators::grid_with_holes(24, 0.3, &mut rng(seed)).unwrap();
        graph_line(&mut out, &format!("grid_with_holes:24:0.3 seed {seed}"), &g);
    }
    graph_line(
        &mut out,
        "ring_of_cliques:6:8",
        &generators::ring_of_cliques(6, 8).unwrap(),
    );
    graph_line(&mut out, "lollipop:12:6", &generators::lollipop(12, 6));

    let walked = [
        (
            "barabasi_albert:300:3 seed 13",
            generators::barabasi_albert(300, 3, &mut rng(13)).unwrap(),
        ),
        (
            "grid_with_holes:24:0.3 seed 14",
            generators::grid_with_holes(24, 0.3, &mut rng(14)).unwrap(),
        ),
    ];
    for (name, g) in &walked {
        let avg = g.avg_degree();
        writeln!(out, "netsize {name} avg_degree {}", bits(&[avg])).unwrap();
        for seed in [1u64, 2] {
            let alg = Algorithm2::new(40, 30);
            run_line(
                &mut out,
                &format!("algorithm2 stationary seed {seed}"),
                &alg.run(g, avg, StartMode::Stationary, seed),
            );
            let burn = StartMode::SeedWithBurnin {
                seed_vertex: 0,
                steps: 25,
            };
            run_line(
                &mut out,
                &format!("algorithm2 burnin seed {seed}"),
                &alg.run(g, avg, burn, seed),
            );
            run_line(
                &mut out,
                &format!("katzir seed {seed}"),
                &Katzir::new(80).run(g, avg, StartMode::Stationary, seed),
            );
            let boosted = median_boosted(alg, g, avg, StartMode::Stationary, 3, seed);
            writeln!(
                out,
                "  median_boosted seed {seed} estimate {}",
                bits(&[boosted.estimate])
            )
            .unwrap();
            let sw = SingleWalk::new(200, 3).run(g, avg, 0, seed);
            writeln!(
                out,
                "  singlewalk seed {seed} estimate {} weighted {} walking {}",
                bits(&[sw.estimate]),
                bits(&[sw.weighted_collisions]),
                sw.queries.walking
            )
            .unwrap();
            let d = degree::estimate_avg_degree(g, 500, seed);
            writeln!(
                out,
                "  degree seed {seed} inverse {} avg {} samples {}",
                bits(&[d.inverse_avg_degree]),
                bits(&[d.avg_degree]),
                d.samples
            )
            .unwrap();
        }
        writeln!(
            out,
            "  required katzir {} degree {} burnin {}",
            Katzir::required_walks(g, 0.2, 0.1, 1.0),
            degree::required_samples(g, 0.2, 0.1, 1.0),
            burnin::recommended_burnin(g, 0.1, None, 1.0)
        )
        .unwrap();
        writeln!(out, "  tv_profile {}", bits(&burnin::tv_profile(g, 0, 40))).unwrap();
    }
    out
}

#[test]
fn graph_outputs_match_committed_golden_vectors() {
    let golden = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden file missing — run the ignored `regenerate` test and commit the output");
    let current = render();
    for (i, (g, c)) in golden.lines().zip(current.lines()).enumerate() {
        assert_eq!(g, c, "line {} drifted from the golden vector", i + 1);
    }
    assert_eq!(golden, current);
}

/// Regenerates the golden file from the current implementation. Kept
/// `#[ignore]`d: running it is a *deliberate* decision to re-pin.
#[test]
#[ignore = "rewrites the golden vectors; run only to deliberately re-pin"]
fn regenerate() {
    let path = std::path::Path::new(GOLDEN_PATH);
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    std::fs::write(path, render()).unwrap();
}
