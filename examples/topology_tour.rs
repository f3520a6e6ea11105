//! A tour of the paper's topology zoo (Section 4).
//!
//! The whole paper turns on one quantity: how likely are two agents that
//! just collided to collide again m rounds later? This example computes
//! that re-collision curve *exactly* for every analysed topology at
//! matched size A = 4096, prints them side by side with the paper's
//! predicted envelopes, and shows the accuracy each topology's B(t)
//! implies.
//!
//! Run with: `cargo run --release --example topology_tour`

use antdensity::core::theory::TopologyClass;
use antdensity::graphs::dist::recollision_series;
use antdensity::graphs::{generators, spectral, CompleteGraph, Hypercube, Ring, Torus2d, TorusKd};
use antdensity::stats::table::{format_sig, Table};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let a = 4096u64;
    let t_max = 256u64;
    let mut rng = SmallRng::seed_from_u64(0x70D0);

    // matched-size instances of every family the paper analyses
    let torus = Torus2d::new(64);
    let ring = Ring::new(a);
    let torus3 = TorusKd::new(3, 16);
    let hyper = Hypercube::new(12);
    let complete = CompleteGraph::new(a);
    let expander = generators::random_regular(a, 8, 500, &mut rng)?;
    let lambda = spectral::walk_matrix_lambda(&expander, 4000, &mut rng).lambda;

    let curves: Vec<(&str, Vec<f64>, TopologyClass)> = vec![
        (
            "ring (1-d)",
            recollision_series(&ring, 0, t_max),
            TopologyClass::Ring { nodes: a },
        ),
        (
            "torus 2-d",
            recollision_series(&torus, 0, t_max),
            TopologyClass::Torus2d { nodes: a },
        ),
        (
            "torus 3-d",
            recollision_series(&torus3, 0, t_max),
            TopologyClass::TorusKd { dims: 3, nodes: a },
        ),
        (
            "hypercube",
            recollision_series(&hyper, 0, t_max),
            TopologyClass::Hypercube { dims: 12 },
        ),
        (
            "expander d=8",
            recollision_series(&expander, 0, t_max),
            TopologyClass::Expander { lambda, nodes: a },
        ),
        (
            "complete",
            recollision_series(&complete, 0, t_max),
            TopologyClass::Complete { nodes: a },
        ),
    ];

    println!("Exact re-collision probability P(m) at matched A = {a}");
    println!("(two walks from one node; the paper's Lemma 4/20/22/23/25 quantity)\n");
    let mut table = Table::new(
        "recollision landscape",
        &[
            "m",
            "ring",
            "torus2d",
            "torus3d",
            "hypercube",
            "expander",
            "complete",
        ],
    );
    for &m in &[1u64, 2, 4, 8, 16, 32, 64, 128, 256] {
        let mut row = vec![m.to_string()];
        for (_, curve, _) in &curves {
            row.push(format_sig(curve[m as usize], 5));
        }
        table.row_owned(row);
    }
    table.note(
        "floor = 1/A = 0.000244 (stationary collision rate); slower decay = worse local mixing",
    );
    println!("{table}");

    println!("What that means for an ant estimating density d = 0.05 (delta = 0.1),");
    println!("in the paper's large-A regime (surface far larger than the walk range):\n");
    // lift every class to a huge A so the 1/A floor terms vanish — the
    // paper's standing assumption "A is large ... larger than the area
    // agents traverse".
    let big: Vec<(&str, TopologyClass)> = vec![
        ("ring (1-d)", TopologyClass::Ring { nodes: 1 << 40 }),
        ("torus 2-d", TopologyClass::Torus2d { nodes: 1 << 40 }),
        (
            "torus 3-d",
            TopologyClass::TorusKd {
                dims: 3,
                nodes: 1 << 40,
            },
        ),
        ("hypercube", TopologyClass::Hypercube { dims: 40 }),
        (
            "expander d=8",
            TopologyClass::Expander {
                lambda,
                nodes: 1 << 40,
            },
        ),
        ("complete", TopologyClass::Complete { nodes: 1 << 40 }),
    ];
    let mut acc = Table::new(
        "implied accuracy (Lemma 19, unit constants)",
        &[
            "topology",
            "B(1024)",
            "epsilon(t=1024)",
            "rounds for eps=0.2",
        ],
    );
    for (name, class) in &big {
        let b = class.b_sum(1024);
        let eps = class.epsilon(1024, 0.05, 0.1);
        let budget = class
            .rounds_for(0.2, 0.1, 0.05, 1 << 34)
            .map(|t| t.to_string())
            .unwrap_or_else(|| "diverges".to_string());
        acc.row_owned(vec![
            name.to_string(),
            format_sig(b, 3),
            format_sig(eps, 3),
            budget,
        ]);
    }
    acc.note("the ring's B(t) ~ sqrt(t) makes the Lemma 19 planner diverge — Theorem 21's Chebyshev route is needed there");
    println!("{acc}");
    println!("The paper's punchline, visible in one table: every topology with a");
    println!("summable re-collision curve estimates density nearly as well as");
    println!("independent sampling; only the ring pays a real penalty.\n");

    // Beyond the analysed zoo: the pluggable CSR backend accepts any
    // graph. Measure the spectral decay rate of a Barry-style holed
    // region and a clique-ring bottleneck, and run the actual estimator
    // on each — theory-by-measurement next to simulation.
    use antdensity::engine::{Scenario, TopologySpec};
    println!("Beyond the zoo: arbitrary graphs through the CSR backend");
    println!("(spec tokens usable verbatim as sweep axes; bounds from measured spectra)\n");
    let mut csr = Table::new(
        "pluggable csr graphs (alg1, d = 0.05, t = 512, 4 seeds)",
        &["spec", "nodes", "lambda_eff", "mean d~", "mean rel err"],
    );
    for token in [
        "csr:grid-holes:24:7:0.2",
        "csr:grid-holes:24:7:0.5",
        "csr:regular:576:8",
        "csr:cliquering:36:16",
    ] {
        let spec: TopologySpec = token.parse()?;
        let nodes = spec.num_nodes();
        let lambda_eff = match TopologyClass::measured(spec) {
            TopologyClass::Expander { lambda, .. } => lambda,
            _ => unreachable!("measured classes are expander-shaped"),
        };
        let agents = ((0.05 * nodes as f64).round() as usize).max(2) + 1;
        let mut est_sum = 0.0;
        let mut err_sum = 0.0;
        for seed in 0..4 {
            let out = Scenario::new(spec, agents, 512).run(seed);
            est_sum += out.mean_estimate();
            err_sum += out.relative_errors().iter().sum::<f64>() / agents as f64;
        }
        csr.row_owned(vec![
            token.to_string(),
            nodes.to_string(),
            format_sig(lambda_eff, 4),
            format_sig(est_sum / 4.0, 3),
            format_sig(err_sum / 4.0, 3),
        ]);
    }
    csr.note("lambda_eff: bipartite parity mode deflated — more holes / tighter bottlenecks => slower mixing => larger error at matched t");
    println!("{csr}");
    Ok(())
}
