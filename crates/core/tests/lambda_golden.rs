//! Golden bit patterns for the measured spectral gap.
//!
//! Every measured-gap bound in a sweep report is a function of one λ per
//! topology, so a change to the power-iteration kernel that moves a
//! single bit of λ moves report bytes. These pins hold λ's exact f64
//! bits and iteration count for each `specs/irregular.sweep` graph under
//! the measured-λ seed and budget, plus structured tori that take the
//! same path and the plain walk-matrix estimate on non-bipartite graphs.

use antdensity_core::theory::{measure_lambda, warm_measured_lambdas, TopologyClass};
use antdensity_engine::TopologySpec;
use antdensity_graphs::spectral::walk_matrix_lambda;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// (topology, λ bits, power iterations) for `effective_lambda`.
const EFFECTIVE: [(&str, u64, u32); 9] = [
    ("csr:grid-holes:24:7:0", 0x3fefdaa826b715e9, 1036),
    ("csr:grid-holes:24:7:0.1", 0x3fefe1e3a6193fac, 4000),
    ("csr:grid-holes:24:7:0.3", 0x3feff993b5eb6511, 3023),
    ("csr:grid-holes:24:7:0.5", 0x3fefd476939dbe7e, 894),
    ("csr:regular:576:8", 0x3fe4cac0b183b1b2, 1813),
    ("csr:gnp:576:10", 0x3fe2ff13c33108bf, 773),
    ("csr:cliquering:36:16", 0x3fefff131dfa34e1, 4000),
    ("toruskd:2x9", 0x3fee11f641fb0d68, 162),
    ("toruskd:1x64", 0x3fefd88da202bdaf, 509),
];

fn spec(token: &str) -> TopologySpec {
    token.parse().expect("valid topology token")
}

#[test]
fn effective_lambda_bits_and_iterations_are_pinned() {
    for (token, bits, iterations) in EFFECTIVE {
        let est = measure_lambda(spec(token));
        assert_eq!(
            (est.lambda.to_bits(), est.iterations),
            (bits, iterations),
            "{token}: λ {} ({:016x})",
            est.lambda,
            est.lambda.to_bits()
        );
    }
}

#[test]
fn walk_matrix_lambda_bits_are_pinned_on_non_bipartite_graphs() {
    for (token, bits, iterations) in [
        ("csr:gnp:576:10", 0x3fe2ff13c33108bf, 773),
        ("toruskd:2x9", 0x3fee11f641fb0d68, 162),
    ] {
        let topo = spec(token).build();
        let est = walk_matrix_lambda(&topo, 4000, &mut SmallRng::seed_from_u64(0x4c41_4d42));
        assert_eq!(
            (est.lambda.to_bits(), est.iterations),
            (bits, iterations),
            "{token}: λ {}",
            est.lambda
        );
    }
}

/// The only test in this binary that touches the process-wide memo, so
/// the warm-up below measures every graph cold and concurrently.
#[test]
fn concurrent_warm_up_fills_the_memo_with_the_pinned_bits() {
    let specs: Vec<TopologySpec> = EFFECTIVE.iter().map(|&(t, _, _)| spec(t)).collect();
    warm_measured_lambdas(&specs, 4);
    for ((token, bits, _), s) in EFFECTIVE.iter().zip(&specs) {
        match TopologyClass::measured(*s) {
            TopologyClass::Expander { lambda, nodes } => {
                assert_eq!(lambda.to_bits(), *bits, "{token}");
                assert_eq!(nodes, s.num_nodes(), "{token}");
            }
            other => panic!("{token}: measured class {other:?}"),
        }
    }
}
