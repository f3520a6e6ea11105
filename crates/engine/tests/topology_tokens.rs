//! Fuzz properties of topology tokens: every token the spec parser
//! accepts either builds or fails with a typed error, and none of them
//! panics — neither parsing nor building. Tokens are generated as text
//! (vendored proptest: a fixed per-test seed, no corpus), so the
//! parser's own checks are part of what is exercised: `csr:*` families
//! over small parameters (their builds cost time), structured families
//! over every magnitude of `u64`.

use antdensity_engine::TopologySpec;
use antdensity_graphs::Topology;
use proptest::prelude::*;

/// Parses `token` and, when it parses, builds it. A parse error is a
/// typed `Err(String)`; a build error is a typed `GenerateError`; a
/// successful build must report the node count the spec predicts.
fn parse_and_build(token: &str) -> Result<(), TestCaseError> {
    let spec: TopologySpec = match token.parse() {
        Ok(spec) => spec,
        Err(reason) => {
            prop_assert!(!reason.is_empty(), "{token}: empty parse error");
            return Ok(());
        }
    };
    match spec.try_build() {
        Ok(built) => prop_assert_eq!(built.num_nodes(), spec.num_nodes(), "{}", token),
        Err(e) => prop_assert!(!e.to_string().is_empty(), "{token}: empty build error"),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn grid_holes_tokens_never_panic(
        side in 2u64..9,
        mask_seed in any::<u64>(),
        hole_pm in 0u64..901,
    ) {
        let frac = hole_pm as f64 / 1000.0;
        parse_and_build(&format!("csr:grid-holes:{side}:{mask_seed}:{frac}"))?;
    }

    #[test]
    fn regular_tokens_never_panic(nodes in 1u64..48, degree in 1u64..48) {
        parse_and_build(&format!("csr:regular:{nodes}:{degree}"))?;
    }

    #[test]
    fn gnp_tokens_never_panic(nodes in 1u64..96, avg_degree in 1u64..48) {
        parse_and_build(&format!("csr:gnp:{nodes}:{avg_degree}"))?;
    }

    #[test]
    fn cliquering_tokens_never_panic(cliques in 1u64..10, clique_size in 1u64..10) {
        parse_and_build(&format!("csr:cliquering:{cliques}:{clique_size}"))?;
    }

    #[test]
    fn structured_tokens_never_panic(
        family in 0u8..5,
        a in any::<u64>(),
        shift in 0u32..64,
        dims in 0u64..80,
    ) {
        let v = a >> shift;
        let token = match family {
            0 => format!("torus2d:{v}"),
            1 => format!("toruskd:{dims}x{v}"),
            2 => format!("ring:{v}"),
            3 => format!("hypercube:{dims}"),
            _ => format!("complete:{v}"),
        };
        parse_and_build(&token)?;
    }
}
