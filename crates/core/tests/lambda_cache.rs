//! The measured-λ disk layer under concurrent warm-up.
//!
//! Its own test binary: the disk store is process-wide state, set once
//! here before anything touches the λ memo.

use antdensity_cas::{Lookup, Store};
use antdensity_core::theory::{
    measure_lambda, set_lambda_cache_dir, warm_measured_lambdas, TopologyClass,
};
use antdensity_engine::TopologySpec;

#[test]
fn warm_up_with_a_cache_dir_matches_cache_off_bits() {
    let dir = std::env::temp_dir().join(format!("antdensity_lambda_cache_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let specs: Vec<TopologySpec> = [
        "csr:grid-holes:24:7:0",
        "csr:grid-holes:24:7:0.5",
        "csr:gnp:576:10",
        "toruskd:2x9",
    ]
    .iter()
    .map(|t| t.parse().expect("valid topology token"))
    .collect();
    // Cache-off reference: straight measurement, no memo, no store.
    let reference: Vec<u64> = specs
        .iter()
        .map(|&s| measure_lambda(s).lambda.to_bits())
        .collect();

    set_lambda_cache_dir(&dir);
    warm_measured_lambdas(&specs, 2);
    let store = Store::open(&dir, "antdensity-lambda v1").expect("open lambda store");
    for (s, bits) in specs.iter().zip(&reference) {
        let TopologyClass::Expander { lambda, .. } = TopologyClass::measured(*s) else {
            panic!("{s}: not measured as an expander");
        };
        assert_eq!(lambda.to_bits(), *bits, "{s}: memo differs from cache-off");
        // every warm-up published its value under the spec's token
        match store.get(&s.to_string()) {
            Lookup::Hit(text) => assert_eq!(text, format!("{bits:016x}"), "{s}"),
            other => panic!("{s}: store entry {other:?}"),
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
