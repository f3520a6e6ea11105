//! Quorum sensing in house-hunting ants (paper Sections 1 and 6.2).
//!
//! *Temnothorax* scouts evaluating a candidate nest commit to it once the
//! scout density there crosses a quorum threshold [Pra05]. This example
//! models two candidate nests as small tori — one well-populated, one
//! nearly empty — and lets scout ants decide, individually and only by
//! bumping into each other, whether each site has reached quorum.
//!
//! Run with: `cargo run --release --example ant_colony_quorum`

use antdensity::core::quorum::{QuorumDecision, QuorumSensor};
use antdensity::engine::TopologySpec;

fn main() {
    // Both nests are 24x24 cavities; quorum is density 0.08.
    let nest = TopologySpec::Torus2d { side: 24 }; // A = 576 cells
    let threshold = 0.08;
    let sensor = QuorumSensor::new(threshold, 0.05, 1 << 15);

    // Site A: 104 scouts (d ~ 0.179, over quorum).
    // Site B: 13 scouts  (d ~ 0.021, under quorum).
    for (site, scouts) in [("A (busy)", 104usize), ("B (quiet)", 13)] {
        let d = (scouts as f64 - 1.0) / nest.num_nodes() as f64;
        let outcomes = sensor.run(nest, scouts, 0xA17);
        let above = outcomes
            .iter()
            .filter(|o| o.decision == QuorumDecision::Above)
            .count();
        let below = outcomes
            .iter()
            .filter(|o| o.decision == QuorumDecision::Below)
            .count();
        let undecided = outcomes.len() - above - below;
        let mean_rounds: f64 =
            outcomes.iter().map(|o| o.rounds_used as f64).sum::<f64>() / outcomes.len() as f64;
        println!("nest {site}: true scout density {d:.3} vs quorum {threshold}");
        println!("  votes: {above} above / {below} below / {undecided} undecided");
        println!("  mean rounds to a decision: {mean_rounds:.0}");
        let verdict = if above > below {
            "QUORUM REACHED - start transporting the colony"
        } else {
            "no quorum - keep scouting"
        };
        println!("  colony outcome: {verdict}\n");
    }

    println!("Every scout decided alone, from its own encounter rate, with a");
    println!("Theorem-1-shaped confidence margin: far-from-threshold densities");
    println!("are decided in few rounds, near-threshold ones take longer —");
    println!("the adaptive behaviour the paper's Section 6.2 anticipates.");
}
