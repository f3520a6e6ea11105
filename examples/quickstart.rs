//! Quickstart: the paper's model in five minutes.
//!
//! Reproduces the scenario of the paper's Figure 1 — a handful of ants
//! (agents) random-walking on a small torus, sensing collisions — then
//! runs Algorithm 1 properly and compares the estimates with Theorem 1's
//! prediction.
//!
//! Run with: `cargo run --release --example quickstart`

use antdensity::core::theory::TopologyClass;
use antdensity::engine::{Engine, Scenario, TopologySpec};
use antdensity::graphs::Torus2d;
use antdensity::stats::table::{format_sig, Table};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn main() {
    // ----- Figure 1: a tiny world we can draw -----------------------
    println!("A 8x8 torus with 6 ants (the paper's Figure 1 scenario):\n");
    let mut rng = SmallRng::seed_from_u64(3);
    let mut ants = Engine::new(Torus2d::new(8), 6);
    ants.place_uniform(&mut rng);
    for round in 0..3 {
        println!("after round {round}:");
        draw(&ants);
        let collisions: u32 = (0..6).map(|a| ants.count(a)).sum();
        println!("  total collision sightings this round: {collisions}\n");
        ants.step_round(&mut rng);
    }

    // ----- Algorithm 1 at realistic scale ---------------------------
    let torus = TopologySpec::Torus2d { side: 64 }; // A = 4096 positions
    let num_agents = 206; // n = 205 others  =>  d = 205/4096 ~ 0.05
    let d = (num_agents as f64 - 1.0) / torus.num_nodes() as f64;
    println!("Algorithm 1 on a 64x64 torus, {num_agents} ants, d = {d:.4}:\n");

    let mut table = Table::new(
        "estimate quality vs rounds walked",
        &["t", "mean_estimate", "q90_rel_err", "theorem1_eps(c1=1)"],
    );
    for t in [64u64, 256, 1024, 4096] {
        let run = Scenario::new(torus, num_agents, t).run(42);
        let errs = run.relative_errors();
        let q90 = antdensity::stats::quantile::quantile(&errs, 0.9);
        let bound = TopologyClass::Torus2d {
            nodes: torus.num_nodes(),
        }
        .epsilon(t, d, 0.1);
        table.row_owned(vec![
            t.to_string(),
            format_sig(run.mean_estimate(), 4),
            format_sig(q90, 3),
            format_sig(bound, 3),
        ]);
    }
    println!("{table}");
    println!("Each ant only counts how many others share its square after each");
    println!("step — no ids, no messages — yet the estimates tighten like");
    println!("sqrt(1/t)*log t, exactly as Theorem 1 predicts.");
}

/// Draws the torus as an ASCII grid (digits = number of ants on a square).
fn draw(ants: &Engine<Torus2d>) {
    let torus = ants.topology();
    for y in (0..torus.side()).rev() {
        print!("  ");
        for x in 0..torus.side() {
            let occ = ants.occupancy(torus.node(x, y));
            if occ == 0 {
                print!(" .");
            } else {
                print!(" {occ}");
            }
        }
        println!();
    }
}
