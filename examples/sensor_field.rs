//! Sensor-network sampling by token random walk (paper Section 6.3.1).
//!
//! A base station wants the fraction of sensors that recorded an event.
//! Instead of building a spanning tree, it releases a *token* that hops
//! between neighboring sensors at random, averaging readings as it goes —
//! no routing state, no visited-set, and node failures only cost the
//! failed readings. The paper's moment bounds (Corollary 15) explain why
//! the token's repeat visits barely hurt: we measure the effective
//! accuracy against ideal i.i.d. sampling, then kill 30% of the sensors
//! and do it again.
//!
//! Run with: `cargo run --release --example sensor_field`

use antdensity::graphs::Torus2d;
use antdensity::swarm::sensor::{iid_mean_estimate, token_mean_estimates, SensorField};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn main() {
    let mut rng = SmallRng::seed_from_u64(0x5E25);
    // 64x64 sensor grid; 18% of sensors have detected the event.
    let mut field = SensorField::bernoulli(Torus2d::new(64), 0.18, &mut rng);
    let truth = field.true_mean();
    println!(
        "sensor grid 64x64, event rate {truth:.4} ({} sensors alive)\n",
        field.alive_count()
    );

    let hops = 4096u64;
    println!("token walk, {hops} hops, 20 independent tokens:");
    summarize(&field, hops, truth);

    // ----- robustness: 30% of the sensing elements die ---------------
    field.fail_random(0.3, &mut rng);
    let truth_after = field.true_mean();
    println!(
        "\nafter 30% sensor failures ({} alive, target now {truth_after:.4}):",
        field.alive_count()
    );
    summarize(&field, hops, truth_after);

    println!("\nThe token keeps routing through dead sensors (their radios");
    println!("work) and simply skips their readings — estimation degrades");
    println!("gracefully, no reconfiguration required. That robustness,");
    println!("without any visited-set bookkeeping, is what the paper's");
    println!("local-mixing analysis buys.");
}

fn summarize(field: &SensorField<Torus2d>, hops: u64, truth: f64) {
    let tokens = 20u64;
    let mut token_errs = Vec::new();
    let mut revisit_frac = 0.0;
    for est in token_mean_estimates(field, 0, hops, tokens as usize, 100) {
        token_errs.push((est.mean - truth).abs());
        revisit_frac += est.revisits as f64 / hops as f64;
    }
    revisit_frac /= tokens as f64;
    let iid_errs: Vec<f64> = (0..tokens)
        .map(|s| (iid_mean_estimate(field, hops, 300 + s) - truth).abs())
        .collect();
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    println!(
        "  token:  mean |err| = {:.4}   (revisit fraction {:.2})",
        mean(&token_errs),
        revisit_frac
    );
    println!(
        "  i.i.d.: mean |err| = {:.4}   (idealised baseline)",
        mean(&iid_errs)
    );
    println!(
        "  repeat-visit penalty: {:.2}x — logarithmic, as Corollary 15 predicts",
        mean(&token_errs) / mean(&iid_errs).max(1e-12)
    );
}
