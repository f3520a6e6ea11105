//! E17 (extension) — two more of the paper's discussion items, measured:
//!
//! * **Collision avoidance** (§6.1): the paper sketches two behavioural
//!   variants — "agents sense and sometimes avoid collisions" and "move
//!   away from previously encountered ants" — motivated by field evidence
//!   [GPT93, NTD05] that real encounter rates can run *below* the
//!   random-walk prediction. Measuring both produces a genuinely
//!   interesting split: **freeze-style cell avoidance RAISES encounter
//!   rates** (a just-collided pair hemmed in by occupied neighbours
//!   freezes and re-collides — stickiness), while **post-encounter
//!   dispersal ("flee") LOWERS them**, matching the field data. Only the
//!   second variant explains the observations the paper cites.
//! * **Single-walk size estimation** (§5.1 / §6.3.3): counting repeat
//!   visits of one walk ([LL12, KBM12]) versus the paper's multi-walk
//!   collisions. The thinning gap controls the dependence bias — the
//!   same local-mixing story as everywhere else in the paper.

use crate::report::{Effort, ExperimentReport};
use antdensity_engine::{Scenario, TopologySpec};
use antdensity_graphs::generators;
use antdensity_netsize::singlewalk::SingleWalk;
use antdensity_stats::table::{format_sig, Table};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Runs E17.
pub fn run(effort: Effort, seed: u64) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "e17",
        "Extension (paper 6.1/6.3.3): collision avoidance lowers encounter rates; single-walk size estimation and its thinning bias",
    );

    // ---------- the two Section 6.1 behavioural variants ----------
    let side = effort.size(24, 32);
    let torus = TopologySpec::Torus2d { side };
    let agents = ((0.15 * torus.num_nodes() as f64) as usize).max(10);
    let d = (agents as f64 - 1.0) / torus.num_nodes() as f64;
    let rounds = effort.size(256, 1024);
    let runs = effort.trials(3, 8);
    // Algorithm 1's mean estimate is the population's mean encounter rate.
    let pure_walk = Scenario::new(torus, agents, rounds);
    let measure = |scenario: Scenario, tag: u64| -> f64 {
        (0..runs)
            .map(|r| scenario.run(seed ^ (r << 23) ^ tag).mean_estimate())
            .sum::<f64>()
            / runs as f64
    };
    let mut avoid_table = Table::new(
        "behavioural_variants_encounter_rates",
        &["behaviour", "mean_rate", "rate_over_d"],
    );
    let pure = measure(pure_walk.clone(), 0);
    avoid_table.row_owned(vec![
        "pure walk (paper model)".to_string(),
        format_sig(pure, 4),
        format_sig(pure / d, 3),
    ]);
    let mut freeze_rates = Vec::new();
    for &q in &[0.5f64, 1.0] {
        let rate = measure(pure_walk.clone().with_avoidance(q), 100 + q.to_bits());
        freeze_rates.push(rate);
        avoid_table.row_owned(vec![
            format!("freeze-avoid q={q}"),
            format_sig(rate, 4),
            format_sig(rate / d, 3),
        ]);
    }
    let flee_rate = measure(pure_walk.with_flee(), 777);
    avoid_table.row_owned(vec![
        "flee after encounter".to_string(),
        format_sig(flee_rate, 4),
        format_sig(flee_rate / d, 3),
    ]);
    avoid_table.note("paper cites [GPT93, NTD05]: real encounter rates fall BELOW the pure-walk prediction — only the flee variant reproduces that");
    report.push_table(avoid_table);
    let split_ok = flee_rate < pure && freeze_rates.iter().all(|&r| r > pure);
    report.finding(format!(
        "behavioural split: flee rate {} < pure rate {} < freeze-avoid rates (up to {}) — dispersal, not cell-avoidance, explains below-prediction field encounter rates: {}",
        format_sig(flee_rate / d, 3),
        format_sig(pure / d, 3),
        format_sig(freeze_rates.iter().cloned().fold(0.0, f64::max) / d, 3),
        if split_ok { "yes" } else { "NO" }
    ));

    // ---------- single-walk size estimation ----------
    let v = effort.size(256, 512);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x51);
    let g = generators::random_regular(v, 8, 500, &mut rng).expect("regular graph");
    let samples = effort.size(150, 300) as usize;
    let reps = effort.trials(9, 21);
    let mut sw_table = Table::new(
        "singlewalk_thinning",
        &["gap", "median_estimate", "rel_bias", "queries"],
    );
    let mut biases = Vec::new();
    for &gap in &[1u64, 4, 16, 64] {
        let sw = SingleWalk::new(samples, gap);
        let mut ests: Vec<f64> = (0..reps)
            .map(|r| {
                let mut srng = SmallRng::seed_from_u64(seed ^ r ^ gap);
                sw.run(
                    &g,
                    8.0,
                    g.sample_stationary(&mut srng),
                    seed ^ (r << 5) ^ gap,
                )
                .estimate
            })
            .filter(|e| e.is_finite())
            .collect();
        ests.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let med = ests[ests.len() / 2];
        let bias = (med - v as f64) / v as f64;
        biases.push(bias);
        sw_table.row_owned(vec![
            gap.to_string(),
            format_sig(med, 1),
            format_sig(bias, 3),
            (samples as u64 * gap).to_string(),
        ]);
    }
    sw_table.note("small gaps: correlated samples over-collide and the estimate under-shoots; large gaps approach the multi-walk ideal");
    report.push_table(sw_table);
    report.finding(format!(
        "single-walk estimator bias shrinks from {} (gap 1) to {} (gap 64) — thinning buys independence with queries, the paper's local-mixing trade-off",
        format_sig(biases[0], 3),
        format_sig(*biases.last().unwrap(), 3)
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_behavioural_split() {
        let r = run(Effort::Quick, 53);
        assert!(r.findings[0].ends_with("yes"), "{}", r.findings[0]);
    }

    #[test]
    fn quick_run_thinning_reduces_bias() {
        let r = run(Effort::Quick, 53);
        let rows = r.tables[1].rows();
        let bias_first: f64 = rows.first().unwrap()[2].parse().unwrap();
        let bias_last: f64 = rows.last().unwrap()[2].parse().unwrap();
        assert!(
            bias_last.abs() < bias_first.abs(),
            "gap-64 bias {bias_last} should beat gap-1 bias {bias_first}"
        );
        assert!(bias_first < -0.1, "gap-1 must under-shoot: {bias_first}");
    }
}
