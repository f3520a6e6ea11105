//! The fusion gate: the `alg1_accuracy` quick sweep, which runs one
//! fused pass per shard, must write the same report bytes as the
//! per-cell reference [`run_shard_unfused`] and run at least 3x faster.
//!
//! A wall-clock bound needs a release build and a quiet machine, so the
//! test is ignored by default. CI runs it with
//!
//! ```text
//! cargo test --release -p antdensity-sweep --test fusion_gate -- --ignored
//! ```

use antdensity_engine::pool::run_trials_on;
use antdensity_engine::WorkerPool;
use antdensity_stats::rng::SeedSequence;
use antdensity_sweep::{build_report, run_shard_unfused, run_sweep, SweepOptions, SweepSpec};
use std::time::Instant;

/// Fused wall clock over per-cell wall clock must reach this ratio.
const MIN_SPEEDUP: f64 = 3.0;

#[test]
#[ignore = "wall-clock gate: run in release with --ignored"]
fn fused_sweep_matches_per_cell_reference_and_is_3x_faster() {
    // `repro sweep` runs with telemetry on; so do both legs here.
    antdensity_telemetry::set_enabled(true);
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../specs/alg1_accuracy.sweep"
    );
    let spec = SweepSpec::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let opts = SweepOptions {
        quick: true,
        ..SweepOptions::default()
    };

    // Fused leg, best of 3: its absolute time is small, so a scheduler
    // hiccup would otherwise dominate.
    let mut fused_s = f64::INFINITY;
    let mut fused = None;
    for _ in 0..3 {
        let t0 = Instant::now();
        let out = run_sweep(&spec, &opts).unwrap();
        fused_s = fused_s.min(t0.elapsed().as_secs_f64());
        fused = Some(out);
    }
    let fused = fused.unwrap();
    assert!(fused.complete);

    // Per-cell leg, once (a hiccup there only raises the ratio): every
    // shard's reference fanned over the same pool and worker count.
    let resolved = &fused.resolved;
    let t0 = Instant::now();
    let shards = run_trials_on(
        WorkerPool::global(),
        resolved.fused.len() as u64,
        opts.workers.max(1),
        SeedSequence::new(resolved.seed),
        |i, _| run_shard_unfused(resolved, i as usize),
    );
    let unfused_s = t0.elapsed().as_secs_f64();
    let mut unfused = fused.clone();
    unfused.aggregates = vec![None; resolved.cells.len()];
    for (cell, agg) in shards.into_iter().flatten() {
        unfused.aggregates[cell] = Some(agg);
    }

    let (f, u) = (build_report(&fused), build_report(&unfused));
    assert!(
        f.to_json() == u.to_json(),
        "SWEEP JSON differs from the per-cell reference"
    );
    assert!(
        f.to_csv() == u.to_csv(),
        "SWEEP CSV differs from the per-cell reference"
    );
    let ratio = unfused_s / fused_s;
    println!("fused {fused_s:.4}s vs unfused {unfused_s:.4}s: {ratio:.2}x");
    assert!(
        ratio >= MIN_SPEEDUP,
        "fusion speedup {ratio:.2}x below {MIN_SPEEDUP}x (fused {fused_s:.4}s, unfused {unfused_s:.4}s)"
    );
}
