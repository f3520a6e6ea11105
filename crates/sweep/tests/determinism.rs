//! The sweep determinism contract, post-observer-pipeline:
//!
//! 1. a full run and a run-kill-at-shard-k-then-resume run produce
//!    **bit-identical** aggregates and byte-identical reports, for every
//!    kill point and every worker count (checkpoints never change
//!    science);
//! 2. a sweep (one fused simulation pass per shard feeding every
//!    estimator and rounds-checkpoint) and the per-cell reference
//!    [`run_shard_unfused`] (one pass per cell) produce
//!    **bit-identical** aggregates and byte-identical reports (fusion
//!    never changes science either — it only deletes redundant work).

use antdensity_engine::WorkerPool;
use antdensity_sweep::dist::{DistOptions, FaultPlan};
use antdensity_sweep::{
    build_report, run_resolved, run_shard_unfused, run_sweep, CheckpointLock, SweepError,
    SweepOptions, SweepOutcome, SweepSpec,
};
use std::path::PathBuf;
use std::sync::Arc;

/// Every test in this suite runs with telemetry and trace capture
/// fully enabled: the bit-identity assertions below are the enforcement
/// of the "telemetry observes, never influences" guarantee, exercised
/// on the kill/resume and fusion paths. (The flag is process-global;
/// tests here never turn it off, so concurrent test threads all run
/// instrumented.)
fn spec() -> SweepSpec {
    antdensity_telemetry::set_enabled(true);
    antdensity_telemetry::set_tracing(true);
    // Small but heterogeneous: two topologies, two densities, three
    // estimator families, a rounds axis to fuse, optional noise — every
    // aggregate path (est/err/hist/within/aux) and both fusion families
    // exercised.
    SweepSpec::parse(
        "
        name = determinism
        seed = 20160725
        trials = 2
        topology = torus2d:8, complete:64
        density = 0.1, 0.3
        rounds = 4, 6
        estimator = alg1, alg4, quorum:0.05, relfreq:0.5
        noise = none
        ",
    )
    .unwrap()
}

/// `fused` with its aggregates recomputed shard by shard through the
/// per-cell reference, which runs every member cell as its own
/// simulation from the same streams.
fn unfused_twin(fused: &SweepOutcome) -> SweepOutcome {
    let mut out = fused.clone();
    out.aggregates = vec![None; out.resolved.cells.len()];
    for shard in 0..out.resolved.fused.len() {
        for (cell, agg) in run_shard_unfused(&out.resolved, shard) {
            out.aggregates[cell] = Some(agg);
        }
    }
    out
}

fn tmp_ckpt(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "antdensity_sweep_det_{}_{tag}.ckpt",
        std::process::id()
    ))
}

#[test]
fn full_equals_kill_and_resume_bit_for_bit_across_worker_counts() {
    let spec = spec();
    let reference = run_sweep(&spec, &SweepOptions::default()).unwrap();
    assert!(reference.complete);
    // shards are the unit of kill/resume now — the fused plan
    let n = reference.resolved.fused.len();
    assert!(n >= 4, "grid should fuse into several shards, got {n}");
    assert!(
        reference.aggregates.len() > n,
        "fusion must pack multiple cells per shard"
    );
    let ref_report = build_report(&reference);
    let (ref_json, ref_csv) = (ref_report.to_json(), ref_report.to_csv());

    for workers in [1usize, 2, 4] {
        let pool = Arc::new(WorkerPool::new(workers));
        for k in [1, n / 2, n - 1] {
            let ckpt = tmp_ckpt(&format!("{workers}_{k}"));
            let _ = std::fs::remove_file(&ckpt);

            // phase 1: "killed" after k shards (the checkpoint survives)
            let partial = run_sweep(
                &spec,
                &SweepOptions {
                    workers,
                    pool: Some(Arc::clone(&pool)),
                    checkpoint: Some(ckpt.clone()),
                    max_shards: Some(k),
                    checkpoint_every: 2,
                    ..SweepOptions::default()
                },
            )
            .unwrap();
            assert!(!partial.complete);
            assert_eq!(partial.executed, k);

            // phase 2: resume with a *different* worker count
            let resumed = run_sweep(
                &spec,
                &SweepOptions {
                    workers: workers + 1,
                    pool: Some(Arc::new(WorkerPool::new(workers + 1))),
                    checkpoint: Some(ckpt.clone()),
                    resume: true,
                    checkpoint_every: 3,
                    ..SweepOptions::default()
                },
            )
            .unwrap();
            assert!(resumed.complete, "workers={workers} k={k}");
            assert_eq!(resumed.resumed, k);
            assert_eq!(resumed.executed, n - k);

            // bit-identical aggregates (moments, histograms, counters)…
            assert_eq!(
                resumed.aggregates, reference.aggregates,
                "workers={workers} k={k}"
            );
            // …and byte-identical reports
            let report = build_report(&resumed);
            assert_eq!(report.to_json(), ref_json, "workers={workers} k={k}");
            assert_eq!(report.to_csv(), ref_csv, "workers={workers} k={k}");

            let _ = std::fs::remove_file(&ckpt);
        }
    }
}

#[test]
fn resume_from_every_checkpoint_file_state_is_exact() {
    // Drive the sweep one shard at a time, reloading the checkpoint
    // from disk between every step — the file (not process memory) is
    // the only carrier of state, as after a real kill -9.
    let spec = spec();
    let reference = run_sweep(&spec, &SweepOptions::default()).unwrap();
    let n = reference.resolved.fused.len();
    let ckpt = tmp_ckpt("stepwise");
    let _ = std::fs::remove_file(&ckpt);

    let mut last = None;
    for step in 0..n {
        let out = run_sweep(
            &spec,
            &SweepOptions {
                checkpoint: Some(ckpt.clone()),
                resume: true,
                max_shards: Some(1),
                checkpoint_every: 1,
                ..SweepOptions::default()
            },
        )
        .unwrap();
        assert_eq!(out.resumed, step);
        assert_eq!(out.executed, 1);
        last = Some(out);
    }
    let last = last.unwrap();
    assert!(last.complete);
    assert_eq!(last.aggregates, reference.aggregates);
    let _ = std::fs::remove_file(&ckpt);
}

#[test]
fn checkpoint_every_and_pool_choice_never_change_results() {
    let spec = spec();
    let reference = run_sweep(&spec, &SweepOptions::default()).unwrap();
    for every in [1usize, 5, 64] {
        let out = run_sweep(
            &spec,
            &SweepOptions {
                checkpoint_every: every,
                workers: 3,
                pool: Some(Arc::new(WorkerPool::new(2))),
                ..SweepOptions::default()
            },
        )
        .unwrap();
        assert_eq!(out.aggregates, reference.aggregates, "every={every}");
    }
}

/// The fusion determinism contract, end to end: a sweep's fused
/// shards and the per-cell reference agree bit-for-bit on aggregates
/// and byte-for-byte on reports, while the sweep simulates fewer rounds.
#[test]
fn fused_equals_unfused_bit_for_bit() {
    let spec = spec();
    let fused = run_sweep(&spec, &SweepOptions::default()).unwrap();
    assert!(fused.complete);
    let unfused = unfused_twin(&fused);
    assert_eq!(fused.aggregates, unfused.aggregates);
    let (fused_rounds, unfused_rounds) = fused.resolved.simulated_round_counts();
    assert_eq!(fused.simulated_rounds, fused_rounds);
    assert!(
        unfused_rounds > fused_rounds,
        "fusion must delete simulation work: {fused_rounds} vs {unfused_rounds}"
    );
    let (f, u) = (build_report(&fused), build_report(&unfused));
    assert_eq!(f.to_json(), u.to_json());
    assert_eq!(f.to_csv(), u.to_csv());
}

/// Two coordinators must never interleave writes on one checkpoint:
/// whoever holds `<ckpt>.lock` wins, the other fails loudly before
/// touching anything — in-process and distributed runners alike.
#[test]
fn concurrent_coordinators_on_one_checkpoint_fail_loudly() {
    let spec = spec();
    let ckpt = tmp_ckpt("locked");
    let _ = std::fs::remove_file(&ckpt);
    let held = CheckpointLock::acquire(&ckpt).unwrap();

    let opts = SweepOptions {
        checkpoint: Some(ckpt.clone()),
        ..SweepOptions::default()
    };
    let err = run_sweep(&spec, &opts).unwrap_err();
    assert!(err.contains("locked by running process"), "{err}");

    let dist = SweepOptions {
        dist: Some(DistOptions::sim(2, FaultPlan::none())),
        ..opts.clone()
    };
    let err = run_resolved(&spec.resolve(false).unwrap(), &dist, &mut |_, _, _| true).unwrap_err();
    match err {
        SweepError::Failed(e) => assert!(e.contains("locked by running process"), "{e}"),
        SweepError::Mismatch { .. } => panic!("lock contention is not a mismatch"),
    }

    // Releasing the lock unblocks the next coordinator.
    drop(held);
    let out = run_sweep(&spec, &opts).unwrap();
    assert!(out.complete);
    let _ = std::fs::remove_file(&ckpt);
}

/// The `--max-shards` + `--resume` regression: a budgeted partial run
/// plus a resume re-executes exactly the shards the checkpoint lacks —
/// never finished ones — and a resume of a complete sweep runs nothing.
#[test]
fn max_shards_budget_then_resume_executes_only_the_remainder() {
    let spec = spec();
    let reference = run_sweep(&spec, &SweepOptions::default()).unwrap();
    let n = reference.resolved.fused.len();
    let ckpt = tmp_ckpt("budget");
    let _ = std::fs::remove_file(&ckpt);

    let partial = run_sweep(
        &spec,
        &SweepOptions {
            checkpoint: Some(ckpt.clone()),
            max_shards: Some(2),
            checkpoint_every: 1,
            ..SweepOptions::default()
        },
    )
    .unwrap();
    assert!(!partial.complete);
    assert_eq!(partial.executed, 2);

    let resumed = run_sweep(
        &spec,
        &SweepOptions {
            checkpoint: Some(ckpt.clone()),
            resume: true,
            ..SweepOptions::default()
        },
    )
    .unwrap();
    assert!(resumed.complete);
    assert_eq!(resumed.resumed, 2, "finished shards must not re-run");
    assert_eq!(resumed.executed, n - 2);
    assert_eq!(resumed.aggregates, reference.aggregates);

    // Resuming a complete sweep is a no-op execution-wise.
    let again = run_sweep(
        &spec,
        &SweepOptions {
            checkpoint: Some(ckpt.clone()),
            resume: true,
            ..SweepOptions::default()
        },
    )
    .unwrap();
    assert!(again.complete);
    assert_eq!(again.resumed, n);
    assert_eq!(again.executed, 0);
    assert_eq!(again.aggregates, reference.aggregates);
    let _ = std::fs::remove_file(&ckpt);
}

/// The determinism contract extends unchanged to the pluggable CSR
/// topologies: generated graphs are pure functions of their spec (never
/// of the sweep seed or the process), so kill/resume lands on
/// bit-identical aggregates and byte-identical reports — including the
/// measured-spectral-gap bound column.
#[test]
fn csr_shards_kill_resume_bit_for_bit() {
    let spec = SweepSpec::parse(
        "
        name = csr_det
        seed = 7
        trials = 2
        topology = csr:cliquering:4:4, csr:grid-holes:8:3:0.25, csr:regular:24:4
        density = 0.2
        rounds = 4, 8
        estimator = alg1, quorum:0.1
        ",
    )
    .unwrap();
    let reference = run_sweep(&spec, &SweepOptions::default()).unwrap();
    assert!(reference.complete);
    let n = reference.resolved.fused.len();
    assert!(n >= 3, "one fused shard per csr topology, got {n}");
    let ref_report = build_report(&reference);

    for k in 1..n {
        let ckpt = tmp_ckpt(&format!("csr_{k}"));
        let _ = std::fs::remove_file(&ckpt);
        let partial = run_sweep(
            &spec,
            &SweepOptions {
                checkpoint: Some(ckpt.clone()),
                max_shards: Some(k),
                checkpoint_every: 1,
                ..SweepOptions::default()
            },
        )
        .unwrap();
        assert!(!partial.complete);
        let resumed = run_sweep(
            &spec,
            &SweepOptions {
                workers: 3,
                pool: Some(Arc::new(WorkerPool::new(3))),
                checkpoint: Some(ckpt.clone()),
                resume: true,
                ..SweepOptions::default()
            },
        )
        .unwrap();
        assert!(resumed.complete, "k={k}");
        assert_eq!(resumed.aggregates, reference.aggregates, "k={k}");
        let report = build_report(&resumed);
        assert_eq!(report.to_json(), ref_report.to_json(), "k={k}");
        assert_eq!(report.to_csv(), ref_report.to_csv(), "k={k}");
        let _ = std::fs::remove_file(&ckpt);
    }

    // fused == the per-cell reference over CSR topologies too
    let unfused = unfused_twin(&reference);
    assert_eq!(unfused.aggregates, reference.aggregates);
    let report = build_report(&unfused);
    assert_eq!(report.to_json(), ref_report.to_json());
    assert_eq!(report.to_csv(), ref_report.to_csv());
}
