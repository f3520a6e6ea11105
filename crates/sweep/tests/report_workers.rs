//! Report bytes do not depend on the worker count, and the concurrent
//! λ warm-up in `build_report` yields the bounds a serial measurement
//! gives.
//!
//! Its own test binary so the process-wide λ memo is cold when the
//! widest run below builds its report: that run measures every graph
//! concurrently, the narrower ones read the memo it left. The counts
//! test uses closed-form bounds only, so it never touches the memo.

use antdensity_core::theory::{measure_lambda, TopologyClass};
use antdensity_engine::WorkerPool;
use antdensity_sweep::{build_report, run_sweep, run_sweep_observed, SweepOptions, SweepSpec};
use std::sync::Arc;

#[test]
fn report_is_byte_identical_across_worker_counts() {
    let spec = SweepSpec::parse(
        "
        name = report_workers
        seed = 7
        trials = 1
        topology = csr:grid-holes:12:3:0.2, csr:cliquering:6:5, csr:regular:64:4, csr:gnp:64:6, torus2d:8
        density = 0.1
        rounds = 8, 16
        estimator = alg1, relfreq:0.5
        ",
    )
    .unwrap();
    let mut reports = Vec::new();
    for workers in [4, 2, 1] {
        let options = SweepOptions {
            workers,
            pool: Some(Arc::new(WorkerPool::new(workers))),
            ..SweepOptions::default()
        };
        let outcome = run_sweep(&spec, &options).unwrap();
        assert!(outcome.complete);
        let report = build_report(&outcome);
        if workers == 4 {
            // every measured-gap bound equals one built from a serially
            // measured λ, bit for bit
            let resolved = &outcome.resolved;
            let mut measured = 0;
            for (cell, row) in resolved.cells.iter().zip(&report.rows) {
                if row.bound_src != "measured-gap" {
                    continue;
                }
                let serial = TopologyClass::Expander {
                    lambda: measure_lambda(cell.topology).lambda,
                    nodes: cell.topology.num_nodes(),
                }
                .epsilon(cell.rounds, cell.true_density(), resolved.delta);
                assert_eq!(
                    row.bound.map(f64::to_bits),
                    Some(serial.to_bits()),
                    "{row:?}"
                );
                measured += 1;
            }
            assert_eq!(measured, 8, "four csr graphs × two rounds under alg1");
        }
        reports.push((workers, report.to_json(), report.to_csv()));
    }
    let (_, json, csv) = &reports[0];
    for (workers, j, c) in &reports[1..] {
        assert_eq!(j, json, "JSON differs at {workers} workers");
        assert_eq!(c, csv, "CSV differs at {workers} workers");
    }
}

/// Uneven shards — counts-engine pure cells beside agent-kernel lazy
/// cells, populations a factor 20 apart — are claimed costliest first,
/// yet every shard is observed and merged in wave order, and the report
/// bytes match at 1, 2 and 4 workers.
#[test]
fn uneven_counts_waves_are_byte_identical_across_worker_counts() {
    let spec = SweepSpec::parse(
        "
        name = counts_workers
        seed = 16
        trials = 2
        topology = torus2d:32, ring:512
        density = 0.05, 0.25, 1.0
        rounds = 8, 24
        estimator = alg1
        movement = pure, lazy:0.3
        counts = on
        ",
    )
    .unwrap();
    let mut runs = Vec::new();
    for workers in [1, 2, 4] {
        let options = SweepOptions {
            workers,
            pool: Some(Arc::new(WorkerPool::new(workers))),
            checkpoint_every: 5,
            ..SweepOptions::default()
        };
        let mut observed = Vec::new();
        let outcome = run_sweep_observed(&spec, &options, &mut |resolved, shard, cells| {
            let members: Vec<usize> = cells.iter().map(|&(cell, _)| cell).collect();
            assert_eq!(
                members, resolved.fused[shard].cells,
                "shard {shard}'s own cells"
            );
            observed.push(shard);
            true
        })
        .unwrap();
        assert!(outcome.complete);
        assert_eq!(
            observed,
            (0..outcome.resolved.fused.len()).collect::<Vec<_>>(),
            "shards are observed in wave order at {workers} workers"
        );
        let report = build_report(&outcome);
        runs.push((workers, report.to_json(), report.to_csv()));
    }
    let (_, json, csv) = &runs[0];
    for (workers, j, c) in &runs[1..] {
        assert_eq!(j, json, "JSON differs at {workers} workers");
        assert_eq!(c, csv, "CSV differs at {workers} workers");
    }
}
