//! The distributed determinism contract: a sweep executed through the
//! coordinator/worker runtime produces **byte-identical** reports to
//! the in-process runner — across worker counts, seeded fault plans
//! (kills, drops, delays, corruption, duplicates), degradation to
//! in-process execution, kill-the-coordinator/resume, and transports.
//!
//! Everything here runs on the discrete-event simulator (virtual
//! clock, zero wall-time dependence) except the TCP loopback test,
//! which drives the real runtime with worker threads in this process.
//! Same `FaultPlan` + seed ⇒ same lease/failure/re-issue schedule ⇒
//! same coordinator log, byte for byte — also pinned here.

use antdensity_sweep::dist::{self, DistConfig, DistOptions, FaultPlan, Transport};
use antdensity_sweep::{
    build_report, run_resolved, run_sweep, Checkpoint, SweepError, SweepOptions, SweepOutcome,
    SweepSpec,
};
use std::ops::ControlFlow;
use std::path::PathBuf;

fn spec() -> SweepSpec {
    antdensity_telemetry::set_enabled(true);
    // Same heterogeneous grid as tests/determinism.rs: 4+ fused shards,
    // multiple cells per shard, every aggregate path exercised.
    SweepSpec::parse(
        "
        name = dist_det
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

fn tmp_ckpt(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "antdensity_dist_det_{}_{tag}.ckpt",
        std::process::id()
    ))
}

/// Runs `spec` through the sweep driver on `dopts`' transport.
fn run_dist(
    spec: &SweepSpec,
    opts: SweepOptions,
    dopts: DistOptions,
) -> Result<SweepOutcome, SweepError> {
    let resolved = spec.resolve(opts.quick).unwrap();
    let opts = SweepOptions {
        dist: Some(dopts),
        ..opts
    };
    run_resolved(&resolved, &opts, &mut |_, _, _| true)
}

/// Runs the sweep distributed over the simulator and asserts the
/// outcome is byte-identical to `reference`'s report.
fn assert_sim_matches(
    spec: &SweepSpec,
    reference: &antdensity_sweep::SweepOutcome,
    workers: usize,
    plan: &str,
    label: &str,
) -> dist::DistStats {
    let plan = FaultPlan::parse(plan).unwrap();
    let outcome = run_dist(
        spec,
        SweepOptions::default(),
        DistOptions::sim(workers, plan),
    )
    .unwrap_or_else(|e| panic!("{label}: distributed run failed: {e}"));
    assert!(outcome.complete, "{label}");
    assert_eq!(outcome.aggregates, reference.aggregates, "{label}");
    let (r, d) = (build_report(reference), build_report(&outcome));
    assert_eq!(r.to_json(), d.to_json(), "{label}");
    assert_eq!(r.to_csv(), d.to_csv(), "{label}");
    outcome
        .dist
        .expect("a distributed outcome carries its counters")
}

#[test]
fn sim_matches_in_process_across_worker_counts() {
    let spec = spec();
    let reference = run_sweep(&spec, &SweepOptions::default()).unwrap();
    assert!(reference.complete);
    for workers in [1usize, 2, 4, 8] {
        let stats = assert_sim_matches(&spec, &reference, workers, "", &format!("w={workers}"));
        assert_eq!(stats.reissues, 0);
        assert_eq!(stats.deaths, 0);
        let shards = reference.resolved.fused.len() as u64;
        assert_eq!(stats.leases, shards, "one lease per shard, no faults");
        assert_eq!(
            stats.workers_seen, workers as u64,
            "every worker says HELLO"
        );
    }
}

#[test]
fn seeded_fault_plans_never_change_report_bytes() {
    let spec = spec();
    let reference = run_sweep(&spec, &SweepOptions::default()).unwrap();

    // Worker kill: the holder of global lease 3 dies mid-compute, is
    // respawned, and the shard is re-issued.
    let stats = assert_sim_matches(&spec, &reference, 3, "kill:lease3", "kill");
    assert_eq!(stats.deaths, 1, "kill plan must fire");
    assert!(stats.reissues >= 1);
    assert_eq!(stats.respawns, 1);

    // Message drop: the first RESULT never arrives; the lease expires
    // by heartbeat silence and the shard is re-issued.
    let stats = assert_sim_matches(&spec, &reference, 3, "drop:RESULT@1", "drop");
    assert!(stats.reissues >= 1, "dropped result must force a re-issue");

    // Duplicate result: the first RESULT is delivered twice; the copy
    // is byte-equal, so it is counted and discarded, never re-merged.
    let stats = assert_sim_matches(&spec, &reference, 3, "dup:RESULT@1", "dup");
    assert_eq!(stats.duplicates, 1);

    // Corrupted frame: detected by checksum, counted, recovered by
    // lease expiry + re-issue.
    let stats = assert_sim_matches(&spec, &reference, 3, "corrupt:RESULT@1", "corrupt");
    assert_eq!(stats.bad_frames, 1);
    assert!(stats.reissues >= 1);

    // Straggler: the first RESULT is delayed past the heartbeat
    // timeout, so its shard is re-issued — but the late answer still
    // arrives first and wins as the first valid result, making the
    // re-issued worker's answer a byte-equal duplicate. The second
    // delay keeps another shard outstanding so the duplicate lands
    // mid-run (a finished coordinator ignores everything).
    let stats = assert_sim_matches(
        &spec,
        &reference,
        3,
        "delay:RESULT@1:2200,delay:RESULT@6:3000",
        "delay",
    );
    assert!(stats.reissues >= 2);
    assert_eq!(
        stats.duplicates, 1,
        "late duplicate must be compared, not merged"
    );

    // Compound schedule across several verbs at once.
    let stats = assert_sim_matches(
        &spec,
        &reference,
        4,
        "kill:lease2,drop:RESULT@3,corrupt:HEARTBEAT@1,dup:RESULT@4",
        "compound",
    );
    assert!(stats.deaths >= 1 && stats.reissues >= 2);
}

#[test]
fn persistent_failure_degrades_to_in_process_with_identical_bytes() {
    let spec = spec();
    let reference = run_sweep(&spec, &SweepOptions::default()).unwrap();
    // w0 dies on its first lease in every incarnation (per-process
    // ordinals reset on respawn), exhausting the respawn budget; the
    // sole slot is lost and the coordinator degrades.
    let stats = assert_sim_matches(&spec, &reference, 1, "kill:w0@lease1", "degrade");
    let cfg = DistConfig::default();
    assert_eq!(stats.respawns, cfg.max_respawns);
    assert_eq!(stats.deaths, cfg.max_respawns + 1);
    assert_eq!(
        stats.degraded,
        reference.resolved.fused.len() as u64,
        "every shard must fall back in-process"
    );
}

#[test]
fn same_plan_same_seed_same_schedule() {
    // The determinism of the fault harness itself: identical
    // (plan, seed, config) ⇒ identical coordinator event log and
    // stats, byte for byte — no wall clock anywhere.
    let spec = spec();
    let resolved = spec.resolve(true).unwrap();
    let pending: Vec<usize> = (0..resolved.fused.len()).collect();
    let plan = FaultPlan::parse("kill:lease2,drop:RESULT@2,delay:HEARTBEAT@3:700").unwrap();
    let cfg = DistConfig::default();
    let mut runs = Vec::new();
    for _ in 0..2 {
        let mut blobs: Vec<(u64, String)> = Vec::new();
        let out = dist::sim::run_sim(&resolved, &pending, 3, &plan, &cfg, None, &mut |s, b| {
            blobs.push((s, b.to_string()));
            Ok(ControlFlow::Continue(()))
        })
        .unwrap();
        runs.push((out.log, out.stats, blobs));
    }
    assert_eq!(
        runs[0].0, runs[1].0,
        "coordinator logs must replay identically"
    );
    assert_eq!(runs[0].1, runs[1].1);
    assert_eq!(
        runs[0].2, runs[1].2,
        "blob completion order must replay identically"
    );
    assert!(!runs[0].0.is_empty());
}

#[test]
fn byzantine_duplicate_aborts_with_mismatch_report() {
    // dup:RESULT@1 re-delivers the first result; lie:RESULT@2 tampers
    // that copy (valid blob, different bytes). With several shards
    // still outstanding the coordinator must abort, naming the shard
    // and the first differing byte — never silently merge either blob.
    let spec = spec();
    let plan = FaultPlan::parse("dup:RESULT@1,lie:RESULT@2").unwrap();
    let err = run_dist(&spec, SweepOptions::default(), DistOptions::sim(2, plan)).unwrap_err();
    match err {
        SweepError::Mismatch { report, .. } => {
            assert!(report.contains("first_diff_at="), "report: {report}");
            assert!(report.contains("first_len="), "report: {report}");
        }
        SweepError::Failed(e) => panic!("wanted Mismatch, got Failed: {e}"),
    }
}

#[test]
fn kill_coordinator_and_resume_matches_either_way() {
    let spec = spec();
    let reference = run_sweep(&spec, &SweepOptions::default()).unwrap();
    let n = reference.resolved.fused.len();
    assert!(n >= 4);

    // Distributed partial (the "coordinator was killed" state is the
    // checkpoint file), resumed in-process.
    let ckpt = tmp_ckpt("dist_then_local");
    let _ = std::fs::remove_file(&ckpt);
    let opts_partial = SweepOptions {
        checkpoint: Some(ckpt.clone()),
        max_shards: Some(2),
        checkpoint_every: 1,
        ..SweepOptions::default()
    };
    let partial = run_dist(
        &spec,
        opts_partial,
        DistOptions::sim(2, FaultPlan::parse("kill:lease2").unwrap()),
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
    assert_eq!(resumed.resumed, 2, "only incomplete shards may re-run");
    assert_eq!(resumed.executed, n - 2);
    assert_eq!(resumed.aggregates, reference.aggregates);
    let _ = std::fs::remove_file(&ckpt);

    // In-process partial, resumed distributed (under a fault plan).
    let ckpt = tmp_ckpt("local_then_dist");
    let _ = std::fs::remove_file(&ckpt);
    let partial = run_sweep(
        &spec,
        &SweepOptions {
            checkpoint: Some(ckpt.clone()),
            max_shards: Some(1),
            checkpoint_every: 1,
            ..SweepOptions::default()
        },
    )
    .unwrap();
    assert!(!partial.complete);
    let opts_resume = SweepOptions {
        checkpoint: Some(ckpt.clone()),
        resume: true,
        ..SweepOptions::default()
    };
    let resumed = run_dist(
        &spec,
        opts_resume,
        DistOptions::sim(3, FaultPlan::parse("drop:RESULT@1").unwrap()),
    )
    .unwrap();
    let stats = resumed.dist.clone().unwrap();
    assert!(resumed.complete);
    assert_eq!(resumed.resumed, 1);
    assert_eq!(resumed.executed, n - 1);
    assert_eq!(
        stats.leases as usize,
        (n - 1) + stats.reissues as usize,
        "leases only for incomplete shards (plus re-issues)"
    );
    assert_eq!(resumed.aggregates, reference.aggregates);
    let report = build_report(&resumed);
    let ref_report = build_report(&reference);
    assert_eq!(report.to_json(), ref_report.to_json());
    assert_eq!(report.to_csv(), ref_report.to_csv());
    let _ = std::fs::remove_file(&ckpt);
}

#[test]
fn tcp_loopback_real_runtime_matches_in_process() {
    // The one wall-clock test: a listening coordinator and two worker
    // threads speaking real frames over loopback TCP. Byte-identity
    // must hold on the real transport, not just the simulator.
    let spec = spec();
    let reference = run_sweep(&spec, &SweepOptions::default()).unwrap();
    let spec_text = "
        name = dist_det
        seed = 20160725
        trials = 2
        topology = torus2d:8, complete:64
        density = 0.1, 0.3
        rounds = 4, 6
        estimator = alg1, alg4, quorum:0.05, relfreq:0.5
        noise = none
        ";
    let port = 20000 + (std::process::id() % 20000) as u16;
    let addr = format!("127.0.0.1:{port}");
    let workers: Vec<_> = (0..2)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                // The listener comes up concurrently; retry briefly.
                for _ in 0..100 {
                    match dist::runtime::run_worker_connect(&addr, None) {
                        Ok(()) => return Ok(()),
                        Err(e) if e.contains("cannot connect") => {
                            std::thread::sleep(std::time::Duration::from_millis(20));
                        }
                        Err(e) => return Err(e),
                    }
                }
                Err("listener never came up".to_string())
            })
        })
        .collect();
    let dopts = DistOptions {
        transport: Transport::Listen { addr: addr.clone() },
        plan: FaultPlan::none(),
        config: DistConfig::default(),
        spec_text: Some(spec_text.to_string()),
        worker_argv: None,
    };
    let outcome = run_dist(&spec, SweepOptions::default(), dopts).unwrap();
    let stats = outcome.dist.clone().unwrap();
    for w in workers {
        w.join().unwrap().unwrap();
    }
    assert!(outcome.complete);
    assert_eq!(stats.workers_seen, 2);
    assert_eq!(outcome.aggregates, reference.aggregates);
    let (r, d) = (build_report(&reference), build_report(&outcome));
    assert_eq!(r.to_json(), d.to_json());
    assert_eq!(r.to_csv(), d.to_csv());
}

/// An observer that stops a simulated run after `k` shards: the
/// transport is torn down, the outcome is partial, the checkpoint
/// keeps exactly the merged shards, and resuming in-process finishes
/// with the in-process report bytes.
#[test]
fn observer_stop_on_sim_transport_keeps_merged_shards_and_resumes_in_process() {
    let spec = spec();
    let reference = run_sweep(&spec, &SweepOptions::default()).unwrap();
    let resolved = &reference.resolved;
    let n = resolved.fused.len();
    let k = 2;
    assert!(n > k);
    let ckpt = tmp_ckpt("observer_stop");
    let _ = std::fs::remove_file(&ckpt);
    let opts = SweepOptions {
        checkpoint: Some(ckpt.clone()),
        dist: Some(DistOptions::sim(3, FaultPlan::none())),
        ..SweepOptions::default()
    };
    let mut seen = Vec::new();
    let partial = run_resolved(resolved, &opts, &mut |_, shard, _| {
        seen.push(shard);
        seen.len() < k
    })
    .unwrap();
    assert!(!partial.complete);
    assert_eq!(seen.len(), k, "no observation after the stop");
    assert_eq!(partial.executed, k, "the transport stops at the stop");
    let stats = partial.dist.clone().unwrap();
    assert!(stats.leases as usize >= k);
    assert_eq!(stats.degraded, 0);

    let merged: Vec<usize> = seen
        .iter()
        .flat_map(|&s| resolved.fused[s].cells.clone())
        .collect();
    let ck = Checkpoint::load(&ckpt).unwrap();
    assert_eq!(ck.shards.keys().copied().collect::<Vec<_>>(), {
        let mut cells = merged.clone();
        cells.sort_unstable();
        cells
    });
    for cell in merged {
        assert_eq!(Some(&ck.shards[&cell]), reference.aggregates[cell].as_ref());
    }

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
    assert_eq!(resumed.resumed, k);
    assert_eq!(resumed.executed, n - k);
    let (r, d) = (build_report(&reference), build_report(&resumed));
    assert_eq!(r.to_json(), d.to_json());
    assert_eq!(r.to_csv(), d.to_csv());
    let _ = std::fs::remove_file(&ckpt);
}
