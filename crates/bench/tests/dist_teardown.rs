//! A distributed sweep whose sink fails still tears its workers down.
//!
//! Real `repro sweep-worker --stdio` children serve a sweep whose
//! checkpoint path is an existing, non-empty directory, so the first
//! checkpoint write fails. The driver must return that error only after
//! sending `SHUTDOWN` and reaping every child: a long-lived coordinator
//! (`repro serve --dist N`) would otherwise collect zombies. Kept in its
//! own test binary so no other test's children share the process.
#![cfg(target_os = "linux")]

use antdensity_sweep::dist::{DistConfig, DistOptions, FaultPlan, Transport};
use antdensity_sweep::{run_resolved, SweepOptions, SweepSpec};

const SPEC: &str = "
name = dist_teardown
seed = 11
trials = 2
quick_trials = 1

topology  = torus2d:8, complete:64
density   = 0.1, 0.25
rounds    = 8
estimator = alg1, quorum:0.05
";

/// Child PIDs of every thread of this process, zombies included.
fn children() -> Vec<String> {
    let mut pids = Vec::new();
    for task in std::fs::read_dir("/proc/self/task").expect("procfs") {
        let path = task.expect("task entry").path().join("children");
        let text =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        pids.extend(text.split_whitespace().map(String::from));
    }
    pids
}

#[test]
fn failed_checkpoint_write_reaps_every_child() {
    let dir = std::env::temp_dir().join(format!("antdensity_dist_teardown_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let ckpt = dir.join("sweep.ckpt");
    std::fs::create_dir_all(&ckpt).unwrap();
    std::fs::write(
        ckpt.join("occupant"),
        "a checkpoint cannot replace this directory",
    )
    .unwrap();

    let resolved = SweepSpec::parse(SPEC).unwrap().resolve(true).unwrap();
    let opts = SweepOptions {
        quick: true,
        checkpoint: Some(ckpt),
        checkpoint_every: 1,
        dist: Some(DistOptions {
            transport: Transport::Children { workers: 2 },
            plan: FaultPlan::none(),
            config: DistConfig::default(),
            spec_text: Some(SPEC.to_string()),
            worker_argv: Some(vec![
                env!("CARGO_BIN_EXE_repro").to_string(),
                "sweep-worker".into(),
                "--stdio".into(),
            ]),
        }),
        ..SweepOptions::default()
    };
    assert!(children().is_empty(), "no children before the run");
    let err = run_resolved(&resolved, &opts, &mut |_, _, _| true)
        .expect_err("the first checkpoint write fails");
    assert!(
        err.to_string().contains("checkpoint write failed"),
        "unexpected error: {err}"
    );
    assert_eq!(children(), Vec::<String>::new(), "children left unreaped");
    let _ = std::fs::remove_dir_all(&dir);
}
