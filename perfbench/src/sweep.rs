//! The sweep workloads.
//!
//! The parent process generates the spec from the workload seed,
//! computes the output-check reference, then runs one sweep per child
//! process until the time is up. A fresh process per sweep is what a
//! `repro sweep` user pays for: the CSR graph cache and the measured-λ
//! memo start cold every time. Each child times its own set-up, from
//! process start through parse, resolve and graph build, and its sweep,
//! from spec text to report bytes written through `run_spec_text` and
//! `SweepReport::write`.
//!
//! The traced child drives the same pipeline stage by stage through
//! each layer's public functions, with spans around every call, and
//! must write the same report bytes.

use crate::gen::Rng;
use crate::stats::{delivered_agent_steps, median};
use crate::trace::{self, Tracer, NO_GROUP};
use crate::{sys, Outcome, Workload};
use antdensity_core::theory::theory_bound;
use antdensity_engine::{EstimatorSpec, ObserverTap, Scenario, TopologySpec, WorkerPool};
use antdensity_stats::rng::SeedSequence;
use antdensity_sweep::checkpoint::save_shards;
use antdensity_sweep::{
    build_row, run_shard_unfused, run_spec_text, CellAggregate, Checkpoint, CheckpointLock,
    FusedShard, ResolvedSweep, SweepOptions, SweepReport, SweepSpec,
};
use antdensity_walks::parallel;
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Sweep workers: the host's two cores.
pub const WORKERS: usize = 2;
/// Shards per checkpoint wave (the runner's default).
const WAVE: usize = 8;
/// Fused shards re-run unfused for the output check.
const SAMPLED_SHARDS: usize = 2;
/// The runner's shard stream label; the traced pipeline must derive
/// the same trial seeds, which the report byte check enforces.
const SHARD_STREAM: u64 = 0x5348_4152_4400_0000;

fn spec_text(w: Workload, seed: u64) -> String {
    match w {
        Workload::Alg1Table => crate::gen::alg1_table_spec(seed),
        Workload::LargePop => crate::gen::large_pop_spec(seed),
        Workload::IrregularCsr => crate::gen::irregular_csr_spec(seed),
        Workload::ServeMixed => unreachable!("serve_mixed is not a sweep workload"),
    }
}

/// Bit-exact text of `cells`' aggregates (the checkpoint encoding).
fn cells_text(resolved: &ResolvedSweep, cells: BTreeMap<usize, CellAggregate>) -> String {
    Checkpoint {
        fingerprint: resolved.fingerprint,
        cells: resolved.cells.len(),
        shards: cells,
    }
    .to_text()
}

/// Everything a sweep writes that a user reads: JSON, CSV, and the
/// rendered table.
fn report_bytes(dir: &Path, name: &str) -> Result<Vec<u8>, String> {
    let mut out = Vec::new();
    for file in [
        format!("SWEEP_{name}.json"),
        format!("SWEEP_{name}.csv"),
        "table.txt".to_string(),
    ] {
        let path = dir.join(&file);
        out.extend(std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?);
    }
    Ok(out)
}

/// `key value` lines a child prints on stdout.
fn parse_kv(stdout: &[u8]) -> BTreeMap<String, f64> {
    String::from_utf8_lossy(stdout)
        .lines()
        .filter_map(|l| {
            let (k, v) = l.split_once(' ')?;
            Some((k.to_string(), v.trim().parse().ok()?))
        })
        .collect()
}

pub struct ChildRun {
    pub kv: BTreeMap<String, f64>,
    /// Spawn to exit, as the parent saw it, host steal taken out.
    process_s: f64,
    pub status: std::process::ExitStatus,
}

/// Runs a child to exit and collects its stdout.
pub fn spawn_child(cmd: &mut Command) -> Result<ChildRun, String> {
    let clock = sys::StealFreeClock::start();
    let out = cmd
        .stdout(Stdio::piped())
        .output()
        .map_err(|e| format!("run child: {e}"))?;
    Ok(ChildRun {
        kv: parse_kv(&out.stdout),
        process_s: clock.elapsed().0,
        status: out.status,
    })
}

/// The parent side: one benchmark run of a sweep workload.
pub fn run(
    w: Workload,
    seed: u64,
    seconds: u64,
    traced: bool,
    work: &Path,
) -> Result<Outcome, String> {
    let text = spec_text(w, seed);
    let spec = SweepSpec::parse(&text)?;
    let resolved = spec.resolve(false)?;
    let spec_path = work.join("spec.sweep");
    std::fs::write(&spec_path, &text).map_err(|e| format!("write spec: {e}"))?;

    // Output-check reference: a seeded sample of shards, unfused.
    let mut rng = Rng::new(seed ^ 0x5a4d_504c_4500); // "SAMPLE"
    let mut sample = BTreeSet::new();
    while sample.len() < SAMPLED_SHARDS.min(resolved.fused.len()) {
        sample.insert(rng.below(resolved.fused.len() as u64) as usize);
    }
    let reference: BTreeMap<usize, CellAggregate> = sample
        .iter()
        .flat_map(|&i| run_shard_unfused(&resolved, i))
        .collect();
    let sampled_cells: Vec<usize> = reference.keys().copied().collect();
    let reference = cells_text(&resolved, reference);

    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let trace_file = crate::out_dir().join(format!("trace-{}-seed{seed}.json", w.name()));
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let (mut untraced, mut traced_runs) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut expected_bytes: Option<Vec<u8>> = None;
    loop {
        let is_traced = traced && attempted % 2 == 1;
        let dir = work.join(format!("run{attempted}"));
        let mut cmd = Command::new(&exe);
        cmd.arg("sweep-child")
            .arg("--spec")
            .arg(&spec_path)
            .arg("--out")
            .arg(&dir)
            .stdin(Stdio::null())
            .stderr(Stdio::inherit());
        if is_traced {
            cmd.arg("--traced");
            if traced_runs.is_empty() {
                cmd.arg("--trace-file").arg(&trace_file);
            }
        }
        attempted += 1;
        let checked = spawn_child(&mut cmd)
            .and_then(|child| check_child(child, &dir, &resolved, &sampled_cells, &reference))
            .and_then(|(run, bytes)| match &expected_bytes {
                Some(want) if *want != bytes => Err(format!(
                    "report bytes differ from the first run's ({} vs {} bytes)",
                    bytes.len(),
                    want.len()
                )),
                Some(_) => Ok(run),
                None => {
                    expected_bytes = Some(bytes);
                    Ok(run)
                }
            });
        // Best effort: a leftover directory wastes space, nothing more.
        let _ = std::fs::remove_dir_all(&dir);
        match checked {
            Ok(run) if is_traced => traced_runs.push(run),
            Ok(run) => untraced.push(run),
            Err(e) => {
                failed += 1;
                eprintln!("perfbench: {} run {}: {e}", w.name(), attempted - 1);
            }
        }
        let enough = attempted >= if traced { 4 } else { 3 };
        if (Instant::now() >= deadline && enough) || failed > 3 {
            break;
        }
    }
    if untraced.is_empty() || (traced && traced_runs.is_empty()) {
        return Err(format!("{}: no run completed", w.name()));
    }

    let col = |runs: &[ChildRun], key: &str| -> Vec<f64> {
        runs.iter().filter_map(|r| r.kv.get(key).copied()).collect()
    };
    let walls = col(&untraced, "wall_s");
    let mut notes = vec![format!(
        "{} sweeps ({} traced), {} cells in {} fused shards, {} trials, {:.4e} delivered agent-steps per sweep",
        attempted,
        traced_runs.len(),
        resolved.cells.len(),
        resolved.fused.len(),
        resolved.trials,
        delivered_agent_steps(&resolved) as f64
    )];
    notes.push(format!(
        "output check: shards {sample:?} re-run unfused, cells {sampled_cells:?} compared bit for bit"
    ));
    let metrics = if traced {
        let overhead = median(&col(&traced_runs, "wall_s")) / median(&walls) - 1.0;
        crate::layer_metrics(
            |name| crate::median_or_zero(&col(&traced_runs, &format!("m.{name}"))),
            overhead,
        )
    } else {
        let process: f64 = untraced.iter().map(|r| r.process_s).sum();
        let wall = median(&walls);
        notes.push(format!(
            "sweep wall and set-up samples: {}; host steal {:.3} s over all sweeps",
            walls.len(),
            col(&untraced, "steal_s").iter().sum::<f64>()
        ));
        vec![
            ("setup_s", median(&col(&untraced, "setup_s"))),
            (
                "agent_steps_per_s",
                delivered_agent_steps(&resolved) as f64 / wall,
            ),
            ("jobs_per_s", untraced.len() as f64 / process),
            ("job_p50_ms", wall * 1e3),
            ("peak_rss_mb", median(&col(&untraced, "rss_kib")) / 1024.0),
        ]
    };
    Ok(Outcome {
        attempted,
        failed,
        metrics,
        notes,
    })
}

/// Checks one child: clean exit, a complete sweep, sampled cells equal
/// to the unfused reference bit for bit. Returns its measurements and
/// report bytes.
fn check_child(
    run: ChildRun,
    dir: &Path,
    resolved: &ResolvedSweep,
    sampled_cells: &[usize],
    reference: &str,
) -> Result<(ChildRun, Vec<u8>), String> {
    if !run.status.success() {
        return Err(format!("child exited with {}", run.status));
    }
    if run.kv.get("complete") != Some(&1.0) {
        return Err("sweep did not complete".to_string());
    }
    let ck = Checkpoint::load(&dir.join(format!("{}.ckpt", resolved.name)))?;
    let sampled: BTreeMap<usize, CellAggregate> = sampled_cells
        .iter()
        .filter_map(|c| Some((*c, ck.shards.get(c)?.clone())))
        .collect();
    if cells_text(resolved, sampled) != reference {
        return Err("sampled cell aggregates differ from the unfused reference".to_string());
    }
    let bytes = report_bytes(dir, &resolved.name)?;
    Ok((run, bytes))
}

/// Child entry: one sweep in a fresh process. `started` is taken first
/// thing in `main`.
pub fn child(args: &[String], started: Instant) -> Result<(), String> {
    let mut spec_path = None;
    let mut out = None;
    let mut traced = false;
    let mut trace_file = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--spec" => spec_path = it.next().map(PathBuf::from),
            "--out" => out = it.next().map(PathBuf::from),
            "--traced" => traced = true,
            "--trace-file" => trace_file = it.next().map(PathBuf::from),
            other => return Err(format!("sweep-child: unknown argument `{other}`")),
        }
    }
    let (Some(spec_path), Some(out)) = (spec_path, out) else {
        return Err("sweep-child needs --spec and --out".to_string());
    };
    // `repro sweep` always collects telemetry; so does the benchmark.
    antdensity_telemetry::set_enabled(true);
    if traced {
        return traced_child(&spec_path, &out, trace_file.as_deref());
    }

    // Set-up: parse, resolve, build every graph.
    let text = std::fs::read_to_string(&spec_path).map_err(|e| format!("read spec: {e}"))?;
    let resolved = SweepSpec::parse(&text)?.resolve(false)?;
    build_topologies(&resolved);
    std::fs::create_dir_all(&out).map_err(|e| format!("create out dir: {e}"))?;
    let setup_s = started.elapsed().as_secs_f64();

    let clock = sys::StealFreeClock::start();
    let (outcome, report) = run_spec_text(&text, &options(&out, &resolved.name))?;
    write_report(&report, &out)?;
    let (wall_s, steal_s) = clock.elapsed();
    println!("setup_s {setup_s}");
    println!("wall_s {wall_s}");
    println!("steal_s {steal_s}");
    println!("complete {}", u8::from(outcome.complete));
    println!("rss_kib {}", sys::peak_rss_kib());
    Ok(())
}

/// `repro sweep` defaults: fused, checkpointed, no cache.
fn options(out: &Path, name: &str) -> SweepOptions {
    SweepOptions {
        workers: WORKERS,
        checkpoint: Some(out.join(format!("{name}.ckpt"))),
        ..SweepOptions::default()
    }
}

fn write_report(report: &SweepReport, out: &Path) -> Result<(), String> {
    std::fs::write(out.join("table.txt"), report.render()).map_err(|e| format!("table: {e}"))?;
    report
        .write(out)
        .map_err(|e| format!("report write: {e}"))?;
    Ok(())
}

/// Builds each distinct topology once (filling the process's CSR
/// cache, as the first trial on it would).
pub fn build_topologies(resolved: &ResolvedSweep) {
    let distinct: Vec<TopologySpec> = resolved.cells.iter().fold(Vec::new(), |mut v, c| {
        if !v.contains(&c.topology) {
            v.push(c.topology);
        }
        v
    });
    for t in distinct {
        black_box(t.build());
    }
}

/// The shard's shared scenario (everything but estimator and rounds),
/// as the runner builds it.
fn base_scenario(resolved: &ResolvedSweep, shard: &FusedShard, rounds: u64) -> Scenario {
    let base = &resolved.cells[shard.cells[0]];
    let mut scenario =
        Scenario::new(base.topology, base.num_agents, rounds).with_movement(base.movement.clone());
    if let Some(noise) = base.noise {
        scenario = scenario.with_noise(noise);
    }
    scenario
}

/// The runner's dispatch rule for the counts engine.
pub fn counts_eligible(resolved: &ResolvedSweep, shard: &FusedShard) -> bool {
    resolved.counts
        && shard
            .taps
            .iter()
            .all(|t| t.estimator == EstimatorSpec::Algorithm1)
        && base_scenario(resolved, shard, 1).counts_compatible()
}

fn taps(shard: &FusedShard) -> Vec<ObserverTap> {
    shard
        .taps
        .iter()
        .map(|t| ObserverTap {
            estimator: t.estimator.clone(),
            schedule: t.schedule(),
        })
        .collect()
}

/// One fused shard, stage by stage: `runner.shard` around the whole,
/// `engine.trial` / `counts.trial` around each simulation pass,
/// `aggregate.record` around folding its outcomes into the cells.
pub fn traced_shard(
    resolved: &ResolvedSweep,
    index: usize,
    tracer: &Tracer,
    parent: Option<usize>,
    group: u64,
) -> Vec<(usize, CellAggregate)> {
    let span = tracer.start("runner.shard", parent, group);
    let me = Some(span.id());
    let shard = &resolved.fused[index];
    let seq = SeedSequence::new(resolved.seed).subsequence(SHARD_STREAM ^ index as u64);
    let scenario = base_scenario(resolved, shard, shard.max_rounds());
    let mut aggs: BTreeMap<usize, CellAggregate> = shard
        .cells
        .iter()
        .map(|&c| (c, CellAggregate::new()))
        .collect();
    let member = "checkpoint cells are shard members";
    if counts_eligible(resolved, shard) {
        let tap = &shard.taps[0];
        let points: Vec<u64> = tap.checkpoints.iter().map(|c| c.rounds).collect();
        for trial in 0..resolved.trials {
            let outcomes = tracer.time("counts.trial", me, group, || {
                scenario.run_counts_scheduled(seq.derive(trial), &points)
            });
            let _rec = tracer.start("aggregate.record", me, group);
            for (cp, outcome) in tap.checkpoints.iter().zip(&outcomes) {
                for &c in &cp.cells {
                    aggs.get_mut(&c).expect(member).record_counts_trial(
                        &resolved.cells[c],
                        outcome,
                        resolved.band,
                    );
                }
            }
        }
    } else {
        let taps = taps(shard);
        for trial in 0..resolved.trials {
            let outcomes = tracer.time("engine.trial", me, group, || {
                scenario.run_streamed(seq.derive(trial), &taps)
            });
            let _rec = tracer.start("aggregate.record", me, group);
            for (tap, tap_outcomes) in shard.taps.iter().zip(&outcomes) {
                for (cp, outcome) in tap.checkpoints.iter().zip(tap_outcomes) {
                    for &c in &cp.cells {
                        aggs.get_mut(&c).expect(member).record_trial(
                            &resolved.cells[c],
                            outcome,
                            resolved.band,
                        );
                    }
                }
            }
        }
    }
    aggs.into_iter().collect()
}

/// Report rows with a `theory.bound` span around each cell's bound.
/// `build_row` computes the bound again; the measured-λ memo makes
/// that second call a lookup.
pub fn traced_report(
    resolved: &ResolvedSweep,
    aggs: &BTreeMap<usize, CellAggregate>,
    tracer: &Tracer,
    parent: Option<usize>,
    group: u64,
) -> SweepReport {
    let span = tracer.start("report.build", parent, group);
    let me = Some(span.id());
    let rows = resolved
        .cells
        .iter()
        .filter_map(|cell| {
            let agg = aggs.get(&cell.index)?;
            tracer.time("theory.bound", me, group, || {
                black_box(theory_bound(
                    cell.topology,
                    &cell.estimator,
                    cell.rounds,
                    cell.true_density(),
                    resolved.delta,
                ))
            });
            Some(build_row(resolved, cell.index, agg))
        })
        .collect();
    SweepReport {
        name: resolved.name.clone(),
        mode: resolved.mode,
        seed: resolved.seed,
        trials: resolved.trials,
        band: resolved.band,
        delta: resolved.delta,
        complete: aggs.len() == resolved.cells.len(),
        total_cells: resolved.cells.len(),
        skipped: resolved.skipped.clone(),
        rows,
    }
}

/// Simulated agent-steps by path: (agent kernel, counts engine).
pub fn simulated_steps(
    resolved: &ResolvedSweep,
    shards: impl Iterator<Item = usize>,
) -> (u64, u64) {
    let (mut agent, mut counts) = (0, 0);
    for i in shards {
        let shard = &resolved.fused[i];
        let steps =
            resolved.cells[shard.cells[0]].num_agents as u64 * shard.max_rounds() * resolved.trials;
        if counts_eligible(resolved, shard) {
            counts += steps;
        } else {
            agent += steps;
        }
    }
    (agent, counts)
}

/// Σ telemetry `engine.round` time so far, in seconds: every
/// `Engine::step_round_parallel` call this process has made, the bare
/// stepping inside each `run_streamed` trial.
pub fn engine_round_s() -> f64 {
    antdensity_telemetry::snapshot()
        .histogram("engine.round")
        .map_or(0.0, |h| h.sum_ns as f64 / 1e9)
}

/// `a / b`, or 0 when `b` is 0 (a layer the workload does not reach).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

pub fn ns_per_step(seconds: f64, steps: u64) -> f64 {
    if steps == 0 {
        0.0
    } else {
        seconds * 1e9 / steps as f64
    }
}

/// Prints each span name's count, total and self time to stderr.
pub fn print_self_times(label: &str, spans: &[trace::SpanRec]) {
    eprintln!("perfbench: layer self time ({label})");
    eprintln!(
        "  {:<20} {:>8} {:>12} {:>12}",
        "span", "count", "total_ms", "self_ms"
    );
    for (name, t) in trace::totals(spans) {
        eprintln!(
            "  {:<20} {:>8} {:>12.3} {:>12.3}",
            name,
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }
}

/// The traced child: the `repro sweep` pipeline stage by stage.
fn traced_child(spec_path: &Path, out: &Path, trace_file: Option<&Path>) -> Result<(), String> {
    let tracer = Tracer::new();
    let text = std::fs::read_to_string(spec_path).map_err(|e| format!("read spec: {e}"))?;
    {
        let setup = tracer.start("setup", None, NO_GROUP);
        let resolved = tracer.time("spec.resolve", Some(setup.id()), NO_GROUP, || {
            SweepSpec::parse(&text)?.resolve(false)
        })?;
        tracer.time("graphs.build", Some(setup.id()), NO_GROUP, || {
            build_topologies(&resolved)
        });
        std::fs::create_dir_all(out).map_err(|e| format!("create out dir: {e}"))?;
    }

    let root = tracer.start("sweep", None, NO_GROUP);
    let top = Some(root.id());
    let resolved = tracer.time("spec.resolve", top, NO_GROUP, || {
        SweepSpec::parse(&text)?.resolve(false)
    })?;
    let opts = options(out, &resolved.name);
    let ckpt = opts.checkpoint.clone().expect("sweeps checkpoint");
    let lock = tracer.time("checkpoint.lock", top, NO_GROUP, || {
        CheckpointLock::acquire(&ckpt)
    })?;
    let pool = WorkerPool::global();
    let workers = WORKERS.min(pool.threads()).max(1);
    let shards: Vec<usize> = (0..resolved.fused.len()).collect();
    let mut done: BTreeMap<usize, CellAggregate> = BTreeMap::new();
    let mut checkpoint_bytes = 0u64;
    for wave in shards.chunks(WAVE) {
        let results = {
            let span = tracer.start("runner.wave", top, NO_GROUP);
            let parent = Some(span.id());
            parallel::run_trials_on(
                pool,
                wave.len() as u64,
                WORKERS,
                SeedSequence::new(resolved.seed),
                |i, _| {
                    let shard = wave[i as usize];
                    traced_shard(&resolved, shard, &tracer, parent, shard as u64)
                },
            )
        };
        for cells in results {
            done.extend(cells);
        }
        tracer
            .time("checkpoint.save", top, NO_GROUP, || {
                save_shards(&ckpt, resolved.fingerprint, resolved.cells.len(), &done)
            })
            .map_err(|e| format!("checkpoint write failed: {e}"))?;
        checkpoint_bytes += std::fs::metadata(&ckpt).map_or(0, |m| m.len());
    }
    drop(lock);
    let report = traced_report(&resolved, &done, &tracer, top, NO_GROUP);
    tracer.time("report.render", top, NO_GROUP, || {
        write_report(&report, out)
    })?;
    drop(root);

    let spans = tracer.spans();
    let totals = trace::totals(&spans);
    let sum_s = |name: &str| totals.get(name).map_or(0.0, |t| t.total_ns as f64 / 1e9);
    let max_s = |name: &str| totals.get(name).map_or(0.0, |t| t.max_ns as f64 / 1e9);
    let waves_s = sum_s("runner.wave");
    let (agent_steps, counts_steps) = simulated_steps(&resolved, shards.iter().copied());
    let wall_s = spans
        .iter()
        .find(|s| s.name == "sweep" && s.parent.is_none())
        .map_or(0.0, |s| s.dur_ns() as f64 / 1e9);
    let metrics = [
        ("spec.resolve_s", sum_s("spec.resolve")),
        ("graphs.build_s", sum_s("graphs.build")),
        ("theory.bound_s", sum_s("theory.bound")),
        ("engine.trial_s", sum_s("engine.trial")),
        (
            "engine.ns_per_agent_step",
            ns_per_step(sum_s("engine.trial"), agent_steps),
        ),
        (
            "engine.bare_step_share",
            ratio(engine_round_s(), sum_s("engine.trial")),
        ),
        ("counts.trial_s", sum_s("counts.trial")),
        (
            "counts.ns_per_agent_step",
            ns_per_step(sum_s("counts.trial"), counts_steps),
        ),
        ("aggregate.record_s", sum_s("aggregate.record")),
        ("runner.shard_max_s", max_s("runner.shard")),
        (
            "pool.idle_frac",
            1.0 - sum_s("runner.shard") / (workers as f64 * waves_s).max(1e-12),
        ),
        ("checkpoint.save_s", sum_s("checkpoint.save")),
        ("checkpoint.bytes", checkpoint_bytes as f64),
        ("report.render_s", sum_s("report.render")),
        ("trace.unattributed_frac", trace::unattributed_frac(&spans)),
    ];
    println!("wall_s {wall_s}");
    println!("complete {}", u8::from(report.complete));
    for (name, v) in metrics {
        println!("m.{name} {v}");
    }
    if let Some(path) = trace_file {
        std::fs::write(path, trace::to_json(&spans)).map_err(|e| format!("trace file: {e}"))?;
        print_self_times(&resolved.name, &spans);
    }
    Ok(())
}
