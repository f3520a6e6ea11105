//! `repro` — regenerate the paper's quantitative claims. `repro --help`
//! lists the commands, `repro <cmd> --help` a command's flags.
//!
//! This binary is a thin dispatcher: argv parses into the typed
//! request structs in [`antdensity_bench::cli`] (shared with the
//! tests), each subcommand's runner consumes its request, and every
//! exit goes through [`cli::ExitCode`] — the same enum the contract
//! tests assert against. A sweep request converts to the identical
//! [`sweep::SweepJob`] a `repro serve` submit deserializes to, so the
//! two front ends cannot drift.
//!
//! Telemetry is always enabled for `sweep` and `serve` runs (it
//! observes, never influences — reports are byte-identical with or
//! without it, which the determinism suites pin); `--trace`/`--metrics`
//! only choose whether the collected data is written anywhere.

use antdensity_bench::cli::{self, Command, ExitCode};
use antdensity_bench::experiments;
use antdensity_bench::perf;
use antdensity_bench::report::Effort;
use antdensity_serve as serve;
use antdensity_sweep as sweep;
use std::path::{Path, PathBuf};
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = cli::parse(&args).unwrap_or_else(|e| {
        eprintln!("repro: {e}");
        ExitCode::Usage.fail(&cli::usage(&args))
    });
    match command {
        Command::Help(text) => print!("{text}"),
        Command::List => run_list(),
        Command::Experiments(req) => run_experiments(&req),
        Command::Bench(req) => run_bench(&req),
        Command::Sweep(req) => run_sweep_cmd(&req),
        Command::SweepWorker(req) => run_sweep_worker(&req),
        Command::CheckMetrics(req) => run_check_metrics(&req.path),
        Command::Serve(req) => run_serve(&req),
        Command::ServeSubmit(req) => run_serve_submit(&req),
    }
}

fn run_list() {
    println!("available experiments:");
    for def in experiments::all() {
        println!("  {:>4}  {}", def.id, def.summary);
    }
}

fn run_experiments(req: &cli::ExperimentsRequest) {
    let mode = match req.effort {
        Effort::Quick => "quick",
        Effort::Full => "full",
    };
    println!("# antdensity repro — mode: {mode}, seed: {}\n", req.seed);
    let t_all = Instant::now();
    for id in &req.ids {
        let def = experiments::find(id).expect("`cli::parse` vets every id");
        let t0 = Instant::now();
        let report = (def.run)(req.effort, req.seed);
        let elapsed = t0.elapsed();
        print!("{}", report.render());
        match report.write_csv(&req.out) {
            Ok(files) => {
                for f in files {
                    println!("  csv: {}", f.display());
                }
            }
            Err(e) => eprintln!("  csv write failed: {e}"),
        }
        println!("  [{} finished in {:.1}s]\n", def.id, elapsed.as_secs_f64());
    }
    println!(
        "# all selected experiments done in {:.1}s",
        t_all.elapsed().as_secs_f64()
    );
}

/// Opens the `--cache` store (when given) and routes the
/// `spectral::effective_lambda` disk memo to the same root, so one
/// directory caches both shard blobs and spectral-gap results.
fn open_cache(dir: Option<&Path>) -> Option<std::sync::Arc<sweep::ShardCache>> {
    let dir = dir?;
    let cache = sweep::ShardCache::open(dir)
        .unwrap_or_else(|e| ExitCode::Failure.fail(&format!("--cache {}: {e}", dir.display())));
    antdensity_core::theory::set_lambda_cache_dir(dir);
    Some(std::sync::Arc::new(cache))
}

fn run_bench(req: &cli::BenchRequest) {
    if req.list_groups {
        for group in perf::GROUPS {
            println!("{group}");
        }
        return;
    }
    let t0 = Instant::now();
    // The parser already vetted the group name, so this only errors on
    // a programmatic caller handing an unknown label.
    let report = perf::run_engine_bench_group(req.effort, req.group.as_deref())
        .unwrap_or_else(|e| ExitCode::Usage.fail(&format!("repro bench: {e}")));
    print!("{}", report.render());
    match report.write_json(&req.out) {
        Ok(path) => println!("  json: {}", path.display()),
        Err(e) => ExitCode::Failure.fail(&format!("  json write failed: {e}")),
    }
    println!("  [bench finished in {:.1}s]", t0.elapsed().as_secs_f64());

    let failed: Vec<String> = report
        .claim_checks()
        .into_iter()
        .filter(|c| !c.passed())
        .map(|c| {
            format!(
                "{}/{} at {} agents",
                c.claim.numerator, c.claim.denominator, c.agents
            )
        })
        .collect();
    if !failed.is_empty() {
        ExitCode::Failure.fail(&format!("bench claims FAILED: {}", failed.join(", ")));
    }
}

/// `repro sweep SPEC --dry-run`: print what would run — expanded cells,
/// fused shards, trials, and the fused-vs-unfused simulation work —
/// without executing anything or touching the filesystem.
fn dry_run(resolved: &sweep::ResolvedSweep) {
    let (fused_sims, unfused_sims) = resolved.simulation_counts();
    let (fused_rounds, unfused_rounds) = resolved.simulated_round_counts();
    println!(
        "sweep {} ({} mode) — dry run, nothing executed",
        resolved.name, resolved.mode
    );
    println!(
        "  grid cells:       {} ({} skipped combination{})",
        resolved.cells.len(),
        resolved.skipped.len(),
        if resolved.skipped.len() == 1 { "" } else { "s" }
    );
    println!("  fused shards:     {}", resolved.fused.len());
    println!("  trials per cell:  {}", resolved.trials);
    println!(
        "  simulations:      {fused_sims} fused vs {unfused_sims} unfused ({:.2}x fewer passes)",
        unfused_sims as f64 / fused_sims as f64
    );
    println!(
        "  simulated rounds: {fused_rounds} fused vs {unfused_rounds} unfused ({:.2}x less work)",
        unfused_rounds as f64 / fused_rounds as f64
    );
    println!("  fingerprint:      {:016x}", resolved.fingerprint);
    for shard in &resolved.fused {
        let taps: Vec<String> = shard
            .taps
            .iter()
            .map(|t| format!("{}@{}", t.estimator, t.schedule()))
            .collect();
        let base = &resolved.cells[shard.cells[0]];
        println!(
            "    shard {:>3}: {} agents {} {} {} — {} cell{} [{}]",
            shard.index,
            base.topology,
            base.num_agents,
            base.movement,
            base.noise_label(),
            shard.cells.len(),
            if shard.cells.len() == 1 { "" } else { "s" },
            taps.join(", "),
        );
    }
}

/// Shared sweep-failure exit: one structured, machine-greppable stderr
/// line for the known failure classes, prose after, exit code 1.
fn sweep_failure(e: &str, spec_path: &Path, checkpoint: &Option<PathBuf>) -> ! {
    let ck = checkpoint
        .as_ref()
        .map_or_else(|| "?".to_string(), |p| p.display().to_string());
    if e.contains("different sweep configuration") || e.contains("cells, spec resolves") {
        eprintln!(
            "repro-sweep: status=error reason=checkpoint-fingerprint-mismatch \
             spec={} checkpoint={ck} action=\"delete the checkpoint or rerun \
             with the original spec and mode\"",
            spec_path.display(),
        );
    } else if e.contains("locked by running process") {
        eprintln!(
            "repro-sweep: status=error reason=checkpoint-locked spec={} checkpoint={ck} \
             action=\"wait for the other coordinator or remove the stale .lock file\"",
            spec_path.display(),
        );
    }
    ExitCode::Failure.fail(&format!("sweep failed: {e}"))
}

/// The distributed transport `--serve-shards` / `--workers-cmd` /
/// `--listen` ask for; `None` runs in-process.
fn dist_options(req: &cli::SweepRequest, job: &sweep::SweepJob) -> Option<sweep::DistOptions> {
    if !req.serve_shards {
        return None;
    }
    let plan = match &req.fault {
        Some(p) => sweep::FaultPlan::parse(p)
            .unwrap_or_else(|e| ExitCode::Usage.fail(&format!("--fault plan: {e}"))),
        None => sweep::FaultPlan::none(),
    };
    let transport = match &req.listen {
        Some(addr) => sweep::Transport::Listen { addr: addr.clone() },
        None => sweep::Transport::Children {
            workers: req
                .workers_cmd
                .unwrap_or_else(antdensity_engine::pool::default_threads),
        },
    };
    Some(sweep::DistOptions {
        transport,
        plan,
        config: sweep::dist::DistConfig::default(),
        spec_text: Some(job.effective_spec_text()),
        worker_argv: None,
    })
}

fn run_sweep_cmd(req: &cli::SweepRequest) {
    let text = std::fs::read_to_string(&req.spec_path).unwrap_or_else(|e| {
        ExitCode::Failure.fail(&format!(
            "cannot read sweep spec {}: {e}",
            req.spec_path.display()
        ))
    });
    // The same validated job a serve submit builds from this spec.
    let job = req.to_job(text);
    let validated = job
        .validate()
        .unwrap_or_else(|e| ExitCode::Usage.fail(&format!("{}: {e}", req.spec_path.display())));
    if req.dry_run {
        dry_run(&validated.resolved);
        return;
    }
    // Telemetry observes, never influences (the determinism suite runs
    // with it on) — so sweeps always collect; the flags below only
    // decide whether anything is written out.
    antdensity_telemetry::set_enabled(true);
    if req.trace.is_some() {
        antdensity_telemetry::set_tracing(true);
    }
    let checkpoint = if req.no_checkpoint {
        None
    } else {
        Some(req.out.join(format!("{}.ckpt", validated.spec.name)))
    };
    let cache = open_cache(req.cache.as_deref());
    let opts = sweep::SweepOptions {
        quick: req.quick,
        workers: req
            .workers
            .unwrap_or_else(antdensity_engine::pool::default_threads),
        checkpoint: checkpoint.clone(),
        resume: req.resume,
        max_shards: req.max_shards,
        progress: req.progress,
        cache: cache.clone(),
        cache_verify: req.cache_verify,
        cache_cap: req.cache_cap,
        dist: dist_options(req, &job),
        ..sweep::SweepOptions::default()
    };
    let t0 = Instant::now();
    let outcome = match sweep::run_resolved(&validated.resolved, &opts, &mut |_, _, _| true) {
        Ok(outcome) => outcome,
        // Exit-code contract: byte-unequal duplicate results are
        // their own failure class.
        Err(sweep::SweepError::Mismatch { shard, report }) => {
            eprintln!("repro-sweep: status=error reason=result-mismatch {report}");
            ExitCode::Mismatch.fail(&format!(
                "sweep aborted: workers returned byte-unequal results for shard {shard} \
                 (determinism violated — do not trust partial output)"
            ));
        }
        Err(sweep::SweepError::Failed(e)) => sweep_failure(&e, &req.spec_path, &checkpoint),
    };
    let wall_s = t0.elapsed().as_secs_f64();
    let report = sweep::build_report(&outcome);
    print!("{}", report.render());
    match report.write(&req.out) {
        Ok((json, csv)) => {
            println!("  json: {}", json.display());
            println!("  csv:  {}", csv.display());
        }
        Err(e) => ExitCode::Failure.fail(&format!("  report write failed: {e}")),
    }
    let snapshot = antdensity_telemetry::snapshot();
    if let Some(metrics_path) = &req.metrics {
        let mut metrics = sweep::SweepMetrics::from_outcome(&outcome, wall_s, snapshot.clone());
        if let Some(cache) = &cache {
            metrics = metrics.with_cache(cache.stats());
        }
        let written = match metrics_path {
            Some(path) => {
                if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
                    std::fs::create_dir_all(dir).ok();
                }
                std::fs::write(path, metrics.to_json()).map(|()| path.clone())
            }
            None => metrics.write(&req.out),
        };
        match written {
            Ok(path) => println!("  metrics: {}", path.display()),
            Err(e) => ExitCode::Failure.fail(&format!("  metrics write failed: {e}")),
        }
    }
    if let Some(trace_path) = &req.trace {
        let events = antdensity_telemetry::take_trace();
        let json = antdensity_telemetry::chrome_trace_json(&events);
        match std::fs::write(trace_path, json) {
            Ok(()) => println!(
                "  trace: {} ({} events — open in Perfetto / chrome://tracing)",
                trace_path.display(),
                events.len()
            ),
            Err(e) => ExitCode::Failure.fail(&format!("  trace write failed: {e}")),
        }
    }
    if let Some(stats) = &outcome.dist {
        println!(
            "  dist: {} worker{} served {} lease{} ({} reissued, {} respawn{}, \
             {} duplicate{}, {} degraded)",
            stats.workers_seen,
            if stats.workers_seen == 1 { "" } else { "s" },
            stats.leases,
            if stats.leases == 1 { "" } else { "s" },
            stats.reissues,
            stats.respawns,
            if stats.respawns == 1 { "" } else { "s" },
            stats.duplicates,
            if stats.duplicates == 1 { "" } else { "s" },
            stats.degraded,
        );
    } else if outcome.workers_effective < outcome.workers_requested {
        println!(
            "  workers: {} effective of {} requested (pool clamp)",
            outcome.workers_effective, outcome.workers_requested
        );
    }
    if let Some(cache) = &cache {
        // One greppable line mirroring the metrics file's `cache`
        // section (CI asserts hits>0 on the warm run from either).
        let s = cache.stats();
        println!(
            "  cache: hits={} misses={} stores={} corrupt={} evictions={} \
             verify_failures={} ({} B read, {} B written)",
            s.hits,
            s.misses,
            s.stores,
            s.corrupt,
            s.evictions,
            s.verify_failures,
            s.bytes_read,
            s.bytes_written,
        );
    }
    println!(
        "  [sweep {} ran {} shard{} (+{} resumed), {} simulation{} / {} rounds, in {wall_s:.1}s]",
        report.name,
        outcome.executed,
        if outcome.executed == 1 { "" } else { "s" },
        outcome.resumed,
        outcome.simulations,
        if outcome.simulations == 1 { "" } else { "s" },
        outcome.simulated_rounds,
    );
    if outcome.complete {
        if let Some(ck) = &checkpoint {
            let _ = std::fs::remove_file(ck); // finished: nothing to resume
        }
        return;
    }
    // Partial run (exit code 3): one structured stderr line saying what
    // ran, why it stopped, and how to continue — built from the same
    // telemetry counters the metrics file carries.
    let total_shards = outcome.resolved.fused.len();
    let reason = if req.max_shards.is_some() {
        "max-shards-budget"
    } else {
        "stopped-early"
    };
    let next = match &checkpoint {
        Some(_) => format!(
            "resume=\"repro sweep {} --resume --out {}\"",
            req.spec_path.display(),
            req.out.display()
        ),
        None => "resume=none (--no-checkpoint discarded progress)".to_string(),
    };
    eprintln!(
        "repro-sweep: status=partial reason={reason} executed={}/{total_shards} \
         resumed={} cells_done={} trials_done={} checkpoint_writes={} {next}",
        outcome.executed,
        outcome.resumed,
        snapshot.counter("sweep.cells_completed"),
        snapshot.counter("sweep.trials"),
        snapshot.counter("sweep.checkpoint_writes"),
    );
    ExitCode::Partial.exit()
}

/// `repro sweep-worker [--stdio | --connect ADDR] [--cache DIR]`: the
/// worker half of a distributed sweep. Its stdout carries protocol
/// frames, not human output — nothing here prints.
fn run_sweep_worker(req: &cli::SweepWorkerRequest) {
    let cache = open_cache(req.cache.as_deref());
    let result = match &req.mode {
        cli::WorkerMode::Stdio => sweep::dist::runtime::run_worker_stdio(cache.as_deref()),
        cli::WorkerMode::Connect(addr) => {
            sweep::dist::runtime::run_worker_connect(addr, cache.as_deref())
        }
    };
    if let Err(e) = result {
        ExitCode::Failure.fail(&format!("sweep-worker: {e}"));
    }
}

/// `repro check-metrics FILE`: assert a metrics file parses against the
/// `antdensity-metrics v3` schema (v2/v1 files still accepted) — the
/// CI guard that the artifact other jobs grep stays well-formed.
fn run_check_metrics(path: &PathBuf) {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        ExitCode::Failure.fail(&format!("cannot read metrics file {}: {e}", path.display()))
    });
    match sweep::metrics::validate(&text) {
        Ok(summary) => println!(
            "metrics ok: schema=v{} sweep={} wall_s={:.3} counters={} histograms={} dist={} \
             cache={}",
            summary.schema_version,
            summary.name,
            summary.wall_s,
            summary.counters,
            summary.histograms,
            if summary.dist { "yes" } else { "no" },
            if summary.cache { "yes" } else { "no" },
        ),
        Err(e) => ExitCode::Failure.fail(&format!(
            "metrics file {} violates {}: {e}",
            path.display(),
            sweep::metrics::SCHEMA
        )),
    }
}

/// `repro serve`: the estimation daemon. Blocks until a client sends
/// the `shutdown` op (TCP) or stdin closes (`--stdio`).
fn run_serve(req: &cli::ServeRequest) {
    antdensity_telemetry::set_enabled(true);
    let cfg = serve::ServeConfig {
        max_queue: req.max_queue,
        executors: req.executors,
        job_workers: req.job_workers,
        dist_workers: req.dist_workers,
        cache: open_cache(req.cache.as_deref()),
    };
    if req.stdio {
        if let Err(e) = serve::run_stdio(cfg) {
            ExitCode::Failure.fail(&format!("serve: {e}"));
        }
        return;
    }
    let addr = req.listen.as_deref().unwrap_or("127.0.0.1:4710");
    let server = serve::Server::bind(addr, cfg)
        .unwrap_or_else(|e| ExitCode::Failure.fail(&format!("serve: {e}")));
    // One structured, machine-greppable readiness line (CI waits on it).
    println!(
        "repro-serve: status=listening addr={} protocol=\"{}\"",
        server.local_addr(),
        serve::PROTOCOL
    );
    server.wait();
}

/// `repro serve-submit ADDR SPEC`: one-shot client — submit, stream,
/// write the daemon-delivered report bytes under `--out` exactly where
/// `repro sweep` would have written them.
fn run_serve_submit(req: &cli::ServeSubmitRequest) {
    let text = std::fs::read_to_string(&req.spec_path).unwrap_or_else(|e| {
        ExitCode::Failure.fail(&format!(
            "cannot read sweep spec {}: {e}",
            req.spec_path.display()
        ))
    });
    let mut job = sweep::SweepJob::new(text);
    job.quick = req.quick;
    job.seed_override = req.seed;
    let mut client = serve::Client::connect(&req.addr)
        .unwrap_or_else(|e| ExitCode::Failure.fail(&format!("serve-submit: {e}")));
    let results = client
        .run_batch(vec![serve::Submit { job, label: None }])
        .unwrap_or_else(|e| {
            // A rejection is the daemon telling us the job was invalid
            // — the same class of mistake as a bad spec on the CLI.
            if e.starts_with("rejected:") {
                ExitCode::Usage.fail(&format!("serve-submit: {e}"));
            }
            ExitCode::Failure.fail(&format!("serve-submit: {e}"));
        });
    let res = &results[0];
    if res.state != "done" {
        ExitCode::Failure.fail(&format!(
            "serve-submit: job {} ended {}{}",
            res.job,
            res.state,
            if res.reason.is_empty() {
                String::new()
            } else {
                format!(": {}", res.reason)
            }
        ));
    }
    std::fs::create_dir_all(&req.out)
        .unwrap_or_else(|e| ExitCode::Failure.fail(&format!("serve-submit: mkdir: {e}")));
    let json_path = req.out.join(format!("SWEEP_{}.json", res.name));
    let csv_path = req.out.join(format!("SWEEP_{}.csv", res.name));
    std::fs::write(&json_path, &res.report_json)
        .and_then(|()| std::fs::write(&csv_path, &res.report_csv))
        .unwrap_or_else(|e| ExitCode::Failure.fail(&format!("serve-submit: write: {e}")));
    println!(
        "serve-submit: job {} done — {} row{} streamed",
        res.job,
        res.rows.len(),
        if res.rows.len() == 1 { "" } else { "s" }
    );
    println!("  json: {}", json_path.display());
    println!("  csv:  {}", csv_path.display());
    if let Some(metrics_path) = &req.metrics {
        let metrics = client
            .metrics()
            .unwrap_or_else(|e| ExitCode::Failure.fail(&format!("serve-submit: metrics: {e}")));
        std::fs::write(metrics_path, metrics.encode())
            .unwrap_or_else(|e| ExitCode::Failure.fail(&format!("serve-submit: write: {e}")));
        println!("  metrics: {}", metrics_path.display());
    }
}
