//! The `serve_mixed` workload: a closed loop of two client connections
//! against an in-process daemon with a fresh shard cache. Each client
//! sends its next job only after the previous one is `done`, drawing
//! jobs from the seeded stream until the time is up. About half the
//! jobs repeat an earlier one (warm cache hits), half are new (cold
//! misses that publish with fsync).
//!
//! A delivered report is kept only as a digest of its bytes. After the
//! loop, each distinct job is run in-process through `run_spec_text`
//! and every delivered digest must equal its reference's.
//!
//! The traced run adds client-side spans per job (submit to
//! `accepted`, to first row, to last row, to `done`) and then replays
//! the delivered jobs stage by stage through the layers the daemon
//! calls — resolve, cache get, shard, cache put, report — into another
//! fresh cache, requiring the replay's report bytes to equal the
//! served ones.

use crate::stats::{delivered_agent_steps, median, percentile};
use crate::sweep::{
    build_topologies, engine_round_s, simulated_steps, traced_report, traced_shard,
};
use crate::trace::{self, Tracer, NO_GROUP};
use crate::{sys, Outcome};
use antdensity_cas::fnv1a64;
use antdensity_serve::{Client, Event, Request, ServeConfig, Server, Submit};
use antdensity_sweep::dist::parse_blob;
use antdensity_sweep::{run_spec_text, CellAggregate, Checkpoint, ShardCache, SweepOptions};
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Client connections: one per core.
const CLIENTS: usize = 2;
/// Daemon set-ups per run, each in a fresh process, back to back;
/// `setup_s` is their median. Spacing them out reads slower and less
/// steady: a process started on a CPU woken from idle pays its wake-up.
const SETUP_CHILDREN: usize = 31;

struct Daemon {
    server: Server,
    cache: Arc<ShardCache>,
    clients: Vec<Client>,
    dir: PathBuf,
}

/// The set-up a `repro serve --cache DIR` user pays before the first
/// job: open an empty cache and bind the daemon.
fn bind_daemon(dir: &Path) -> Result<(Server, Arc<ShardCache>), String> {
    let cache = Arc::new(ShardCache::open(dir)?);
    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            cache: Some(Arc::clone(&cache)),
            ..ServeConfig::default()
        },
    )?;
    Ok((server, cache))
}

/// Child entry: one daemon set-up in a fresh process, timed from
/// process start (`started`, taken first thing in `main`) to a bound
/// daemon. Client connects are left out: each waits on a chain of
/// daemon thread wake-ups whose cost is mostly the host's scheduling
/// latency.
pub fn setup_child(args: &[String], started: Instant) -> Result<(), String> {
    let [flag, dir] = args else {
        return Err("serve-setup-child needs --cache DIR".to_string());
    };
    if flag != "--cache" {
        return Err(format!("serve-setup-child: unknown argument `{flag}`"));
    }
    antdensity_telemetry::set_enabled(true);
    let (server, _cache) = bind_daemon(Path::new(dir))?;
    let setup_s = started.elapsed().as_secs_f64();
    server.shutdown();
    server.wait();
    println!("setup_s {setup_s}");
    Ok(())
}

/// Binds a daemon on an empty cache and connects the clients.
fn start_daemon(dir: &Path) -> Result<Daemon, String> {
    let (server, cache) = bind_daemon(dir)?;
    let addr = server.local_addr().to_string();
    let clients = (0..CLIENTS)
        .map(|_| Client::connect(&addr))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Daemon {
        server,
        cache,
        clients,
        dir: dir.to_path_buf(),
    })
}

fn stop_daemon(d: Daemon) {
    drop(d.clients);
    d.server.shutdown();
    d.server.wait();
    // Best effort: a leftover cache directory wastes space, nothing more.
    let _ = std::fs::remove_dir_all(&d.dir);
}

/// Report bytes as a pair of digests (JSON, CSV).
type Digest = (u64, u64);

fn digest(json: &str, csv: &str) -> Digest {
    (fnv1a64(json.as_bytes()), fnv1a64(csv.as_bytes()))
}

/// One job as the client saw it.
struct JobRec {
    job_seed: u64,
    id: u64,
    submit: Instant,
    accepted: Option<Instant>,
    first_row: Option<Instant>,
    last_row: Option<Instant>,
    end: Instant,
    bytes: u64,
    /// Digest of the delivered report; `None` unless the job is `done`.
    report: Option<Digest>,
}

impl JobRec {
    fn latency_ms(&self) -> f64 {
        (self.end - self.submit).as_secs_f64() * 1e3
    }
}

fn ms_between(a: Option<Instant>, b: Option<Instant>) -> Option<f64> {
    Some((b? - a?).as_secs_f64() * 1e3)
}

/// Client `c`'s closed loop: submit its next job from the stream, read
/// the job's events to its terminal one, repeat until the deadline.
fn client_loop(
    client: &mut Client,
    seed: u64,
    c: usize,
    deadline: Instant,
    tracer: Option<(&Tracer, usize)>,
) -> Result<Vec<JobRec>, String> {
    let mut recs = Vec::new();
    for i in 0.. {
        if Instant::now() >= deadline {
            break;
        }
        let job = crate::gen::serve_job(seed, CLIENTS, c, i);
        let job_seed = job.seed_override.expect("serve jobs carry a seed");
        let submit = Instant::now();
        client.send(&Request::Submit(Submit { job, label: None }))?;
        let mut rec = JobRec {
            job_seed,
            id: NO_GROUP,
            submit,
            accepted: None,
            first_row: None,
            last_row: None,
            end: submit,
            bytes: 0,
            report: None,
        };
        loop {
            let ev = client.read_event()?;
            let now = Instant::now();
            rec.bytes += ev.to_line().len() as u64 + 1;
            match ev {
                Event::Accepted { job, .. } => {
                    rec.id = job;
                    rec.accepted = Some(now);
                    continue;
                }
                Event::Row { .. } => {
                    rec.first_row.get_or_insert(now);
                    rec.last_row = Some(now);
                    continue;
                }
                Event::Done {
                    report_json,
                    report_csv,
                    ..
                } => rec.report = Some(digest(&report_json, &report_csv)),
                Event::Failed { reason, .. } | Event::Rejected { reason } => {
                    eprintln!("perfbench: serve job failed: {reason}");
                }
                Event::Cancelled { .. } => eprintln!("perfbench: serve job cancelled"),
                _ => continue,
            }
            rec.end = now;
            break;
        }
        if let Some((tracer, root)) = tracer {
            let job_span = tracer.record("serve.job", Some(root), rec.id, rec.submit, rec.end);
            let phases = [
                ("serve.accept", Some(rec.submit), rec.accepted),
                ("serve.queue", rec.accepted, rec.first_row),
                ("serve.stream", rec.first_row, rec.last_row),
                ("serve.done", rec.last_row.or(rec.accepted), Some(rec.end)),
            ];
            for (name, a, b) in phases {
                if let (Some(a), Some(b)) = (a, b) {
                    tracer.record(name, Some(job_span), rec.id, a, b);
                }
            }
        }
        recs.push(rec);
    }
    Ok(recs)
}

struct LoopResult {
    recs: Vec<JobRec>,
    /// Loop wall time with host steal taken out.
    wall_s: f64,
    steal_s: f64,
    /// Peak resident set during the loop (KiB), or the process's whole
    /// peak when the kernel refuses the reset.
    peak_rss_kib: u64,
    /// Client threads that stopped on a transport error.
    broken: u64,
}

fn closed_loop(
    daemon: &mut Daemon,
    seed: u64,
    seconds: f64,
    tracer: Option<&Tracer>,
) -> LoopResult {
    sys::reset_peak_rss();
    let clock = sys::StealFreeClock::start();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let root = tracer.map(|t| t.start("serve.loop", None, NO_GROUP));
    let traced = tracer.zip(root.as_ref().map(trace::Guard::id));
    let results: Vec<Result<Vec<JobRec>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = daemon
            .clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| s.spawn(move || client_loop(client, seed, c, deadline, traced)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    drop(root);
    let (wall_s, steal_s) = clock.elapsed();
    let peak_rss_kib = sys::peak_rss_kib();
    let mut recs = Vec::new();
    let mut broken = 0;
    for r in results {
        match r {
            Ok(mut v) => recs.append(&mut v),
            Err(e) => {
                broken += 1;
                eprintln!("perfbench: serve client stopped: {e}");
            }
        }
    }
    recs.sort_by_key(|r| r.end);
    LoopResult {
        recs,
        wall_s,
        steal_s,
        peak_rss_kib,
        broken,
    }
}

struct Reference {
    report: Digest,
    agent_steps: u64,
}

/// Adds a reference for every job of `recs` not yet in `refs`, from the
/// in-process `run_spec_text` path a `repro sweep` user would take.
fn add_references(recs: &[JobRec], refs: &mut HashMap<u64, Reference>) -> Result<(), String> {
    for rec in recs {
        if refs.contains_key(&rec.job_seed) {
            continue;
        }
        let job = crate::gen::job_with_seed(rec.job_seed);
        let opts = SweepOptions {
            quick: job.quick,
            workers: crate::sweep::WORKERS,
            ..SweepOptions::default()
        };
        let (outcome, report) = run_spec_text(&job.effective_spec_text(), &opts)?;
        refs.insert(
            rec.job_seed,
            Reference {
                report: digest(&report.to_json(), &report.to_csv()),
                agent_steps: delivered_agent_steps(&outcome.resolved),
            },
        );
    }
    Ok(())
}

/// Delivered jobs whose bytes match their reference, and the failures.
fn check(recs: &[JobRec], refs: &HashMap<u64, Reference>) -> (Vec<usize>, u64) {
    let mut ok = Vec::new();
    let mut failed = 0;
    for (i, r) in recs.iter().enumerate() {
        match r.report {
            Some(d) if d == refs[&r.job_seed].report => ok.push(i),
            Some(_) => {
                failed += 1;
                eprintln!(
                    "perfbench: serve job {} report differs from run_spec_text",
                    r.id
                );
            }
            None => failed += 1,
        }
    }
    (ok, failed)
}

pub fn run(seed: u64, seconds: u64, traced: bool, work: &Path) -> Result<Outcome, String> {
    // `repro serve` always collects telemetry; so does the benchmark.
    antdensity_telemetry::set_enabled(true);
    let (fstype, mount) = sys::filesystem_of(work);

    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut setups = Vec::new();
    for k in 0..SETUP_CHILDREN {
        let dir = work.join(format!("setup{k}"));
        let child = crate::sweep::spawn_child(
            Command::new(&exe)
                .arg("serve-setup-child")
                .arg("--cache")
                .arg(&dir)
                .stdin(Stdio::null())
                .stderr(Stdio::inherit()),
        )?;
        match child.kv.get("setup_s") {
            Some(&s) if child.status.success() => setups.push(s),
            _ => return Err(format!("serve set-up child exited with {}", child.status)),
        }
        // Best effort: a leftover cache directory wastes space, nothing more.
        let _ = std::fs::remove_dir_all(&dir);
    }
    let mut daemon = start_daemon(&work.join("cache"))?;
    let window = if traced {
        seconds as f64 / 2.0
    } else {
        seconds as f64
    };
    let plain = closed_loop(&mut daemon, seed, window, None);
    let plain_stats = daemon.cache.stats();
    stop_daemon(daemon);

    let mut refs = HashMap::new();
    add_references(&plain.recs, &mut refs)?;
    let (ok, mut failed) = check(&plain.recs, &refs);
    failed += plain.broken;
    let mut attempted = plain.recs.len() as u64 + plain.broken;
    let mut notes = vec![
        format!("closed loop: {CLIENTS} clients, jobs from the seeded stream until the deadline"),
        format!(
            "cache dir filesystem: {fstype} (mounted at {mount}), nproc {}",
            sys::nproc()
        ),
    ];
    let latencies: Vec<f64> = ok.iter().map(|&i| plain.recs[i].latency_ms()).collect();
    if latencies.is_empty() {
        return Err("serve_mixed: no job delivered".to_string());
    }
    notes.push(format!(
        "job latency samples: {}; p90 {}",
        latencies.len(),
        percentile(&latencies, 90.0)
            .map_or_else(|e| format!("refused ({e})"), |v| format!("{v:.3} ms"))
    ));
    notes.push(format!(
        "cache: {} hits, {} misses, {} stores, {} bytes written",
        plain_stats.hits, plain_stats.misses, plain_stats.stores, plain_stats.bytes_written
    ));
    notes.push(format!(
        "host steal during the loop: {:.3} s",
        plain.steal_s
    ));
    let plain_jobs_per_s = ok.len() as f64 / plain.wall_s;

    let metrics = if traced {
        let tracer = Tracer::new();
        let mut daemon = start_daemon(&work.join("cache-traced"))?;
        let traced_loop = closed_loop(&mut daemon, seed, window, Some(&tracer));
        let stats = daemon.cache.stats();
        stop_daemon(daemon);
        add_references(&traced_loop.recs, &mut refs)?;
        let (traced_ok, traced_failed) = check(&traced_loop.recs, &refs);
        failed += traced_failed + traced_loop.broken;
        attempted += traced_loop.recs.len() as u64 + traced_loop.broken;
        let delivered: Vec<&JobRec> = traced_ok.iter().map(|&i| &traced_loop.recs[i]).collect();
        let replay = replay(&delivered, &tracer, &work.join("cache-replay"))?;
        failed += replay.mismatches;
        attempted += delivered.len() as u64;

        let spans = tracer.spans();
        let totals = trace::totals(&spans);
        let sum_s = |name: &str| totals.get(name).map_or(0.0, |t| t.total_ns as f64 / 1e9);
        let phase_ms = |f: &dyn Fn(&JobRec) -> Option<f64>| {
            crate::median_or_zero(&delivered.iter().filter_map(|r| f(r)).collect::<Vec<_>>())
        };
        let traced_jobs_per_s = delivered.len() as f64 / traced_loop.wall_s;
        let lookups = stats.hits + stats.misses;
        let layer = |name: &str| -> f64 {
            match name {
                "spec.resolve_s" => sum_s("spec.resolve"),
                "graphs.build_s" => sum_s("graphs.build"),
                "theory.bound_s" => sum_s("theory.bound"),
                "engine.trial_s" => sum_s("engine.trial"),
                "engine.ns_per_agent_step" => {
                    crate::sweep::ns_per_step(sum_s("engine.trial"), replay.engine_steps)
                }
                "engine.bare_step_share" => {
                    crate::sweep::ratio(replay.engine_round_s, sum_s("engine.trial"))
                }
                "aggregate.record_s" => sum_s("aggregate.record"),
                "runner.shard_max_s" => totals
                    .get("runner.shard")
                    .map_or(0.0, |t| t.max_ns as f64 / 1e9),
                "report.render_s" => sum_s("report.render"),
                "cache.get_s" => sum_s("cache.get"),
                "cache.put_s" => sum_s("cache.put"),
                "cache.hit_ratio" => stats.hits as f64 / lookups.max(1) as f64,
                "cache.bytes_written" => stats.bytes_written as f64,
                "serve.accept_ms" => phase_ms(&|r| ms_between(Some(r.submit), r.accepted)),
                "serve.queue_ms" => phase_ms(&|r| ms_between(r.accepted, r.first_row)),
                "serve.done_ms" => phase_ms(&|r| ms_between(r.last_row, Some(r.end))),
                "serve.bytes_per_job" => {
                    delivered.iter().map(|r| r.bytes as f64).sum::<f64>()
                        / delivered.len().max(1) as f64
                }
                "trace.unattributed_frac" => trace::unattributed_frac(&spans),
                // Layers this workload does not reach: counts engine,
                // checkpoints, and pool waves (the replay is sequential).
                _ => 0.0,
            }
        };
        crate::sweep::print_self_times("serve_mixed", &spans);
        let trace_file = crate::out_dir().join(format!("trace-serve_mixed-seed{seed}.json"));
        std::fs::write(&trace_file, trace::to_json(&spans))
            .map_err(|e| format!("trace file: {e}"))?;
        notes.push(format!(
            "traced loop: {} jobs delivered, replayed stage by stage; trace in {}",
            delivered.len(),
            trace_file.display()
        ));
        crate::layer_metrics(layer, plain_jobs_per_s / traced_jobs_per_s.max(1e-12) - 1.0)
    } else {
        let steps: u64 = ok
            .iter()
            .map(|&i| refs[&plain.recs[i].job_seed].agent_steps)
            .sum();
        vec![
            ("setup_s", median(&setups)),
            ("agent_steps_per_s", steps as f64 / plain.wall_s),
            ("jobs_per_s", plain_jobs_per_s),
            ("job_p50_ms", median(&latencies)),
            ("peak_rss_mb", plain.peak_rss_kib as f64 / 1024.0),
        ]
    };
    Ok(Outcome {
        attempted,
        failed,
        metrics,
        notes,
    })
}

struct Replay {
    mismatches: u64,
    engine_steps: u64,
    /// Telemetry `engine.round` time the replay added.
    engine_round_s: f64,
}

/// The daemon's per-job pipeline, stage by stage, in delivery order:
/// resolve, then per shard a cache lookup and — on a miss — the shard
/// and a publish, then the report. Runs after the daemon has stopped,
/// so every `engine.round` recorded meanwhile is the replay's.
fn replay(delivered: &[&JobRec], tracer: &Tracer, cache_dir: &Path) -> Result<Replay, String> {
    let cache = ShardCache::open(cache_dir)?;
    let rounds_before = engine_round_s();
    let root = tracer.start("serve.replay", None, NO_GROUP);
    let mut out = Replay {
        mismatches: 0,
        engine_steps: 0,
        engine_round_s: 0.0,
    };
    for rec in delivered {
        let g = rec.id;
        let job_span = tracer.start("replay.job", Some(root.id()), g);
        let me = Some(job_span.id());
        let resolved = tracer
            .time("spec.resolve", me, g, || {
                crate::gen::job_with_seed(rec.job_seed).validate()
            })
            .map_err(|e| e.to_string())?
            .resolved;
        tracer.time("graphs.build", me, g, || build_topologies(&resolved));
        let mut done: BTreeMap<usize, CellAggregate> = BTreeMap::new();
        let mut missed = Vec::new();
        for i in 0..resolved.fused.len() {
            let hit = tracer.time("cache.get", me, g, || {
                cache
                    .blob_get(&resolved, i)
                    .map(|blob| parse_blob(&resolved, &blob))
            });
            match hit {
                Some(cells) => done.extend(cells?),
                None => {
                    let cells = traced_shard(&resolved, i, tracer, me, g);
                    tracer.time("cache.put", me, g, || {
                        let blob = Checkpoint {
                            fingerprint: resolved.fingerprint,
                            cells: resolved.cells.len(),
                            shards: cells.iter().cloned().collect(),
                        }
                        .to_text();
                        cache.blob_put(&resolved, i, &blob);
                    });
                    done.extend(cells);
                    missed.push(i);
                }
            }
        }
        out.engine_steps += simulated_steps(&resolved, missed.into_iter()).0;
        let report = traced_report(&resolved, &done, tracer, me, g);
        let report = tracer.time("report.render", me, g, || {
            digest(&report.to_json(), &report.to_csv())
        });
        if rec.report != Some(report) {
            out.mismatches += 1;
            eprintln!("perfbench: replay of serve job {g} differs from the served report");
        }
    }
    drop(root);
    out.engine_round_s = engine_round_s() - rounds_before;
    // Best effort: a leftover cache directory wastes space, nothing more.
    let _ = std::fs::remove_dir_all(cache_dir);
    Ok(out)
}
