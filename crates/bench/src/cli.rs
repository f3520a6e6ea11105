//! The typed CLI core: argv → per-subcommand request structs → run.
//!
//! `repro`'s surface used to be one flat argv scanner feeding a bag of
//! optionals; every subcommand now parses into its own request struct
//! ([`SweepRequest`], [`BenchRequest`], [`ServeRequest`], …) so the
//! binary is a thin `parse` → dispatch pipeline and tests can exercise
//! parsing without spawning processes.
//!
//! The sweep path is deliberately two-layered: [`SweepRequest`] holds
//! the *invocation* concerns (paths, checkpointing, transport) and
//! converts via [`SweepRequest::to_job`] into the transport-agnostic
//! [`SweepJob`] — the same validated type a `repro serve` submit
//! deserializes to, so argv jobs and wire jobs share one entry API and
//! one error vocabulary.
//!
//! [`ExitCode`] is the process's entire exit-status contract in one
//! exported enum, consumed by the binary and by the contract tests —
//! no magic integers at call sites.

use crate::report::Effort;
use antdensity_sweep::SweepJob;
use std::fmt;
use std::path::PathBuf;

/// The `repro` exit-status contract. The numeric values are stable
/// API — CI scripts and the contract tests match on them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExitCode {
    /// Complete, gates passed.
    Ok = 0,
    /// IO / lock / setup failure, or a perf-gate regression.
    Failure = 1,
    /// Usage error: bad argv, bad spec, bad fault plan.
    Usage = 2,
    /// Partial sweep: budget hit, checkpoint resumable.
    Partial = 3,
    /// Distributed result mismatch (byte-unequal duplicate shard).
    Mismatch = 4,
}

impl ExitCode {
    /// The process exit status.
    pub fn code(self) -> i32 {
        self as i32
    }

    /// Terminates the process with this status.
    pub fn exit(self) -> ! {
        std::process::exit(self.code())
    }

    /// Prints `reason` to stderr and exits with this status — the
    /// one-liner for terminal failure paths.
    pub fn fail(self, reason: &str) -> ! {
        eprintln!("{reason}");
        self.exit()
    }
}

/// A structured argv rejection: what was wrong, in one line. The
/// binary prints it (plus the usage text) and exits [`ExitCode::Usage`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UsageError(pub String);

impl fmt::Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// One parsed `repro` invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `repro list` — print the experiment table.
    List,
    /// `repro all | e3 e8 …` — run experiments.
    Experiments(ExperimentsRequest),
    /// `repro bench [--compare …]`.
    Bench(BenchRequest),
    /// `repro sweep SPEC …`.
    Sweep(SweepRequest),
    /// `repro sweep-worker …` — the distributed worker half.
    SweepWorker(SweepWorkerRequest),
    /// `repro check-metrics FILE`.
    CheckMetrics(CheckMetricsRequest),
    /// `repro serve …` — the estimation daemon.
    Serve(ServeRequest),
    /// `repro serve-submit ADDR SPEC …` — a one-shot protocol client.
    ServeSubmit(ServeSubmitRequest),
}

/// `repro all` / `repro e3 e8 --full --seed N --out DIR`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExperimentsRequest {
    /// Experiment ids, in argv order (`all` expands to every id).
    pub ids: Vec<String>,
    /// Grid size.
    pub effort: Effort,
    /// Master seed.
    pub seed: u64,
    /// Output directory.
    pub out: PathBuf,
}

/// `repro bench [--group NAME] [--compare [BASE]] [--tolerance F]`.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRequest {
    /// Measurement effort.
    pub effort: Effort,
    /// Output directory for `BENCH_engine.json`.
    pub out: PathBuf,
    /// Baseline to gate against, if any.
    pub compare: Option<PathBuf>,
    /// Allowed fractional regression.
    pub tolerance: f64,
    /// Run only this benchmark family (one of [`crate::perf::GROUPS`]);
    /// `None` runs the whole suite.
    pub group: Option<String>,
    /// `--list-groups`: print the known group names and exit — run
    /// nothing.
    pub list_groups: bool,
}

/// `repro sweep SPEC …` — invocation-side concerns around a
/// [`SweepJob`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepRequest {
    /// The spec file.
    pub spec_path: PathBuf,
    /// Quick (CI smoke) grid.
    pub quick: bool,
    /// `--no-fuse`: one simulation per cell (bit-identity cross-check).
    pub no_fuse: bool,
    /// `--seed N`: override the spec's master seed — identical to
    /// editing the spec's `seed =` line, and the CLI twin of a serve
    /// submit's `seed` field.
    pub seed_override: Option<u64>,
    /// Worker threads for shard fan-out.
    pub workers: Option<usize>,
    /// Output directory.
    pub out: PathBuf,
    /// Resume from `DIR/<name>.ckpt`.
    pub resume: bool,
    /// Stop after K newly executed shards.
    pub max_shards: Option<usize>,
    /// Skip the checkpoint file.
    pub no_checkpoint: bool,
    /// Print the plan, run nothing.
    pub dry_run: bool,
    /// `Some(None)` = `--metrics` to the default path; `Some(Some(p))`
    /// = explicit file.
    pub metrics: Option<Option<PathBuf>>,
    /// Chrome-trace output file.
    pub trace: Option<PathBuf>,
    /// Live progress line per wave.
    pub progress: bool,
    /// Lease shards to worker processes.
    pub serve_shards: bool,
    /// Child workers over pipes (implies `serve_shards`).
    pub workers_cmd: Option<usize>,
    /// Accept TCP workers (implies `serve_shards`).
    pub listen: Option<String>,
    /// Deterministic fault-injection plan.
    pub fault: Option<String>,
    /// `--cache DIR` — shard result cache directory (`off` / absent
    /// disables). Shared with spawned dist workers and across
    /// processes.
    pub cache: Option<PathBuf>,
    /// `--cache-verify`: recompute cache hits anyway and byte-compare;
    /// any mismatch fails the run.
    pub cache_verify: bool,
    /// `--cache-cap BYTES`: LRU-evict down to this size after the run.
    pub cache_cap: Option<u64>,
}

impl SweepRequest {
    /// The transport-agnostic job this invocation means, given the
    /// spec file's text — the exact struct a serve submit builds, so
    /// the two front ends cannot drift.
    pub fn to_job(&self, spec_text: impl Into<String>) -> SweepJob {
        SweepJob {
            spec_text: spec_text.into(),
            quick: self.quick,
            fuse: !self.no_fuse,
            seed_override: self.seed_override,
        }
    }
}

/// How a `sweep-worker` reaches its coordinator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkerMode {
    /// Frames over stdin/stdout (spawned child).
    Stdio,
    /// Dial a `--listen` coordinator.
    Connect(String),
}

/// `repro sweep-worker [--stdio | --connect ADDR] [--cache DIR]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepWorkerRequest {
    /// Transport back to the coordinator.
    pub mode: WorkerMode,
    /// Worker-local shard result cache directory (`off` / absent
    /// disables). A coordinator running with `--cache` forwards its
    /// directory to spawned children automatically.
    pub cache: Option<PathBuf>,
}

/// `repro check-metrics FILE`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckMetricsRequest {
    /// The metrics JSON to validate.
    pub path: PathBuf,
}

/// `repro serve [--listen ADDR | --stdio] [admission knobs…]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeRequest {
    /// TCP bind address (default `127.0.0.1:4710`); `None` with
    /// `stdio` set means a single stdin/stdout session.
    pub listen: Option<String>,
    /// Serve one session over stdin/stdout instead of TCP.
    pub stdio: bool,
    /// Queue slots before submits are rejected.
    pub max_queue: usize,
    /// Concurrent executor threads.
    pub executors: usize,
    /// Worker threads each job asks the shared pool for.
    pub job_workers: usize,
    /// Run jobs on the distributed runtime with N child workers.
    pub dist_workers: Option<usize>,
    /// Shard result cache directory shared by all executors (`off` /
    /// absent disables).
    pub cache: Option<PathBuf>,
}

/// `repro serve-submit ADDR SPEC [--quick] [--seed N] [--out DIR]
/// [--metrics FILE]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeSubmitRequest {
    /// Daemon address, e.g. `127.0.0.1:4710`.
    pub addr: String,
    /// Sweep spec file to submit.
    pub spec_path: PathBuf,
    /// Quick grid.
    pub quick: bool,
    /// Seed override for the job.
    pub seed: Option<u64>,
    /// Where the streamed `SWEEP_<name>.{json,csv}` land.
    pub out: PathBuf,
    /// Also fetch a daemon metrics snapshot into this file.
    pub metrics: Option<PathBuf>,
}

/// Parses one argv (without the program name) into a [`Command`].
/// The first argument names the subcommand; experiment ids (`all`,
/// `e1`…) are themselves subcommand names.
///
/// # Errors
///
/// A one-line [`UsageError`] naming the first offending token.
pub fn parse(args: &[String]) -> Result<Command, UsageError> {
    let Some(first) = args.first() else {
        return Err(UsageError("no command given".to_string()));
    };
    match first.as_str() {
        "list" => {
            expect_no_more("list", &args[1..])?;
            Ok(Command::List)
        }
        "bench" => parse_bench(&args[1..]),
        "sweep" => parse_sweep(&args[1..]),
        "sweep-worker" => parse_sweep_worker(&args[1..]),
        "check-metrics" => parse_check_metrics(&args[1..]),
        "serve" => parse_serve(&args[1..]),
        "serve-submit" => parse_serve_submit(&args[1..]),
        tok if tok == "all" || tok.starts_with('e') || tok.starts_with('E') => {
            parse_experiments(args)
        }
        other => Err(UsageError(format!("unknown command `{other}`"))),
    }
}

fn expect_no_more(cmd: &str, rest: &[String]) -> Result<(), UsageError> {
    match rest.first() {
        None => Ok(()),
        Some(tok) => Err(UsageError(format!("`{cmd}` takes no `{tok}`"))),
    }
}

/// Pulls the operand for `flag` out of `args[*i + 1]`, advancing.
fn operand(args: &[String], i: &mut usize, flag: &str) -> Result<String, UsageError> {
    *i += 1;
    args.get(*i)
        .cloned()
        .ok_or_else(|| UsageError(format!("`{flag}` needs a value")))
}

fn num<T: std::str::FromStr>(args: &[String], i: &mut usize, flag: &str) -> Result<T, UsageError> {
    let raw = operand(args, i, flag)?;
    raw.parse()
        .map_err(|_| UsageError(format!("`{flag}` got unparseable value `{raw}`")))
}

/// `--cache DIR|off` — the literal `off` means "no cache", same as
/// omitting the flag, so scripts can override an inherited `--cache`.
fn cache_operand(args: &[String], i: &mut usize) -> Result<Option<PathBuf>, UsageError> {
    let raw = operand(args, i, "--cache")?;
    Ok((raw != "off").then(|| PathBuf::from(raw)))
}

fn parse_experiments(args: &[String]) -> Result<Command, UsageError> {
    let mut req = ExperimentsRequest {
        ids: Vec::new(),
        effort: Effort::Quick,
        seed: 20_160_725,
        out: PathBuf::from("results"),
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => req.effort = Effort::Quick,
            "--full" => req.effort = Effort::Full,
            "--seed" => req.seed = num(args, &mut i, "--seed")?,
            "--out" => req.out = PathBuf::from(operand(args, &mut i, "--out")?),
            "all" => {
                req.ids = crate::experiments::all()
                    .iter()
                    .map(|e| e.id.to_string())
                    .collect();
            }
            tok if tok.starts_with('e') || tok.starts_with('E') => {
                req.ids.push(tok.to_string());
            }
            other => return Err(UsageError(format!("unknown experiment token `{other}`"))),
        }
        i += 1;
    }
    Ok(Command::Experiments(req))
}

fn parse_bench(args: &[String]) -> Result<Command, UsageError> {
    let mut req = BenchRequest {
        effort: Effort::Quick,
        out: PathBuf::from("results"),
        compare: None,
        tolerance: 0.25,
        group: None,
        list_groups: false,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => req.effort = Effort::Quick,
            "--full" => req.effort = Effort::Full,
            "--out" => req.out = PathBuf::from(operand(args, &mut i, "--out")?),
            "--group" => {
                let g = operand(args, &mut i, "--group")?;
                if !crate::perf::GROUPS.contains(&g.as_str()) {
                    return Err(UsageError(format!(
                        "`--group` got unknown group `{g}` (known: {}; \
                         see `bench --list-groups`)",
                        crate::perf::GROUPS.join(", ")
                    )));
                }
                req.group = Some(g);
            }
            "--list-groups" => req.list_groups = true,
            "--compare" => {
                // optional operand; defaults to the committed baseline
                if let Some(next) = args.get(i + 1).filter(|n| !n.starts_with("--")) {
                    req.compare = Some(PathBuf::from(next));
                    i += 1;
                } else {
                    req.compare = Some(PathBuf::from("BENCH_baseline.json"));
                }
            }
            "--tolerance" => {
                let t: f64 = num(args, &mut i, "--tolerance")?;
                if !(0.0..1.0).contains(&t) {
                    return Err(UsageError(format!(
                        "`--tolerance` must be in [0, 1), got {t}"
                    )));
                }
                req.tolerance = t;
            }
            other => return Err(UsageError(format!("`bench` got unknown flag `{other}`"))),
        }
        i += 1;
    }
    Ok(Command::Bench(req))
}

fn parse_sweep(args: &[String]) -> Result<Command, UsageError> {
    let mut spec_path = None;
    let mut req = SweepRequest {
        spec_path: PathBuf::new(),
        quick: true,
        no_fuse: false,
        seed_override: None,
        workers: None,
        out: PathBuf::from("results"),
        resume: false,
        max_shards: None,
        no_checkpoint: false,
        dry_run: false,
        metrics: None,
        trace: None,
        progress: false,
        serve_shards: false,
        workers_cmd: None,
        listen: None,
        fault: None,
        cache: None,
        cache_verify: false,
        cache_cap: None,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => req.quick = true,
            "--full" => req.quick = false,
            "--no-fuse" => req.no_fuse = true,
            "--seed" => req.seed_override = Some(num(args, &mut i, "--seed")?),
            "--workers" => {
                let w: usize = num(args, &mut i, "--workers")?;
                if w == 0 {
                    return Err(UsageError("`--workers` must be positive".to_string()));
                }
                req.workers = Some(w);
            }
            "--out" => req.out = PathBuf::from(operand(args, &mut i, "--out")?),
            "--resume" => req.resume = true,
            "--max-shards" => req.max_shards = Some(num(args, &mut i, "--max-shards")?),
            "--no-checkpoint" => req.no_checkpoint = true,
            "--dry-run" => req.dry_run = true,
            "--metrics" => {
                if let Some(next) = args.get(i + 1).filter(|n| !n.starts_with("--")) {
                    req.metrics = Some(Some(PathBuf::from(next)));
                    i += 1;
                } else {
                    req.metrics = Some(None);
                }
            }
            "--trace" => req.trace = Some(PathBuf::from(operand(args, &mut i, "--trace")?)),
            "--progress" => req.progress = true,
            "--serve-shards" => req.serve_shards = true,
            "--workers-cmd" => {
                let w: usize = num(args, &mut i, "--workers-cmd")?;
                if w == 0 {
                    return Err(UsageError("`--workers-cmd` must be positive".to_string()));
                }
                req.workers_cmd = Some(w);
                req.serve_shards = true;
            }
            "--listen" => {
                req.listen = Some(operand(args, &mut i, "--listen")?);
                req.serve_shards = true;
            }
            "--fault" => req.fault = Some(operand(args, &mut i, "--fault")?),
            "--cache" => req.cache = cache_operand(args, &mut i)?,
            "--cache-verify" => req.cache_verify = true,
            "--cache-cap" => {
                let cap: u64 = num(args, &mut i, "--cache-cap")?;
                if cap == 0 {
                    return Err(UsageError(
                        "`--cache-cap` must be positive (use `--cache off` to disable)".to_string(),
                    ));
                }
                req.cache_cap = Some(cap);
            }
            tok if !tok.starts_with("--") && spec_path.is_none() => {
                spec_path = Some(PathBuf::from(tok));
            }
            other => return Err(UsageError(format!("`sweep` got unknown token `{other}`"))),
        }
        i += 1;
    }
    req.spec_path =
        spec_path.ok_or_else(|| UsageError("`sweep` needs a spec file path".to_string()))?;
    Ok(Command::Sweep(req))
}

fn parse_sweep_worker(args: &[String]) -> Result<Command, UsageError> {
    let mut mode = WorkerMode::Stdio;
    let mut cache = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--stdio" => mode = WorkerMode::Stdio,
            "--connect" => {
                mode =
                    WorkerMode::Connect(args.get(i + 1).cloned().ok_or_else(|| {
                        UsageError("`--connect` needs an ADDR operand".to_string())
                    })?);
                i += 1;
            }
            "--cache" => cache = cache_operand(args, &mut i)?,
            other => {
                return Err(UsageError(format!(
                    "unknown sweep-worker option `{other}` \
                     (want --stdio, --connect ADDR, or --cache DIR)"
                )))
            }
        }
        i += 1;
    }
    Ok(Command::SweepWorker(SweepWorkerRequest { mode, cache }))
}

fn parse_check_metrics(args: &[String]) -> Result<Command, UsageError> {
    let path = args
        .first()
        .filter(|p| !p.starts_with("--"))
        .ok_or_else(|| UsageError("`check-metrics` needs a metrics JSON file path".to_string()))?;
    expect_no_more("check-metrics", &args[1..])?;
    Ok(Command::CheckMetrics(CheckMetricsRequest {
        path: PathBuf::from(path),
    }))
}

fn parse_serve(args: &[String]) -> Result<Command, UsageError> {
    let mut req = ServeRequest {
        listen: None,
        stdio: false,
        max_queue: 64,
        executors: 2,
        job_workers: 0,
        dist_workers: None,
        cache: None,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--listen" => req.listen = Some(operand(args, &mut i, "--listen")?),
            "--stdio" => req.stdio = true,
            "--max-queue" => req.max_queue = num(args, &mut i, "--max-queue")?,
            "--executors" => {
                let e: usize = num(args, &mut i, "--executors")?;
                if e == 0 {
                    return Err(UsageError("`--executors` must be positive".to_string()));
                }
                req.executors = e;
            }
            "--workers" => req.job_workers = num(args, &mut i, "--workers")?,
            "--dist" => {
                let w: usize = num(args, &mut i, "--dist")?;
                if w == 0 {
                    return Err(UsageError("`--dist` must be positive".to_string()));
                }
                req.dist_workers = Some(w);
            }
            "--cache" => req.cache = cache_operand(args, &mut i)?,
            other => return Err(UsageError(format!("`serve` got unknown flag `{other}`"))),
        }
        i += 1;
    }
    if req.stdio && req.listen.is_some() {
        return Err(UsageError(
            "`serve` takes `--stdio` or `--listen ADDR`, not both".to_string(),
        ));
    }
    Ok(Command::Serve(req))
}

fn parse_serve_submit(args: &[String]) -> Result<Command, UsageError> {
    let mut positionals = Vec::new();
    let mut quick = false;
    let mut seed = None;
    let mut out = PathBuf::from("results");
    let mut metrics = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => quick = true,
            "--full" => quick = false,
            "--seed" => seed = Some(num(args, &mut i, "--seed")?),
            "--out" => out = PathBuf::from(operand(args, &mut i, "--out")?),
            "--metrics" => metrics = Some(PathBuf::from(operand(args, &mut i, "--metrics")?)),
            tok if !tok.starts_with("--") => positionals.push(tok.to_string()),
            other => {
                return Err(UsageError(format!(
                    "`serve-submit` got unknown flag `{other}`"
                )))
            }
        }
        i += 1;
    }
    let [addr, spec] = positionals.as_slice() else {
        return Err(UsageError(
            "`serve-submit` needs ADDR and SPEC operands".to_string(),
        ));
    };
    Ok(Command::ServeSubmit(ServeSubmitRequest {
        addr: addr.clone(),
        spec_path: PathBuf::from(spec),
        quick,
        seed,
        out,
        metrics,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn exit_codes_are_the_documented_contract() {
        assert_eq!(ExitCode::Ok.code(), 0);
        assert_eq!(ExitCode::Failure.code(), 1);
        assert_eq!(ExitCode::Usage.code(), 2);
        assert_eq!(ExitCode::Partial.code(), 3);
        assert_eq!(ExitCode::Mismatch.code(), 4);
    }

    #[test]
    fn sweep_parses_into_a_typed_request() {
        let cmd = parse(&argv(
            "sweep specs/smoke.sweep --full --seed 9 --workers 4 --out o \
             --max-shards 3 --no-fuse --metrics m.json --serve-shards",
        ))
        .unwrap();
        let Command::Sweep(req) = cmd else {
            panic!("not sweep")
        };
        assert_eq!(req.spec_path, PathBuf::from("specs/smoke.sweep"));
        assert!(!req.quick);
        assert!(req.no_fuse);
        assert_eq!(req.seed_override, Some(9));
        assert_eq!(req.workers, Some(4));
        assert_eq!(req.max_shards, Some(3));
        assert_eq!(req.metrics, Some(Some(PathBuf::from("m.json"))));
        assert!(req.serve_shards);
        assert_eq!(req.cache, None);
        assert!(!req.cache_verify);
        // the job it means is the serve submit's job
        let job = req.to_job("name = x\n");
        assert_eq!(
            job,
            SweepJob {
                spec_text: "name = x\n".to_string(),
                quick: false,
                fuse: false,
                seed_override: Some(9),
            }
        );
    }

    #[test]
    fn sweep_usage_errors_are_structured() {
        assert!(parse(&argv("sweep")).is_err());
        assert!(parse(&argv("sweep a.sweep --workers 0")).is_err());
        assert!(parse(&argv("sweep a.sweep --workers-cmd 0")).is_err());
        assert!(parse(&argv("sweep a.sweep b.sweep")).is_err());
        assert!(parse(&argv("sweep a.sweep --bogus")).is_err());
        let err = parse(&argv("sweep a.sweep --max-shards lots")).unwrap_err();
        assert!(err.0.contains("--max-shards"), "{err}");
        assert!(parse(&argv("sweep a.sweep --cache")).is_err());
        assert!(parse(&argv("sweep a.sweep --cache d --cache-cap 0")).is_err());
    }

    #[test]
    fn cache_flags_parse_on_sweep_worker_and_serve() {
        let Command::Sweep(req) = parse(&argv(
            "sweep a.sweep --cache /tmp/cas --cache-verify --cache-cap 1024",
        ))
        .unwrap() else {
            panic!("not sweep")
        };
        assert_eq!(req.cache, Some(PathBuf::from("/tmp/cas")));
        assert!(req.cache_verify);
        assert_eq!(req.cache_cap, Some(1024));
        // `off` is the explicit disable, same as omitting the flag
        let Command::Sweep(req) = parse(&argv("sweep a.sweep --cache off")).unwrap() else {
            panic!("not sweep")
        };
        assert_eq!(req.cache, None);

        assert_eq!(
            parse(&argv("sweep-worker --stdio --cache /tmp/cas")).unwrap(),
            Command::SweepWorker(SweepWorkerRequest {
                mode: WorkerMode::Stdio,
                cache: Some(PathBuf::from("/tmp/cas")),
            })
        );
        assert_eq!(
            parse(&argv("sweep-worker --connect 1.2.3.4:5 --cache off")).unwrap(),
            Command::SweepWorker(SweepWorkerRequest {
                mode: WorkerMode::Connect("1.2.3.4:5".to_string()),
                cache: None,
            })
        );

        let Command::Serve(req) = parse(&argv("serve --stdio --cache /tmp/cas")).unwrap() else {
            panic!("not serve")
        };
        assert_eq!(req.cache, Some(PathBuf::from("/tmp/cas")));
    }

    #[test]
    fn serve_and_clients_parse() {
        let cmd = parse(&argv(
            "serve --listen 127.0.0.1:4710 --max-queue 8 --executors 3 --dist 2",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Serve(ServeRequest {
                listen: Some("127.0.0.1:4710".to_string()),
                stdio: false,
                max_queue: 8,
                executors: 3,
                job_workers: 0,
                dist_workers: Some(2),
                cache: None,
            })
        );
        assert!(parse(&argv("serve --stdio --listen x")).is_err());
        assert!(parse(&argv("serve --executors 0")).is_err());

        let cmd = parse(&argv(
            "serve-submit 127.0.0.1:4710 specs/smoke.sweep --quick --seed 7 --out d --metrics m",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::ServeSubmit(ServeSubmitRequest {
                addr: "127.0.0.1:4710".to_string(),
                spec_path: PathBuf::from("specs/smoke.sweep"),
                quick: true,
                seed: Some(7),
                out: PathBuf::from("d"),
                metrics: Some(PathBuf::from("m")),
            })
        );
        assert!(parse(&argv("serve-submit onlyaddr")).is_err());

        assert_eq!(
            parse(&argv("serve-bench")),
            Err(UsageError("unknown command `serve-bench`".to_string()))
        );
    }

    #[test]
    fn experiments_bench_and_misc_parse() {
        let Command::Experiments(req) = parse(&argv("e3 e8 --full --seed 5")).unwrap() else {
            panic!()
        };
        assert_eq!(req.ids, vec!["e3", "e8"]);
        assert_eq!(req.effort, Effort::Full);
        assert_eq!(req.seed, 5);

        let Command::Experiments(req) = parse(&argv("all")).unwrap() else {
            panic!()
        };
        assert!(!req.ids.is_empty());

        let Command::Bench(req) = parse(&argv("bench --compare --tolerance 0.1")).unwrap() else {
            panic!()
        };
        assert_eq!(req.compare, Some(PathBuf::from("BENCH_baseline.json")));
        assert!((req.tolerance - 0.1).abs() < 1e-12);
        assert_eq!(req.group, None);
        assert!(parse(&argv("bench --tolerance 2.0")).is_err());

        let Command::Bench(req) = parse(&argv("bench --group mega_scale")).unwrap() else {
            panic!()
        };
        assert_eq!(req.group.as_deref(), Some("mega_scale"));
        let err = parse(&argv("bench --group nonsense")).unwrap_err();
        assert!(err.0.contains("unknown group `nonsense`"), "{err}");
        assert!(err.0.contains("rng_batch"), "{err}");
        assert!(err.0.contains("--list-groups"), "{err}");
        assert!(parse(&argv("bench --group")).is_err());

        let Command::Bench(req) = parse(&argv("bench --list-groups")).unwrap() else {
            panic!()
        };
        assert!(req.list_groups);

        assert_eq!(parse(&argv("list")).unwrap(), Command::List);
        assert!(parse(&argv("list extra")).is_err());
        assert_eq!(
            parse(&argv("sweep-worker --connect 1.2.3.4:5")).unwrap(),
            Command::SweepWorker(SweepWorkerRequest {
                mode: WorkerMode::Connect("1.2.3.4:5".to_string()),
                cache: None,
            })
        );
        assert!(parse(&argv("check-metrics")).is_err());
        assert!(parse(&argv("--definitely-not-a-flag")).is_err());
        assert!(parse(&[]).is_err());
    }
}
