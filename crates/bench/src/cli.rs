//! The typed CLI core: argv → per-subcommand request structs → run.
//!
//! Every subcommand parses into its own request struct
//! ([`SweepRequest`], [`BenchRequest`], [`ServeRequest`], …) so the
//! binary is a thin `parse` → dispatch pipeline and tests can exercise
//! parsing without spawning processes.
//!
//! Flags are declared once, in [`FLAGS`]: one row per flag with the
//! commands that take it, its operand and its help line. One scanner
//! reads argv against those rows, and each command's usage line and
//! `repro <cmd> --help` are rendered from them.
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

use crate::experiments;
use crate::report::Effort;
use antdensity_sweep::SweepJob;
use std::fmt;
use std::path::PathBuf;
use std::str::FromStr;

/// The `repro` exit-status contract. The numeric values are stable
/// API — CI scripts and the contract tests match on them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExitCode {
    /// Complete, gates passed.
    Ok = 0,
    /// IO / lock / setup failure, or a failed `repro bench` claim.
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
/// binary prints it (plus the command's [`usage`] line) and exits
/// [`ExitCode::Usage`].
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
    /// `repro --help`, `repro help` or `repro <cmd> --help` — print
    /// this text and exit 0.
    Help(String),
    /// `repro list` — print the experiment table.
    List,
    /// `repro all | e3 e8 …` — run experiments.
    Experiments(ExperimentsRequest),
    /// `repro bench …`.
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

// Each request field is named for its flag; what the flag means is
// its help line in `FLAGS`.

/// `repro all` / `repro e3 e8 …`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExperimentsRequest {
    /// Experiment ids, in argv order (`all` expands to every id).
    pub ids: Vec<String>,
    /// `--quick` / `--full`.
    pub effort: Effort,
    /// `--seed`.
    pub seed: u64,
    /// `--out`.
    pub out: PathBuf,
}

/// `repro bench …`.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRequest {
    /// `--quick` / `--full`.
    pub effort: Effort,
    /// `--out`.
    pub out: PathBuf,
    /// `--group`, one of [`crate::perf::GROUPS`]; `None` runs them all.
    pub group: Option<String>,
    /// `--list-groups`.
    pub list_groups: bool,
}

/// `repro sweep SPEC …` — invocation-side concerns around a
/// [`SweepJob`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SweepRequest {
    /// The spec file.
    pub spec_path: PathBuf,
    /// `--quick` / `--full`.
    pub quick: bool,
    /// `--seed`: the CLI twin of a serve submit's `seed` field.
    pub seed_override: Option<u64>,
    /// `--workers`.
    pub workers: Option<usize>,
    /// `--out`.
    pub out: PathBuf,
    /// `--resume`.
    pub resume: bool,
    /// `--max-shards`.
    pub max_shards: Option<usize>,
    /// `--no-checkpoint`.
    pub no_checkpoint: bool,
    /// `--dry-run`.
    pub dry_run: bool,
    /// `--metrics`: `Some(None)` writes to the default path.
    pub metrics: Option<Option<PathBuf>>,
    /// `--trace`.
    pub trace: Option<PathBuf>,
    /// `--progress`.
    pub progress: bool,
    /// `--serve-shards`, or implied by `--workers-cmd` / `--listen`.
    pub serve_shards: bool,
    /// `--workers-cmd`.
    pub workers_cmd: Option<usize>,
    /// `--listen`.
    pub listen: Option<String>,
    /// `--fault`.
    pub fault: Option<String>,
    /// `--cache` (`None` for `off`); spawned dist workers inherit it.
    pub cache: Option<PathBuf>,
    /// `--cache-verify`.
    pub cache_verify: bool,
    /// `--cache-cap`.
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
            seed_override: self.seed_override,
        }
    }
}

/// How a `sweep-worker` reaches its coordinator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkerMode {
    /// `--stdio`.
    Stdio,
    /// `--connect`.
    Connect(String),
}

/// `repro sweep-worker …`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepWorkerRequest {
    /// `--stdio` / `--connect`.
    pub mode: WorkerMode,
    /// `--cache` (`None` for `off`).
    pub cache: Option<PathBuf>,
}

/// `repro check-metrics FILE`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckMetricsRequest {
    /// The metrics JSON to validate.
    pub path: PathBuf,
}

/// `repro serve …`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeRequest {
    /// `--listen`.
    pub listen: Option<String>,
    /// `--stdio`.
    pub stdio: bool,
    /// `--max-queue`.
    pub max_queue: usize,
    /// `--executors`.
    pub executors: usize,
    /// `--workers`.
    pub job_workers: usize,
    /// `--cache` (`None` for `off`), shared by every executor.
    pub cache: Option<PathBuf>,
}

/// `repro serve-submit ADDR SPEC …`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeSubmitRequest {
    /// Daemon address, e.g. `127.0.0.1:4710`.
    pub addr: String,
    /// Sweep spec file to submit.
    pub spec_path: PathBuf,
    /// `--quick` / `--full`.
    pub quick: bool,
    /// `--seed`.
    pub seed: Option<u64>,
    /// `--out`.
    pub out: PathBuf,
    /// `--metrics`.
    pub metrics: Option<PathBuf>,
}

/// What a flag takes after it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Operand {
    /// Nothing: the flag is a switch.
    Switch,
    /// The next token, whatever it is (`--out DIR`).
    Required(&'static str),
    /// The next token unless it starts with `--` (`--metrics [FILE]`).
    Optional(&'static str),
}

use Operand::{Optional, Required, Switch};

/// One row of [`FLAGS`].
#[derive(Debug)]
pub struct Flag {
    /// The commands that take it, by their [`COMMANDS`] name.
    pub commands: &'static [&'static str],
    /// The flag, e.g. `--out`.
    pub name: &'static str,
    /// What it takes after it.
    pub operand: Operand,
    /// Its line in `repro <cmd> --help`.
    pub help: &'static str,
}

impl Flag {
    /// The flag with its operand, as usage and help print it.
    fn spelled(&self) -> String {
        match self.operand {
            Switch => self.name.to_string(),
            Required(op) => format!("{} {op}", self.name),
            Optional(op) => format!("{} [{op}]", self.name),
        }
    }
}

/// Every `repro` command: its synopsis (the name, then its positional
/// operands) and what it does. `all` is the experiment runner, which
/// any experiment id (`repro e3 e8`) also names.
#[rustfmt::skip]
pub const COMMANDS: &[(&str, &str)] = &[
    ("list",                   "print the experiment ids and what each reproduces"),
    ("all | ID...",            "run every experiment, or the ones named (e1..e17)"),
    ("bench",                  "time the engine kernels into BENCH_engine.json; exit 1 if a claim bound fails"),
    ("sweep SPEC",             "run a declarative parameter sweep (see specs/)"),
    ("sweep-worker",           "the worker half of a distributed sweep"),
    ("check-metrics FILE",     "validate a METRICS_*.json against its schema"),
    ("serve",                  "the estimation daemon: line-delimited JSON jobs"),
    ("serve-submit ADDR SPEC", "submit a spec to a daemon and write the streamed report"),
];

/// Every flag of every command, one row each. The scanner, each
/// command's usage line and `repro <cmd> --help` are all read off it.
#[rustfmt::skip]
pub const FLAGS: &[Flag] = &[
    Flag { commands: &["all", "bench", "sweep"],                 name: "--quick",         operand: Switch,            help: "small grids, the CI configuration (default)" },
    Flag { commands: &["all", "bench", "sweep"],                 name: "--full",          operand: Switch,            help: "the full grids" },
    Flag { commands: &["serve-submit"],                          name: "--quick",         operand: Switch,            help: "the spec's quick grid" },
    Flag { commands: &["serve-submit"],                          name: "--full",          operand: Switch,            help: "the spec's full grid (default)" },
    Flag { commands: &["all"],                                   name: "--seed",          operand: Required("N"),     help: "master seed (default 20160725)" },
    Flag { commands: &["sweep", "serve-submit"],                 name: "--seed",          operand: Required("N"),     help: "override the spec's seed: the bytes of editing its `seed =` line" },
    Flag { commands: &["all", "bench", "sweep", "serve-submit"], name: "--out",           operand: Required("DIR"),   help: "output directory (default results)" },
    Flag { commands: &["bench"],                                 name: "--group",         operand: Required("NAME"),  help: "measure one family (see --list-groups) and check only its claims" },
    Flag { commands: &["bench"],                                 name: "--list-groups",   operand: Switch,            help: "print the family names, one per line, and run nothing" },
    Flag { commands: &["sweep"],                                 name: "--workers",       operand: Required("N"),     help: "worker threads for shard fan-out (results never depend on it)" },
    Flag { commands: &["sweep"],                                 name: "--resume",        operand: Switch,            help: "continue from DIR/<name>.ckpt if present" },
    Flag { commands: &["sweep"],                                 name: "--max-shards",    operand: Required("K"),     help: "stop after K newly executed shards; the checkpoint survives (exit 3)" },
    Flag { commands: &["sweep"],                                 name: "--no-checkpoint", operand: Switch,            help: "write no checkpoint file" },
    Flag { commands: &["sweep"],                                 name: "--dry-run",       operand: Switch,            help: "print the cells, fused shards and simulation work; run nothing" },
    Flag { commands: &["sweep"],                                 name: "--metrics",       operand: Optional("FILE"),  help: "write the metrics snapshot (default DIR/METRICS_<name>.json)" },
    Flag { commands: &["sweep"],                                 name: "--trace",         operand: Required("FILE"),  help: "write a Chrome-trace / Perfetto JSON of the run's spans" },
    Flag { commands: &["sweep"],                                 name: "--progress",      operand: Switch,            help: "a live stderr line per wave: shards done, Msteps/s, ETA" },
    Flag { commands: &["sweep"],                                 name: "--serve-shards",  operand: Switch,            help: "lease fused shards to worker processes; the report bytes stay the same" },
    Flag { commands: &["sweep"],                                 name: "--workers-cmd",   operand: Required("N"),     help: "spawn N child workers over pipes (implies --serve-shards)" },
    Flag { commands: &["sweep"],                                 name: "--listen",        operand: Required("ADDR"),  help: "accept `sweep-worker --connect ADDR` workers (implies --serve-shards)" },
    Flag { commands: &["sweep"],                                 name: "--fault",         operand: Required("PLAN"),  help: "deterministic fault injection, e.g. kill:lease3,drop:RESULT@2" },
    Flag { commands: &["sweep", "sweep-worker", "serve"],        name: "--cache",         operand: Required("DIR"),   help: "content-addressed shard result cache in DIR (`off` disables)" },
    Flag { commands: &["sweep"],                                 name: "--cache-verify",  operand: Switch,            help: "recompute every cache hit and byte-compare; a mismatch fails the run (in-process runs only)" },
    Flag { commands: &["sweep"],                                 name: "--cache-cap",     operand: Required("BYTES"), help: "LRU-evict the cache down to BYTES after the run" },
    Flag { commands: &["sweep-worker"],                          name: "--stdio",         operand: Switch,            help: "frames over stdin/stdout, as a spawned child (default)" },
    Flag { commands: &["sweep-worker"],                          name: "--connect",       operand: Required("ADDR"),  help: "dial a `sweep --listen ADDR` coordinator" },
    Flag { commands: &["serve"],                                 name: "--listen",        operand: Required("ADDR"),  help: "TCP bind address (default 127.0.0.1:4710; port 0 picks one)" },
    Flag { commands: &["serve"],                                 name: "--stdio",         operand: Switch,            help: "serve one session over stdin/stdout instead" },
    Flag { commands: &["serve"],                                 name: "--max-queue",     operand: Required("N"),     help: "queue slots before submits are rejected (default 64)" },
    Flag { commands: &["serve"],                                 name: "--executors",     operand: Required("N"),     help: "jobs run at once, sharing one worker pool (default 2)" },
    Flag { commands: &["serve"],                                 name: "--workers",       operand: Required("N"),     help: "worker threads per job (default 0 runs as 1: shards one at a time)" },
    Flag { commands: &["serve-submit"],                          name: "--metrics",       operand: Required("FILE"),  help: "also fetch the daemon's metrics snapshot into FILE" },
];

/// The rows of [`FLAGS`] that `cmd` takes.
pub fn flags_of(cmd: &str) -> impl Iterator<Item = &'static Flag> + '_ {
    FLAGS.iter().filter(move |f| f.commands.contains(&cmd))
}

/// The [`COMMANDS`] entry named `cmd`, the first word of its synopsis.
fn entry(cmd: &str) -> Option<(&'static str, &'static str)> {
    COMMANDS
        .iter()
        .copied()
        .find(|(synopsis, _)| synopsis.split(' ').next() == Some(cmd))
}

/// The [`COMMANDS`] name `tok` resolves to; an experiment id names `all`.
fn command(tok: &str) -> Option<&'static str> {
    let id = experiments::find(tok).is_some();
    let (synopsis, _) = entry(if id { "all" } else { tok })?;
    synopsis.split(' ').next()
}

/// The usage line of the command `args` names, rendered from
/// [`FLAGS`], or the generic one when no command is recognised.
pub fn usage(args: &[String]) -> String {
    let Some(cmd) = args.first().and_then(|tok| command(tok)) else {
        return "usage: repro COMMAND [flags]   (`repro --help` lists the commands)".to_string();
    };
    let flags: String = flags_of(cmd)
        .map(|f| format!(" [{}]", f.spelled()))
        .collect();
    format!("usage: repro {}{flags}", entry(cmd).unwrap_or_default().0)
}

/// `repro --help` (`cmd` = `None`) or `repro <cmd> --help`.
fn help(cmd: Option<&str>) -> String {
    let Some(cmd) = cmd else {
        let commands: String = COMMANDS
            .iter()
            .map(|(s, about)| format!("  {s:<24}{about}\n"))
            .collect();
        return format!(
            "usage: repro COMMAND [flags]   (`repro COMMAND --help` lists its flags)\n\n\
             {commands}\nexit codes: 0 ok; 1 IO failure or perf gate regressed; 2 usage; \
             3 partial sweep; 4 distributed result mismatch\n"
        );
    };
    let rows: String = flags_of(cmd)
        .map(|f| (f.spelled(), f.help))
        .chain([("--help".to_string(), "print this help")])
        .map(|(spelled, help)| format!("  {spelled:<17}  {help}\n"))
        .collect();
    let (_, about) = entry(cmd).unwrap_or_default();
    format!("{}\n{about}\n\n{rows}", usage(&[cmd.to_string()]))
}

type Scan<'a> = Option<(Vec<(&'static str, Option<&'a str>)>, Vec<&'a str>)>;

/// Splits `cmd`'s argv by [`FLAGS`]: each flag with its operand in argv
/// order (so when a flag repeats, the last one wins), and the
/// positional operands. `None` when `--help` was asked for.
fn scan<'a>(cmd: &str, args: &'a [String]) -> Result<Scan<'a>, UsageError> {
    let (mut flags, mut positionals) = (Vec::new(), Vec::new());
    let mut tokens = args.iter().peekable();
    while let Some(tok) = tokens.next() {
        if !tok.starts_with("--") {
            positionals.push(tok.as_str());
            continue;
        }
        if tok == "--help" {
            return Ok(None);
        }
        let flag = flags_of(cmd)
            .find(|f| f.name == tok)
            .ok_or_else(|| UsageError(format!("`{cmd}` got unknown flag `{tok}`")))?;
        let missing = || UsageError(format!("`{tok}` needs a value"));
        let value = match flag.operand {
            Switch => None,
            Required(_) => Some(tokens.next().ok_or_else(missing)?),
            Optional(_) => tokens.next_if(|next| !next.starts_with("--")),
        };
        flags.push((flag.name, value.map(String::as_str)));
    }
    Ok(Some((flags, positionals)))
}

/// Exactly the positional operands `cmd`'s synopsis names.
fn operands<'a, const N: usize>(cmd: &str, got: Vec<&'a str>) -> Result<[&'a str; N], UsageError> {
    got.try_into().map_err(|got: Vec<&str>| {
        let (synopsis, _) = entry(cmd).unwrap_or_default();
        let want = synopsis
            .split_once(' ')
            .map_or("no operands", |(_, ops)| ops);
        UsageError(format!("`{cmd}` takes {want}, got {got:?}"))
    })
}

fn num<T: FromStr>(flag: &str, raw: &str) -> Result<T, UsageError> {
    raw.parse()
        .map_err(|_| UsageError(format!("`{flag}` got unparseable value `{raw}`")))
}

fn positive<T: FromStr + Default + PartialEq>(flag: &str, raw: &str) -> Result<T, UsageError> {
    let n = num(flag, raw)?;
    if n == T::default() {
        return Err(UsageError(format!("`{flag}` must be positive")));
    }
    Ok(n)
}

/// `--cache DIR|off` — the literal `off` means "no cache", same as
/// omitting the flag, so scripts can override an inherited `--cache`.
fn cache_dir(raw: &str) -> Option<PathBuf> {
    (raw != "off").then(|| PathBuf::from(raw))
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
    if first == "help" || first == "--help" {
        return Ok(Command::Help(help(None)));
    }
    let cmd = command(first).ok_or_else(|| UsageError(format!("unknown command `{first}`")))?;
    // the experiment ids are `all`'s operands, the first one included
    let rest = if cmd == "all" { args } else { &args[1..] };
    let Some((flags, positionals)) = scan(cmd, rest)? else {
        return Ok(Command::Help(help(Some(cmd))));
    };
    let mut out = PathBuf::from("results");
    match cmd {
        "list" => {
            let [] = operands(cmd, positionals)?;
            Ok(Command::List)
        }
        "all" => {
            let (mut effort, mut seed) = (Effort::Quick, 20_160_725);
            for (flag, value) in flags {
                let v = value.unwrap_or_default();
                match flag {
                    "--quick" => effort = Effort::Quick,
                    "--full" => effort = Effort::Full,
                    "--seed" => seed = num(flag, v)?,
                    "--out" => out = v.into(),
                    _ => unreachable!("`all` has no arm for `{flag}`"),
                }
            }
            let mut ids = Vec::new();
            for id in positionals {
                match id {
                    "all" => ids = experiments::all().iter().map(|e| e.id.into()).collect(),
                    _ if experiments::find(id).is_some() => ids.push(id.to_string()),
                    _ => return Err(UsageError(format!("unknown experiment id: {id}"))),
                }
            }
            Ok(Command::Experiments(ExperimentsRequest {
                ids,
                effort,
                seed,
                out,
            }))
        }
        "bench" => {
            let [] = operands(cmd, positionals)?;
            let mut req = BenchRequest {
                effort: Effort::Quick,
                out,
                group: None,
                list_groups: false,
            };
            for (flag, value) in flags {
                let v = value.unwrap_or_default();
                match flag {
                    "--quick" => req.effort = Effort::Quick,
                    "--full" => req.effort = Effort::Full,
                    "--out" => req.out = v.into(),
                    "--group" if !crate::perf::GROUPS.contains(&v) => {
                        return Err(UsageError(format!(
                            "`--group` got unknown group `{v}` (known: {}; \
                             see `bench --list-groups`)",
                            crate::perf::GROUPS.join(", ")
                        )))
                    }
                    "--group" => req.group = Some(v.to_string()),
                    "--list-groups" => req.list_groups = true,
                    _ => unreachable!("`bench` has no arm for `{flag}`"),
                }
            }
            Ok(Command::Bench(req))
        }
        "sweep" => {
            let [spec] = operands(cmd, positionals)?;
            let mut req = SweepRequest {
                spec_path: spec.into(),
                quick: true,
                out,
                ..SweepRequest::default()
            };
            for (flag, value) in flags {
                let v = value.unwrap_or_default();
                match flag {
                    "--quick" => req.quick = true,
                    "--full" => req.quick = false,
                    "--seed" => req.seed_override = Some(num(flag, v)?),
                    "--workers" => req.workers = Some(positive(flag, v)?),
                    "--out" => req.out = v.into(),
                    "--resume" => req.resume = true,
                    "--max-shards" => req.max_shards = Some(num(flag, v)?),
                    "--no-checkpoint" => req.no_checkpoint = true,
                    "--dry-run" => req.dry_run = true,
                    "--metrics" => req.metrics = Some(value.map(PathBuf::from)),
                    "--trace" => req.trace = Some(v.into()),
                    "--progress" => req.progress = true,
                    "--serve-shards" => req.serve_shards = true,
                    "--workers-cmd" => {
                        req.workers_cmd = Some(positive(flag, v)?);
                        req.serve_shards = true;
                    }
                    "--listen" => {
                        req.listen = Some(v.to_string());
                        req.serve_shards = true;
                    }
                    "--fault" => req.fault = Some(v.to_string()),
                    "--cache" => req.cache = cache_dir(v),
                    "--cache-verify" => req.cache_verify = true,
                    "--cache-cap" => req.cache_cap = Some(positive(flag, v)?),
                    _ => unreachable!("`sweep` has no arm for `{flag}`"),
                }
            }
            // Workers answer leases from their own cache lookups, so a
            // coordinator cannot tell which blobs to recompute.
            if req.cache_verify && req.serve_shards {
                return Err(UsageError(
                    "`--cache-verify` runs in-process only; drop `--serve-shards`, \
                     `--workers-cmd` and `--listen`"
                        .to_string(),
                ));
            }
            Ok(Command::Sweep(req))
        }
        "sweep-worker" => {
            let [] = operands(cmd, positionals)?;
            let (mut mode, mut cache) = (WorkerMode::Stdio, None);
            for (flag, value) in flags {
                let v = value.unwrap_or_default();
                match flag {
                    "--stdio" => mode = WorkerMode::Stdio,
                    "--connect" => mode = WorkerMode::Connect(v.to_string()),
                    "--cache" => cache = cache_dir(v),
                    _ => unreachable!("`sweep-worker` has no arm for `{flag}`"),
                }
            }
            Ok(Command::SweepWorker(SweepWorkerRequest { mode, cache }))
        }
        "check-metrics" => {
            let [path] = operands(cmd, positionals)?;
            Ok(Command::CheckMetrics(CheckMetricsRequest {
                path: path.into(),
            }))
        }
        "serve" => {
            let [] = operands(cmd, positionals)?;
            let mut req = ServeRequest {
                listen: None,
                stdio: false,
                max_queue: 64,
                executors: 2,
                job_workers: 0,
                cache: None,
            };
            for (flag, value) in flags {
                let v = value.unwrap_or_default();
                match flag {
                    "--listen" => req.listen = Some(v.to_string()),
                    "--stdio" => req.stdio = true,
                    "--max-queue" => req.max_queue = positive(flag, v)?,
                    "--executors" => req.executors = positive(flag, v)?,
                    "--workers" => req.job_workers = num(flag, v)?,
                    "--cache" => req.cache = cache_dir(v),
                    _ => unreachable!("`serve` has no arm for `{flag}`"),
                }
            }
            if req.stdio && req.listen.is_some() {
                return Err(UsageError(
                    "`serve` takes `--stdio` or `--listen ADDR`, not both".to_string(),
                ));
            }
            Ok(Command::Serve(req))
        }
        "serve-submit" => {
            let [addr, spec] = operands(cmd, positionals)?;
            let (mut quick, mut seed, mut metrics) = (false, None, None);
            for (flag, value) in flags {
                let v = value.unwrap_or_default();
                match flag {
                    "--quick" => quick = true,
                    "--full" => quick = false,
                    "--seed" => seed = Some(num(flag, v)?),
                    "--out" => out = v.into(),
                    "--metrics" => metrics = Some(v.into()),
                    _ => unreachable!("`serve-submit` has no arm for `{flag}`"),
                }
            }
            Ok(Command::ServeSubmit(ServeSubmitRequest {
                addr: addr.to_string(),
                spec_path: spec.into(),
                quick,
                seed,
                out,
                metrics,
            }))
        }
        _ => unreachable!("`{cmd}` is in COMMANDS but has no parser"),
    }
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
             --max-shards 3 --metrics m.json --serve-shards",
        ))
        .unwrap();
        let Command::Sweep(req) = cmd else {
            panic!("not sweep")
        };
        assert_eq!(req.spec_path, PathBuf::from("specs/smoke.sweep"));
        assert!(!req.quick);
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
            "serve --listen 127.0.0.1:4710 --max-queue 8 --executors 3",
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
                cache: None,
            })
        );
        assert!(parse(&argv("serve --stdio --listen x")).is_err());
        assert!(parse(&argv("serve --executors 0")).is_err());
        assert!(parse(&argv("serve --max-queue 0")).is_err());

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

        let Command::Bench(req) = parse(&argv("bench --full")).unwrap() else {
            panic!()
        };
        assert_eq!(req.effort, Effort::Full);
        assert_eq!(req.group, None);

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

    #[test]
    fn unknown_experiment_ids_are_usage_errors() {
        assert_eq!(
            parse(&argv("e3 e99")),
            Err(UsageError("unknown experiment id: e99".to_string()))
        );
        assert!(parse(&argv("echo")).is_err());
        let Command::Experiments(req) = parse(&argv("E3 e4")).unwrap() else {
            panic!()
        };
        assert_eq!(req.ids, vec!["E3", "e4"]);
    }

    #[test]
    fn help_and_usage_are_rendered_from_the_table() {
        for args in ["--help", "help"] {
            let Ok(Command::Help(text)) = parse(&argv(args)) else {
                panic!("{args}")
            };
            assert!(COMMANDS.iter().all(|(s, _)| text.contains(s)), "{text}");
        }
        let Ok(Command::Help(text)) = parse(&argv("sweep --help")) else {
            panic!()
        };
        assert!(
            text.starts_with("usage: repro sweep SPEC [--quick] [--full]"),
            "{text}"
        );
        assert!(text.contains("  --metrics [FILE]  "), "{text}");
        // a required operand takes the next token, `--help` too
        let Command::Sweep(req) = parse(&argv("sweep a.sweep --out --help")).unwrap() else {
            panic!()
        };
        assert_eq!(req.out, PathBuf::from("--help"));
        let line = usage(&argv("e3 --bogus"));
        assert_eq!(
            line,
            "usage: repro all | ID... [--quick] [--full] [--seed N] [--out DIR]"
        );
        assert!(usage(&argv("nonsense")).contains("`repro --help`"));
    }

    #[test]
    fn every_flag_row_reaches_its_command_builder() {
        // a row without a builder arm hits that builder's `unreachable!`
        for (synopsis, _) in COMMANDS {
            let cmd = synopsis.split(' ').next().unwrap();
            let positionals = match cmd {
                "sweep" | "check-metrics" => "a",
                "serve-submit" => "a b",
                _ => "",
            };
            for f in flags_of(cmd) {
                let value = if f.operand == Switch { "" } else { "1" };
                let _ = parse(&argv(&format!("{cmd} {positionals} {} {value}", f.name)));
            }
        }
    }

    /// `parse` pinned argv by argv, one `ARGV<TAB>{:?}` line each: every
    /// `repro` invocation in CI, README and the verify notes, this
    /// module's argvs, repeated flags (the last wins), the flags that
    /// imply `--serve-shards`, and `all e3` against `e3 all`.
    #[test]
    fn parse_matches_the_golden_argvs() {
        let mut diffs = Vec::new();
        for line in include_str!("../tests/golden/cli_parse.tsv").lines() {
            let (args, want) = line.split_once('\t').expect("ARGV<TAB>RESULT");
            let got = format!("{:?}", parse(&argv(args)));
            if got != want {
                diffs.push(format!("{args}\n  want {want}\n  got  {got}"));
            }
        }
        assert!(diffs.is_empty(), "{}", diffs.join("\n"));
    }

    /// Markdown code: each fenced line (with `\` continuations joined)
    /// and each inline code span.
    fn code_snippets(markdown: &str) -> Vec<String> {
        let (mut snippets, mut prose, mut fenced) = (Vec::new(), String::new(), false);
        for line in markdown.replace("\\\n", " ").lines() {
            if line.trim_start().starts_with("```") {
                fenced = !fenced;
            } else if fenced {
                snippets.push(line.to_string());
            } else {
                prose.push_str(line);
                prose.push('\n');
            }
        }
        snippets.extend(prose.split('`').skip(1).step_by(2).map(str::to_string));
        snippets
    }

    #[test]
    fn readme_and_verify_notes_give_each_command_only_its_table_flags() {
        const CARGO_FLAGS: [&str; 5] = ["--", "--release", "--bin", "--example", "--manifest-path"];
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let (mut checked, mut strays) = (0, Vec::new());
        for doc in ["README.md", ".claude/skills/verify/SKILL.md"] {
            let text = std::fs::read_to_string(root.join(doc)).expect(doc);
            for snippet in code_snippets(&text) {
                let snippet = snippet.split(" #").next().unwrap_or_default();
                for invocation in snippet
                    .split_whitespace()
                    .collect::<Vec<_>>()
                    .split(|t| *t == "repro")
                    .skip(1)
                {
                    let mut tokens = invocation.iter().filter(|t| !CARGO_FLAGS.contains(t));
                    let Some(cmd) = tokens.next().and_then(|t| command(t)) else {
                        continue;
                    };
                    for tok in tokens.filter(|t| t.starts_with("--")) {
                        checked += 1;
                        let tok = tok.trim_end_matches(|c: char| !c.is_ascii_alphanumeric());
                        if tok != "--help" && flags_of(cmd).all(|f| f.name != tok) {
                            strays.push(format!("{doc}: `repro {cmd}` given `{tok}`"));
                        }
                    }
                }
            }
        }
        assert!(
            checked > 40,
            "only {checked} flags found: the snippet scan broke"
        );
        assert!(
            strays.is_empty(),
            "flags missing from cli::FLAGS:\n{}",
            strays.join("\n")
        );
    }
}
