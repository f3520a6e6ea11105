//! Fault-tolerant distributed sweep execution.
//!
//! A coordinator/worker split over the already-deterministic,
//! bit-exactly-checkpointed fused shards: the coordinator leases shard
//! ids to workers (child processes over stdin/stdout pipes, TCP peers,
//! or the in-process simulator), workers return aggregate blobs in the
//! checkpoint text format, and the coordinator merges them through the
//! same cell-keyed path the in-process runner uses. Because shard `i`
//! is a pure function of `(resolved spec, i)` and blobs carry raw
//! f64 bit patterns, the final report is **byte-identical regardless
//! of worker count, topology, failure schedule, or re-issue order** —
//! the property `tests/dist_determinism.rs` pins across seeded
//! [`FaultPlan`]s.
//!
//! Layering:
//!
//! - [`protocol`] — length-prefixed, checksummed frames
//!   (`SPEC`/`HELLO`/`LEASE`/`RESULT`/`HEARTBEAT`/`NACK`/`SHUTDOWN`).
//! - [`fault`] — the deterministic fault-injection grammar and filter.
//! - [`coordinator`] — the clock-agnostic policy state machine
//!   (leases, expiry, re-issue, respawn backoff, degradation, abort).
//! - [`sim`] — the discrete-event driver under a virtual clock (the
//!   property suite's workhorse).
//! - [`runtime`] — the real driver: spawned children or TCP peers,
//!   plus the worker side of the protocol.
//!
//! Entry point: [`run_sweep_distributed`], the distributed sibling of
//! [`crate::run_sweep`].

pub mod coordinator;
pub mod fault;
pub mod protocol;
pub mod runtime;
pub mod sim;

pub use coordinator::{Cmd, Coordinator, DistConfig, Event, FinishKind, WorkerId};
pub use fault::{FaultAction, FaultFilter, FaultPlan};
pub use protocol::{Msg, Verb};
pub use sim::SimOutcome;

use crate::aggregate::CellAggregate;
use crate::checkpoint::{self, Checkpoint, CheckpointLock};
use crate::runner::{load_resume, partition_pending, ShardObserver, SweepOptions, SweepOutcome};
use crate::spec::{ResolvedSweep, SweepSpec};
use antdensity_telemetry as telemetry;

// Distributed-layer telemetry: lease/retry/re-issue counters surfaced
// in METRICS schema v2; the heartbeat-gap histogram is recorded by the
// real runtime (the simulator's virtual clock would poison it).
static TM_LEASES: telemetry::LazyCounter = telemetry::LazyCounter::new("sweep.dist.leases");
static TM_REISSUES: telemetry::LazyCounter = telemetry::LazyCounter::new("sweep.dist.reissues");
static TM_RESPAWNS: telemetry::LazyCounter = telemetry::LazyCounter::new("sweep.dist.respawns");
static TM_DUPLICATES: telemetry::LazyCounter =
    telemetry::LazyCounter::new("sweep.dist.duplicate_results");
static TM_DEATHS: telemetry::LazyCounter = telemetry::LazyCounter::new("sweep.dist.worker_deaths");
static TM_DEGRADED: telemetry::LazyCounter =
    telemetry::LazyCounter::new("sweep.dist.degraded_shards");

/// Counters one distributed run accumulated; surfaced in METRICS v2.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DistStats {
    /// Distinct worker slots that completed the HELLO handshake.
    pub workers_seen: u64,
    /// Leases issued (re-issues included).
    pub leases: u64,
    /// Shards re-queued after lease expiry or holder death.
    pub reissues: u64,
    /// Worker respawns attempted.
    pub respawns: u64,
    /// Duplicate results received (bit-equal ones; an unequal one
    /// aborts the run before it is counted here twice).
    pub duplicates: u64,
    /// Worker transports that died.
    pub deaths: u64,
    /// Leases refused by workers.
    pub nacks: u64,
    /// Frames that failed checksum/decode (includes injected
    /// corruption).
    pub bad_frames: u64,
    /// Shards executed in-process after degradation.
    pub degraded: u64,
}

/// How worker processes are reached.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Transport {
    /// The deterministic discrete-event simulator (no processes, no
    /// wall clock) — what the property suite drives.
    Sim {
        /// Virtual worker count.
        workers: usize,
    },
    /// Child processes speaking frames over stdin/stdout pipes
    /// (`repro sweep … --serve-shards`).
    Children {
        /// Children to spawn.
        workers: usize,
    },
    /// TCP peers that connect to us (`repro sweep … --listen ADDR`;
    /// peers run `repro sweep-worker --connect ADDR`).
    Listen {
        /// Address to bind, e.g. `127.0.0.1:4700`.
        addr: String,
    },
}

/// Options for [`run_sweep_distributed`] beyond the shared
/// [`SweepOptions`].
#[derive(Debug, Clone)]
pub struct DistOptions {
    /// How workers are reached.
    pub transport: Transport,
    /// Injected failure schedule (empty in production).
    pub plan: FaultPlan,
    /// Timing and retry policy.
    pub config: DistConfig,
    /// The spec file's text, shipped verbatim to real workers in the
    /// `SPEC` handshake. Required for [`Transport::Children`] and
    /// [`Transport::Listen`]; unused by [`Transport::Sim`].
    pub spec_text: Option<String>,
    /// Worker command line for [`Transport::Children`]; defaults to
    /// `[current_exe, "sweep-worker", "--stdio"]`.
    pub worker_argv: Option<Vec<String>>,
}

impl DistOptions {
    /// Simulator options with the given virtual worker count and fault
    /// plan — the property suite's constructor.
    pub fn sim(workers: usize, plan: FaultPlan) -> Self {
        Self {
            transport: Transport::Sim { workers },
            plan,
            config: DistConfig::default(),
            spec_text: None,
            worker_argv: None,
        }
    }
}

/// Why a distributed run failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DistError {
    /// Setup, I/O, spec, or merge failure.
    Failed(String),
    /// A duplicate result disagreed byte-for-byte — the structured
    /// report names the shard and the first differing byte. Maps to
    /// exit code 4 in the CLI.
    Mismatch {
        /// The disputed shard.
        shard: u64,
        /// `key=value` mismatch report.
        report: String,
    },
}

impl std::fmt::Display for DistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DistError::Failed(msg) => write!(f, "{msg}"),
            DistError::Mismatch { shard, report } => {
                write!(f, "result mismatch on shard {shard}: {report}")
            }
        }
    }
}

/// Executes fused shard `index` and renders its aggregates as a
/// checkpoint-text blob covering exactly the shard's member cells —
/// the unit workers return over the wire. Byte-deterministic: every
/// worker (or re-execution) produces the identical blob.
pub fn shard_blob(resolved: &ResolvedSweep, index: usize) -> String {
    render_blob(resolved, &crate::runner::run_shard(resolved, index))
}

/// Renders one shard's `(cell index, aggregate)` pairs as the
/// checkpoint-text blob [`shard_blob`] returns and the cache stores.
pub(crate) fn render_blob(resolved: &ResolvedSweep, cells: &[(usize, CellAggregate)]) -> String {
    Checkpoint {
        fingerprint: resolved.fingerprint,
        cells: resolved.cells.len(),
        shards: cells.iter().cloned().collect(),
    }
    .to_text()
}

/// [`shard_blob`] through the shard result cache: a verified hit is
/// returned as-is (cached blobs *are* the bytes [`shard_blob`] would
/// produce — the cache publishes only computed blobs and verifies
/// checksum, fingerprint, and cell count on read); a miss computes and
/// publishes; with no cache it is [`shard_blob`]. Workers serve leases
/// through this, and the coordinator cannot tell a cached blob from a
/// computed one: first-valid-wins and the byzantine-mismatch abort
/// compare the same bytes either way.
pub fn shard_blob_cached(
    resolved: &ResolvedSweep,
    index: usize,
    cache: Option<&crate::cache::ShardCache>,
) -> String {
    let Some(cache) = cache else {
        return shard_blob(resolved, index);
    };
    if let Some(blob) = cache.blob_get(resolved, index) {
        return blob;
    }
    let blob = shard_blob(resolved, index);
    cache.blob_put(resolved, index, &blob);
    blob
}

/// Parses a returned blob into its `(cell index, aggregate)` pairs
/// after checking it answers for *this* spec.
///
/// # Errors
///
/// Returns parse failures and fingerprint/cell-count mismatches (a
/// worker answering for a different spec).
pub fn parse_blob(
    resolved: &ResolvedSweep,
    blob: &str,
) -> Result<Vec<(usize, CellAggregate)>, String> {
    let ck = Checkpoint::parse(blob)?;
    if ck.fingerprint != resolved.fingerprint {
        return Err(format!(
            "result blob fingerprint {:016x} does not match the resolved spec ({:016x})",
            ck.fingerprint, resolved.fingerprint
        ));
    }
    if ck.cells != resolved.cells.len() {
        return Err(format!(
            "result blob records {} cells, spec resolves to {}",
            ck.cells,
            resolved.cells.len()
        ));
    }
    Ok(ck.shards.into_iter().collect())
}

/// Sentinel error message the merge sink raises when an observer
/// cancels a distributed run; [`run_sweep_distributed_observed`]
/// intercepts it and returns the partial outcome instead of an error.
const CANCELLED_SENTINEL: &str = "sweep cancelled by observer";

/// The distributed sibling of [`crate::run_sweep`]: resolves `spec`,
/// hands pending fused shards to workers over the chosen transport,
/// merges returned blobs through the cell-keyed checkpoint path, and
/// assembles the same [`SweepOutcome`] the in-process runner would —
/// bit-identical aggregates included. Resume, `max_shards` budgets,
/// and checkpoint cadence behave exactly as in [`crate::run_sweep`].
///
/// # Errors
///
/// [`DistError::Mismatch`] when two workers returned byte-unequal
/// blobs for one shard; [`DistError::Failed`] for everything else
/// (spec, checkpoint, lock, transport, or merge failures).
pub fn run_sweep_distributed(
    spec: &SweepSpec,
    opts: &SweepOptions,
    dopts: &DistOptions,
) -> Result<(SweepOutcome, DistStats), DistError> {
    run_sweep_distributed_observed(spec, opts, dopts, &mut |_, _, _| true)
}

/// [`run_sweep_distributed`] with a per-shard observer, the distributed
/// sibling of [`crate::runner::run_sweep_observed`]: each accepted
/// result blob is parsed once, observed as `(cell index, aggregate)`
/// pairs, then merged. Returning `false` cancels the run — the
/// transport is torn down (children see EOF and exit) and the partial
/// outcome comes back `Ok` with `complete == false`. Stats from a
/// cancelled run are the default (the coordinator aborted before its
/// final accounting).
///
/// # Errors
///
/// Exactly [`run_sweep_distributed`]'s error conditions.
pub fn run_sweep_distributed_observed(
    spec: &SweepSpec,
    opts: &SweepOptions,
    dopts: &DistOptions,
    on_shard: &mut ShardObserver<'_>,
) -> Result<(SweepOutcome, DistStats), DistError> {
    let resolved = spec.resolve(opts.quick).map_err(DistError::Failed)?;
    let _lock = match &opts.checkpoint {
        Some(path) => Some(CheckpointLock::acquire(path).map_err(DistError::Failed)?),
        None => None,
    };
    let mut done = load_resume(&resolved, opts.checkpoint.as_deref(), opts.resume)
        .map_err(DistError::Failed)?;
    let (resumed, mut pending) = partition_pending(&resolved, &done);
    if let Some(budget) = opts.max_shards {
        pending.truncate(budget);
    }

    let mut executed_shards: Vec<usize> = Vec::new();
    let mut stats = DistStats::default();
    if !pending.is_empty() {
        let ckpt = opts.checkpoint.clone();
        let every = opts.checkpoint_every.max(1);
        let fingerprint = resolved.fingerprint;
        let cells_len = resolved.cells.len();
        {
            let resolved_ref = &resolved;
            let done_ref = &mut done;
            let executed_ref = &mut executed_shards;
            let observer = &mut *on_shard;
            let mut sink = move |shard: u64, blob: &str| -> Result<(), String> {
                let cells = parse_blob(resolved_ref, blob)?;
                let go = observer(resolved_ref, shard as usize, &cells);
                for (cell, agg) in cells {
                    done_ref.insert(cell, agg);
                }
                executed_ref.push(shard as usize);
                if let Some(path) = &ckpt {
                    if executed_ref.len().is_multiple_of(every) {
                        checkpoint::save_shards(path, fingerprint, cells_len, done_ref)
                            .map_err(|e| format!("checkpoint write failed: {e}"))?;
                    }
                }
                if go {
                    Ok(())
                } else {
                    Err(CANCELLED_SENTINEL.to_string())
                }
            };
            let run = match &dopts.transport {
                Transport::Sim { workers } => sim::run_sim(
                    &resolved,
                    &pending,
                    *workers,
                    &dopts.plan,
                    &dopts.config,
                    &mut sink,
                )
                .map(|outcome| outcome.stats),
                Transport::Children { .. } | Transport::Listen { .. } => {
                    runtime::run_real(&resolved, &pending, opts, dopts, &mut sink)
                }
            };
            match run {
                Ok(s) => stats = s,
                // A cancel is a clean early stop, not a failure: keep
                // what was merged, fall through to assemble the
                // partial outcome.
                Err(DistError::Failed(msg)) if msg.contains(CANCELLED_SENTINEL) => {}
                Err(e) => return Err(e),
            }
        }
        if let Some(path) = &opts.checkpoint {
            checkpoint::save_shards(path, resolved.fingerprint, resolved.cells.len(), &done)
                .map_err(|e| DistError::Failed(format!("checkpoint write failed: {e}")))?;
        }
    }

    TM_LEASES.add(stats.leases);
    TM_REISSUES.add(stats.reissues);
    TM_RESPAWNS.add(stats.respawns);
    TM_DUPLICATES.add(stats.duplicates);
    TM_DEATHS.add(stats.deaths);
    TM_DEGRADED.add(stats.degraded);

    let mut simulations = 0u64;
    let mut simulated_rounds = 0u64;
    for &i in &executed_shards {
        simulations += resolved.trials;
        simulated_rounds += resolved.fused[i].max_rounds() * resolved.trials;
    }
    let executed = executed_shards.len();
    let workers_requested = match &dopts.transport {
        Transport::Sim { workers } | Transport::Children { workers } => *workers,
        Transport::Listen { .. } => stats.workers_seen as usize,
    };
    let aggregates: Vec<Option<CellAggregate>> =
        (0..resolved.cells.len()).map(|i| done.remove(&i)).collect();
    let complete = aggregates.iter().all(Option::is_some);
    let outcome = SweepOutcome {
        resolved,
        aggregates,
        complete,
        executed,
        resumed,
        simulations,
        simulated_rounds,
        workers_requested,
        workers_effective: stats.workers_seen as usize,
    };
    Ok((outcome, stats))
}
