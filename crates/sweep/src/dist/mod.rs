//! Fault-tolerant distributed sweep execution.
//!
//! A coordinator/worker split over the already-deterministic,
//! bit-exactly-checkpointed fused shards: the coordinator leases shard
//! ids to workers (child processes over stdin/stdout pipes, TCP peers,
//! or the in-process simulator), and workers return aggregate blobs in
//! the checkpoint text format. Because shard `i` is a pure function of
//! `(resolved spec, i)` and blobs carry raw f64 bit patterns, the final
//! report is **byte-identical regardless of worker count, topology,
//! failure schedule, or re-issue order** — the property
//! `tests/dist_determinism.rs` pins across seeded [`FaultPlan`]s.
//!
//! This module is an executor, not a second sweep driver. Setting
//! [`SweepOptions::dist`](crate::SweepOptions::dist) makes the one
//! driver, [`crate::run_resolved`], hand its pending shards to the
//! chosen [`Transport`] instead of the pool. The driver keeps
//! everything else: checkpoint lock, resume, `max_shards`, merge,
//! observer, checkpoint and `--progress` cadence, cache cap, and the
//! [`SweepOutcome`](crate::SweepOutcome), which carries this run's
//! [`DistStats`]. A transport hands back the shards it could not
//! finish once every worker is lost, and the driver runs those on the
//! pool.
//!
//! Layering:
//!
//! - [`protocol`] — length-prefixed, checksummed frames
//!   (`SPEC`/`HELLO`/`LEASE`/`RESULT`/`HEARTBEAT`/`NACK`/`SHUTDOWN`).
//! - [`fault`] — the deterministic fault-injection grammar and filter.
//! - [`coordinator`] — the clock-agnostic policy state machine
//!   (leases, expiry, re-issue, respawn backoff, degradation, abort).
//! - [`sim`] — the discrete-event transport under a virtual clock (the
//!   property suite's workhorse).
//! - [`runtime`] — the real transports: spawned children or TCP peers,
//!   plus the worker side of the protocol.

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
use crate::cache::ShardCache;
use crate::checkpoint::Checkpoint;
use crate::runner::SweepError;
use crate::spec::ResolvedSweep;
use antdensity_telemetry as telemetry;
use std::ops::ControlFlow;

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
    /// Shards handed back to the in-process executor after every
    /// worker slot was lost.
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

/// How a sweep runs on a distributed transport: the
/// [`SweepOptions::dist`](crate::SweepOptions::dist) field.
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
    cache: Option<&ShardCache>,
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

/// Where a transport sends each accepted result: the shard index and
/// its blob. The sink parses and merges it, and breaks when the sweep
/// should stop; the transport then tears down and returns.
pub type BlobSink<'a> = dyn FnMut(u64, &str) -> Result<ControlFlow<()>, String> + 'a;

/// The distributed executor behind [`crate::run_resolved`]: hands
/// `pending` to workers over `dopts.transport`, feeding each accepted
/// blob through `sink` until every shard is in or the sink breaks.
/// Returns the run's counters and the shards no worker could finish
/// (after every worker slot was lost), which the driver runs
/// in-process.
///
/// # Errors
///
/// [`SweepError::Mismatch`] when two workers returned byte-unequal
/// blobs for one shard; [`SweepError::Failed`] for transport or sink
/// failures.
pub(crate) fn run_transport(
    resolved: &ResolvedSweep,
    pending: &[usize],
    cache: Option<&ShardCache>,
    dopts: &DistOptions,
    sink: &mut BlobSink<'_>,
) -> Result<(DistStats, Vec<usize>), SweepError> {
    if pending.is_empty() {
        return Ok((DistStats::default(), Vec::new()));
    }
    let (stats, undone) = match &dopts.transport {
        Transport::Sim { workers } => {
            let out = sim::run_sim(
                resolved,
                pending,
                *workers,
                &dopts.plan,
                &dopts.config,
                cache,
                sink,
            )?;
            (out.stats, out.undone)
        }
        Transport::Children { .. } | Transport::Listen { .. } => {
            runtime::run_real(resolved, pending, cache, dopts, sink)?
        }
    };
    TM_LEASES.add(stats.leases);
    TM_REISSUES.add(stats.reissues);
    TM_RESPAWNS.add(stats.respawns);
    TM_DUPLICATES.add(stats.duplicates);
    TM_DEATHS.add(stats.deaths);
    TM_DEGRADED.add(stats.degraded);
    Ok((stats, undone.into_iter().map(|s| s as usize).collect()))
}
