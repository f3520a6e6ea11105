//! Sharded sweep execution on the workspace's persistent worker pool.
//!
//! Since the observer pipeline landed, the unit of execution is the
//! **fused shard** ([`crate::spec::FusedShard`]): grid cells identical
//! up to estimator and rounds, served by *one* simulation pass per
//! trial ([`Scenario::run_streamed`]) whose observers snapshot every
//! member cell's `(estimator, rounds)` combination along the way.
//!
//! Shard `i` is a **pure function** of `(resolved spec, i)`: its trials
//! draw from
//! `SeedSequence::new(seed).subsequence(SHARD_STREAM ^ i).derive(trial)`
//! — so any subset of shards can run anywhere, in any order, on any
//! worker count, and the aggregates come out bit-identical. Every sweep
//! runs shards fused; [`run_shard_unfused`] is the test reference that
//! runs each member cell as its own simulation from the *same* streams.
//! Because a `t`-round run draws a strict prefix of a `t' > t`-round
//! run, the two are **bit-identical** — the property
//! `tests/determinism.rs` pins and `tests/fusion_gate.rs` checks on
//! report bytes, with fusion's speedup.
//!
//! [`run_resolved`] is the one sweep driver. It locks, resumes,
//! merges, observes, and checkpoints; only the executor varies. The
//! in-process executor dispatches shards in waves onto the existing
//! [`WorkerPool`] (via [`antdensity_engine::pool::run_trials_on`], the
//! workspace's deterministic fan-out primitive): `workers` tasks claim
//! a wave's shards through an atomic cursor, costliest first by
//! agent-steps, so one worker never runs two heavy shards back to back
//! while another idles. Each result goes back to its wave slot, so
//! merges, `on_shard` observations and checkpoints keep wave order. A
//! [`SweepOptions::dist`] transport instead feeds shards in completion
//! order and hands back the ones it could not finish, which run in
//! waves here. Every `checkpoint_every` merged shards the full
//! completed state is checkpointed. Killing a sweep loses at most that
//! many shards of work, and [`run_sweep`] with `resume` picks up from
//! the checkpoint.

use crate::aggregate::CellAggregate;
use crate::checkpoint::Checkpoint;
use crate::dist::{DistOptions, DistStats, Transport};
use crate::spec::{FusedShard, ResolvedSweep, SweepSpec};
use antdensity_engine::pool::{default_threads, run_trials_on};
use antdensity_engine::{EstimatorSpec, ObserverTap, Scenario, WorkerPool};
use antdensity_stats::rng::SeedSequence;
use antdensity_telemetry as telemetry;
use std::collections::BTreeMap;
use std::io::Write;
use std::ops::ControlFlow;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Stream label separating shard seed derivation from every other
/// consumer of the sweep's master seed.
const SHARD_STREAM: u64 = 0x5348_4152_4400_0000; // "SHARD"

// Sweep-layer telemetry. Shard spans carry the shard index as a trace
// argument; the fusion counters make the observer-pipeline win
// measurable (`rounds_saved_by_fusion` is the work fusion deleted
// relative to per-cell execution).
static SHARD_SPAN: telemetry::SpanMetric = telemetry::SpanMetric::new("sweep.shard");
static WAVE_SPAN: telemetry::SpanMetric = telemetry::SpanMetric::new("sweep.wave");
static SHARDS_DONE: telemetry::LazyCounter = telemetry::LazyCounter::new("sweep.shards_completed");
static CELLS_DONE: telemetry::LazyCounter = telemetry::LazyCounter::new("sweep.cells_completed");
static TRIALS_DONE: telemetry::LazyCounter = telemetry::LazyCounter::new("sweep.trials");
static ROUNDS_SIM: telemetry::LazyCounter = telemetry::LazyCounter::new("sweep.rounds_simulated");
static ROUNDS_SAVED: telemetry::LazyCounter =
    telemetry::LazyCounter::new("sweep.rounds_saved_by_fusion");

/// Execution options for [`run_sweep`].
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Quick (CI smoke) or full effort: the grid [`run_sweep`]
    /// resolves, part of its fingerprint. [`run_resolved`] takes an
    /// already-resolved sweep and does not read it.
    pub quick: bool,
    /// Worker threads for shard fan-out (results never depend on it).
    pub workers: usize,
    /// Explicit pool (tests pin real worker counts); `None` = the
    /// process-global pool.
    pub pool: Option<Arc<WorkerPool>>,
    /// Checkpoint file path; `None` disables checkpointing.
    pub checkpoint: Option<PathBuf>,
    /// Load the checkpoint (if it exists) and skip completed shards.
    pub resume: bool,
    /// Stop after this many newly executed shards (the checkpoint still
    /// covers them) — `repro sweep --max-shards`, and how the
    /// determinism suite simulates a mid-run kill.
    pub max_shards: Option<usize>,
    /// Shards per wave between checkpoint writes.
    pub checkpoint_every: usize,
    /// Emit a live progress line to stderr after every wave
    /// (`repro sweep --progress`): shards done/total, aggregate
    /// Msteps/s, rounds-weighted ETA. Observability only — never
    /// touches results.
    pub progress: bool,
    /// Shard result cache (`repro sweep --cache DIR`): consulted
    /// before executing a shard, published to after. `None` (default)
    /// disables caching. Results never depend on it — a cached blob is
    /// verified down to the fingerprint and falls back to recompute.
    pub cache: Option<Arc<crate::cache::ShardCache>>,
    /// Distrust mode (`--cache-verify`): cache hits are recomputed
    /// anyway and byte-compared against the cached blob; any mismatch
    /// aborts the sweep loudly. CI's way of proving the cache serves
    /// the exact bytes simulation would produce.
    pub cache_verify: bool,
    /// Cache size cap in bytes (`--cache-cap`): after the sweep
    /// publishes its shards, an LRU eviction pass shrinks the cache to
    /// this size. `None` = unbounded.
    pub cache_cap: Option<u64>,
    /// Run the shards on a distributed transport (`repro sweep
    /// --serve-shards`, `--workers-cmd`, `--listen`) instead of the
    /// pool; `None` (default) runs in-process. Results never depend on
    /// it.
    pub dist: Option<DistOptions>,
}

impl Default for SweepOptions {
    fn default() -> Self {
        Self {
            quick: false,
            workers: default_threads(),
            pool: None,
            checkpoint: None,
            resume: false,
            max_shards: None,
            checkpoint_every: 8,
            progress: false,
            cache: None,
            cache_verify: false,
            cache_cap: None,
            dist: None,
        }
    }
}

/// The result of a (possibly partial) sweep execution.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepOutcome {
    /// The resolved spec the shards ran against.
    pub resolved: ResolvedSweep,
    /// Aggregates by cell index; `None` for cells whose shard has not
    /// yet executed (only when stopped early via `max_shards`).
    pub aggregates: Vec<Option<CellAggregate>>,
    /// Whether every shard has completed.
    pub complete: bool,
    /// Fused shards executed by *this* invocation (excludes resumed
    /// ones).
    pub executed: usize,
    /// Fused shards restored from the checkpoint.
    pub resumed: usize,
    /// Simulation passes this invocation ran: `trials` per executed
    /// fused shard (cache hits run none).
    pub simulations: u64,
    /// Rounds this invocation simulated, summed over those passes.
    pub simulated_rounds: u64,
    /// Worker threads the caller asked for ([`SweepOptions::workers`]).
    pub workers_requested: usize,
    /// Worker threads actually usable: the request clamped to the
    /// executing pool's size (the machine's available parallelism for
    /// the global pool). Wall clock only — results never depend on it.
    /// A distributed run reports its transport's worker slots and the
    /// workers that said HELLO instead.
    pub workers_effective: usize,
    /// The distributed transport's counters (`None` for in-process
    /// runs).
    pub dist: Option<DistStats>,
}

/// Why a sweep failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SweepError {
    /// Spec, checkpoint, lock, cache-verify, transport, or merge
    /// failure.
    Failed(String),
    /// Two distributed workers returned byte-unequal blobs for one
    /// shard — the structured report names the shard and the first
    /// differing byte. Maps to exit code 4 in the CLI.
    Mismatch {
        /// The disputed shard.
        shard: u64,
        /// `key=value` mismatch report.
        report: String,
    },
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::Failed(msg) => write!(f, "{msg}"),
            SweepError::Mismatch { shard, report } => {
                write!(f, "result mismatch on shard {shard}: {report}")
            }
        }
    }
}

impl From<String> for SweepError {
    fn from(msg: String) -> Self {
        SweepError::Failed(msg)
    }
}

/// Builds the base scenario a shard's cells share (everything but
/// estimator and rounds).
fn base_scenario(resolved: &ResolvedSweep, shard: &FusedShard, rounds: u64) -> Scenario {
    let base = &resolved.cells[shard.cells[0]];
    let mut scenario =
        Scenario::new(base.topology, base.num_agents, rounds).with_movement(base.movement.clone());
    if let Some(noise) = base.noise {
        scenario = scenario.with_noise(noise);
    }
    scenario
}

/// Whether `shard` runs through the count-based fast path: the spec
/// opted in (`counts = on`), every tap is Algorithm 1 (fusion never
/// duplicates an estimator, so that means exactly one tap), and the
/// shard's shared scenario is
/// [`Scenario::counts_compatible`] — pure movement, no interaction
/// variants, no noise, non-complete topology. Ineligible shards fall
/// back to the agent-level path; eligibility is a pure function of the
/// resolved spec, so the dispatch is deterministic.
fn counts_eligible(resolved: &ResolvedSweep, shard: &FusedShard) -> bool {
    resolved.counts
        && shard
            .taps
            .iter()
            .all(|t| t.estimator == EstimatorSpec::Algorithm1)
        && base_scenario(resolved, shard, 1).counts_compatible()
}

/// Executes fused shard `index`: one simulation pass per trial,
/// snapshotted at every member cell's `(estimator, rounds)` checkpoint,
/// streamed into per-cell [`CellAggregate`]s. Pure — every call with
/// the same arguments returns identical aggregates, and they are
/// bit-identical to [`run_shard_unfused`].
///
/// # Panics
///
/// Panics if `index` is out of range.
pub fn run_shard(resolved: &ResolvedSweep, index: usize) -> Vec<(usize, CellAggregate)> {
    let shard = &resolved.fused[index];
    let mut span = SHARD_SPAN.start();
    span.arg("shard", index as f64);
    let seq = SeedSequence::new(resolved.seed).subsequence(SHARD_STREAM ^ index as u64);
    let scenario = base_scenario(resolved, shard, shard.max_rounds());
    let taps: Vec<ObserverTap> = shard
        .taps
        .iter()
        .map(|t| ObserverTap {
            estimator: t.estimator.clone(),
            schedule: t.schedule(),
        })
        .collect();
    let mut aggs: BTreeMap<usize, CellAggregate> = shard
        .cells
        .iter()
        .map(|&c| (c, CellAggregate::new()))
        .collect();
    if counts_eligible(resolved, shard) {
        let tap = &shard.taps[0];
        let points: Vec<u64> = tap.checkpoints.iter().map(|c| c.rounds).collect();
        for trial in 0..resolved.trials {
            let outcomes = scenario.run_counts_scheduled(seq.derive(trial), &points);
            for (cp, outcome) in tap.checkpoints.iter().zip(&outcomes) {
                for &cell_idx in &cp.cells {
                    aggs.get_mut(&cell_idx)
                        .expect("checkpoint cells are shard members")
                        .record_counts_trial(&resolved.cells[cell_idx], outcome, resolved.band);
                }
            }
        }
    } else {
        for trial in 0..resolved.trials {
            let outcomes = scenario.run_streamed(seq.derive(trial), &taps);
            for (tap, tap_outcomes) in shard.taps.iter().zip(&outcomes) {
                for (cp, outcome) in tap.checkpoints.iter().zip(tap_outcomes) {
                    for &cell_idx in &cp.cells {
                        aggs.get_mut(&cell_idx)
                            .expect("checkpoint cells are shard members")
                            .record_trial(&resolved.cells[cell_idx], outcome, resolved.band);
                    }
                }
            }
        }
    }
    SHARDS_DONE.add(1);
    CELLS_DONE.add(shard.cells.len() as u64);
    TRIALS_DONE.add(resolved.trials);
    ROUNDS_SIM.add(shard.max_rounds() * resolved.trials);
    ROUNDS_SAVED.add((shard.unfused_rounds() - shard.max_rounds()) * resolved.trials);
    aggs.into_iter().collect()
}

/// Executes shard `index` without fusion: every member cell is its own
/// full simulation, drawing the same per-(shard, trial) streams as
/// [`run_shard`]. No sweep runs it; it is the reference the tests and
/// the benchmark's output check compare [`run_shard`] against.
///
/// # Panics
///
/// Panics if `index` is out of range.
pub fn run_shard_unfused(resolved: &ResolvedSweep, index: usize) -> Vec<(usize, CellAggregate)> {
    let shard = &resolved.fused[index];
    let mut span = SHARD_SPAN.start();
    span.arg("shard", index as f64);
    let seq = SeedSequence::new(resolved.seed).subsequence(SHARD_STREAM ^ index as u64);
    let out: Vec<(usize, CellAggregate)> = shard
        .cells
        .iter()
        .map(|&cell_idx| {
            let cell = &resolved.cells[cell_idx];
            let scenario =
                base_scenario(resolved, shard, cell.rounds).with_estimator(cell.estimator.clone());
            let mut agg = CellAggregate::new();
            // The counts dispatch mirrors the fused path; because a
            // shorter counts run draws a strict prefix of a longer one,
            // the per-cell runs land on the fused path's exact numbers.
            let counts = counts_eligible(resolved, shard);
            for trial in 0..resolved.trials {
                if counts {
                    let outcome = scenario.run_counts(seq.derive(trial));
                    agg.record_counts_trial(cell, &outcome, resolved.band);
                } else {
                    let outcome = scenario.run(seq.derive(trial));
                    agg.record_trial(cell, &outcome, resolved.band);
                }
            }
            (cell_idx, agg)
        })
        .collect();
    SHARDS_DONE.add(1);
    CELLS_DONE.add(shard.cells.len() as u64);
    TRIALS_DONE.add(resolved.trials * shard.cells.len() as u64);
    ROUNDS_SIM.add(shard.unfused_rounds() * resolved.trials);
    out
}

/// Executes shard `index` through the result cache: a verified hit
/// skips simulation entirely (unless `verify`, which recomputes anyway
/// and byte-compares); a miss computes and publishes the blob. Returns
/// the shard's cell aggregates plus whether simulation actually ran —
/// the outcome's work accounting counts only real simulation passes.
///
/// # Errors
///
/// Fails only in `verify` mode, when a cached blob does not byte-match
/// its recomputation.
fn run_shard_cached(
    resolved: &ResolvedSweep,
    index: usize,
    cache: &crate::cache::ShardCache,
    verify: bool,
) -> Result<(Vec<(usize, CellAggregate)>, bool), String> {
    if let Some(blob) = cache.blob_get(resolved, index) {
        if verify {
            let fresh = crate::dist::shard_blob(resolved, index);
            if fresh != blob {
                cache.note_verify_failure();
                let at = fresh
                    .bytes()
                    .zip(blob.bytes())
                    .position(|(a, b)| a != b)
                    .unwrap_or_else(|| fresh.len().min(blob.len()));
                return Err(format!(
                    "cache-verify mismatch on shard {index}: cached blob diverges \
                     from recomputation at byte {at} (cached {} bytes, fresh {} \
                     bytes) — the cache directory is unhealthy",
                    blob.len(),
                    fresh.len()
                ));
            }
            return Ok((crate::dist::parse_blob(resolved, &fresh)?, true));
        }
        let cells =
            crate::dist::parse_blob(resolved, &blob).expect("blob_get already verified the blob");
        return Ok((cells, false));
    }
    let cells = run_shard(resolved, index);
    cache.blob_put(resolved, index, &crate::dist::render_blob(resolved, &cells));
    Ok((cells, true))
}

/// Resolves `spec` under `opts` and runs it through [`run_resolved`]
/// with no observer.
///
/// # Errors
///
/// Returns an error if the spec fails to resolve, or any
/// [`run_resolved`] failure as its message.
pub fn run_sweep(spec: &SweepSpec, opts: &SweepOptions) -> Result<SweepOutcome, String> {
    let resolved = spec.resolve(opts.quick)?;
    run_resolved(&resolved, opts, &mut |_, _, _| true).map_err(|e| e.to_string())
}

/// A per-shard observer: receives the resolved spec, the completed
/// shard's index, and its `(cell index, aggregate)` pairs; returns
/// `false` to stop the sweep cooperatively.
pub type ShardObserver<'a> =
    dyn FnMut(&ResolvedSweep, usize, &[(usize, CellAggregate)]) -> bool + 'a;

/// The one sweep driver, behind every in-process, simulated, and
/// distributed run. It locks the checkpoint, restores finished shards
/// when `resume` is set, keeps the first `max_shards` pending ones, and
/// hands them to an executor: the pool, in waves of
/// `checkpoint_every`, or [`SweepOptions::dist`]'s transport, whose
/// unfinished shards then run on the pool. Each finished shard is
/// observed and merged here; every `checkpoint_every` merged shards the
/// checkpoint is written and the `--progress` line printed; at the end
/// the cache is shrunk to `cache_cap`.
///
/// `on_shard` gets each shard's `(cell index, aggregate)` pairs — the
/// hook the serve daemon streams rows from. Returning `false` stops
/// the sweep (after the current wave in-process; the transport is torn
/// down) with `complete == false`, like a `max_shards` stop. The
/// observer never influences results: shard `i` stays a pure function
/// of `(resolved spec, i)` on every executor.
///
/// # Errors
///
/// [`SweepError::Mismatch`] when two distributed workers returned
/// byte-unequal blobs for one shard; [`SweepError::Failed`] when the
/// checkpoint is locked, unreadable, or belongs to a different sweep,
/// a write fails, `cache_verify` finds a cached blob that differs from
/// its recomputation, or the transport fails.
pub fn run_resolved(
    resolved: &ResolvedSweep,
    opts: &SweepOptions,
    on_shard: &mut ShardObserver<'_>,
) -> Result<SweepOutcome, SweepError> {
    // Exclusive writer: a second coordinator on the same checkpoint
    // must fail loudly rather than interleave tmp+rename writes.
    let _lock = match &opts.checkpoint {
        Some(path) => Some(crate::checkpoint::CheckpointLock::acquire(path)?),
        None => None,
    };
    let done = load_resume(resolved, opts.checkpoint.as_deref(), opts.resume)?;
    let (resumed, mut pending) = partition_pending(resolved, &done);
    pending.truncate(opts.max_shards.unwrap_or(usize::MAX));
    let workers = opts.workers.max(1);
    let pool: &WorkerPool = opts.pool.as_deref().unwrap_or_else(|| WorkerPool::global());

    // Effective-vs-requested parallelism: the pool (sized to the
    // machine's available parallelism unless the caller pinned one)
    // caps the request. Surfaced in the outcome / metrics snapshot,
    // and warned about once per process so a `--workers 64` on an
    // 8-way box is not silently a lie.
    let workers_effective = workers.min(pool.threads());
    if workers_effective < workers {
        static CLAMP_WARNING: std::sync::Once = std::sync::Once::new();
        let pool_threads = pool.threads();
        CLAMP_WARNING.call_once(|| {
            eprintln!(
                "sweep: warning: requested {workers} workers but the executing pool \
                 has {pool_threads} threads (available parallelism) — running with \
                 {workers_effective}"
            );
        });
    }

    let mut run = SweepRun {
        resolved,
        opts,
        pool,
        workers,
        on_shard,
        done,
        every: opts.checkpoint_every.max(1),
        executed: 0,
        simulations: 0,
        simulated_rounds: 0,
        stopped: false,
        resumed,
        pending_rounds: pending.iter().map(|&i| shard_rounds(resolved, i)).sum(),
        progress_rounds: 0,
        progress_agent_steps: 0,
        started: Instant::now(),
    };
    let dist = match &opts.dist {
        None => {
            run.waves(&pending)?;
            None
        }
        Some(dopts) => {
            let cache = opts.cache.as_deref();
            let (stats, undone) = crate::dist::run_transport(
                resolved,
                &pending,
                cache,
                dopts,
                &mut |shard, blob| run.blob(shard, blob),
            )?;
            run.waves(&undone)?;
            Some(stats)
        }
    };
    run.finish()?;

    // Housekeeping after publishing this run's shards: shrink the
    // cache to its cap, evicting least-recently-used entries first
    // (this run's hits and stores are the freshest).
    if let (Some(cache), Some(cap)) = (&opts.cache, opts.cache_cap) {
        cache.evict_to(cap);
    }

    let (workers_requested, workers_effective) = match (&opts.dist, &dist) {
        (Some(dopts), Some(stats)) => match dopts.transport {
            Transport::Sim { workers } | Transport::Children { workers } => {
                (workers, stats.workers_seen as usize)
            }
            Transport::Listen { .. } => (stats.workers_seen as usize, stats.workers_seen as usize),
        },
        _ => (workers, workers_effective),
    };
    let aggregates: Vec<Option<CellAggregate>> = (0..resolved.cells.len())
        .map(|i| run.done.remove(&i))
        .collect();
    let complete = aggregates.iter().all(Option::is_some);
    Ok(SweepOutcome {
        resolved: resolved.clone(),
        aggregates,
        complete,
        executed: run.executed,
        resumed,
        simulations: run.simulations,
        simulated_rounds: run.simulated_rounds,
        workers_requested,
        workers_effective,
        dist,
    })
}

/// Rounds fused shard `i` simulates over all its trials.
fn shard_rounds(resolved: &ResolvedSweep, i: usize) -> u64 {
    resolved.fused[i].max_rounds() * resolved.trials
}

/// Agent steps behind fused shard `i` — its cost for claim order and
/// the `--progress` throughput.
fn shard_agent_steps(resolved: &ResolvedSweep, i: usize) -> u64 {
    shard_rounds(resolved, i) * resolved.cells[resolved.fused[i].cells[0]].num_agents as u64
}

/// One driver invocation's state, shared by every executor: the
/// observer, the cell-keyed merge, work accounting, and the checkpoint
/// and `--progress` cadence.
struct SweepRun<'a, 'o> {
    resolved: &'a ResolvedSweep,
    opts: &'a SweepOptions,
    pool: &'a WorkerPool,
    workers: usize,
    on_shard: &'a mut ShardObserver<'o>,
    done: BTreeMap<usize, CellAggregate>,
    /// Merged shards per checkpoint write (`checkpoint_every`).
    every: usize,
    executed: usize,
    simulations: u64,
    simulated_rounds: u64,
    /// The observer asked to stop.
    stopped: bool,
    resumed: usize,
    pending_rounds: u64,
    progress_rounds: u64,
    progress_agent_steps: u64,
    started: Instant,
}

impl SweepRun<'_, '_> {
    /// The in-process executor: runs `shards` on the pool in waves of
    /// `checkpoint_every`. Within a wave `workers` tasks claim shards
    /// through an atomic cursor, costliest first by agent-steps
    /// (stable, so ties keep wave order), and each result goes back to
    /// its wave slot before it is merged. Stops after the wave in which
    /// the observer stopped the sweep.
    fn waves(&mut self, shards: &[usize]) -> Result<(), String> {
        let resolved = self.resolved;
        for wave in shards.chunks(self.every) {
            if self.stopped {
                break;
            }
            let mut wave_span = WAVE_SPAN.start();
            wave_span.arg("shards", wave.len() as f64);
            let mut claim: Vec<usize> = (0..wave.len()).collect();
            claim.sort_by_key(|&k| std::cmp::Reverse(shard_agent_steps(resolved, wave[k])));
            // Unused per-trial RNG (shards derive their own streams), but
            // run_trials_on is the workspace's deterministic pool fan-out.
            let seq = SeedSequence::new(resolved.seed);
            let (cache, verify) = (self.opts.cache.as_deref(), self.opts.cache_verify);
            let claimed = run_trials_on(self.pool, wave.len() as u64, self.workers, seq, |i, _| {
                let shard = wave[claim[i as usize]];
                match cache {
                    Some(cache) => run_shard_cached(resolved, shard, cache, verify),
                    None => Ok((run_shard(resolved, shard), true)),
                }
            });
            let mut results: Vec<_> = claim.into_iter().zip(claimed).collect();
            results.sort_unstable_by_key(|&(k, _)| k);
            for (&shard, (_, result)) in wave.iter().zip(results) {
                let (cells, simulated) = result?;
                self.shard(shard, cells, simulated)?;
            }
        }
        Ok(())
    }

    /// Takes one finished shard. `simulated` is false for a cache hit,
    /// which counts toward progress but not toward simulation work.
    fn shard(
        &mut self,
        index: usize,
        cells: Vec<(usize, CellAggregate)>,
        simulated: bool,
    ) -> Result<(), String> {
        let rounds = shard_rounds(self.resolved, index);
        if simulated {
            self.simulations += self.resolved.trials;
            self.simulated_rounds += rounds;
        }
        self.progress_rounds += rounds;
        self.progress_agent_steps += shard_agent_steps(self.resolved, index);
        // Observe before the aggregates are consumed by the merge; once
        // the observer stops the sweep, shards already computed are
        // still merged — work is never thrown away — but no further
        // observations are delivered.
        if !self.stopped && !(self.on_shard)(self.resolved, index, &cells) {
            self.stopped = true;
        }
        self.done.extend(cells);
        self.executed += 1;
        if self.executed.is_multiple_of(self.every) {
            self.flush()?;
        }
        Ok(())
    }

    /// Takes one shard's result blob from a distributed transport;
    /// breaks once the observer has stopped the sweep.
    fn blob(&mut self, shard: u64, blob: &str) -> Result<ControlFlow<()>, String> {
        let cells = crate::dist::parse_blob(self.resolved, blob)?;
        self.shard(shard as usize, cells, true)?;
        Ok(if self.stopped {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        })
    }

    /// Writes the checkpoint and the `--progress` line.
    fn flush(&mut self) -> Result<(), String> {
        if let Some(path) = &self.opts.checkpoint {
            let (fingerprint, cells) = (self.resolved.fingerprint, self.resolved.cells.len());
            crate::checkpoint::save_shards(path, fingerprint, cells, &self.done)
                .map_err(|e| format!("checkpoint write failed: {e}"))?;
        }
        if self.opts.progress {
            self.print_progress();
        }
        Ok(())
    }

    /// Flushes shards merged since the last write and ends the
    /// `--progress` line.
    fn finish(&mut self) -> Result<(), String> {
        if !self.executed.is_multiple_of(self.every) {
            self.flush()?;
        }
        if self.opts.progress && self.executed > 0 {
            eprintln!();
        }
        Ok(())
    }

    /// Renders the `--progress` stderr line: shard counts, aggregate
    /// simulation throughput, and a rounds-weighted ETA over the work
    /// still pending. Carriage-return updates in place on a TTY; in a
    /// log file each write is one line.
    fn print_progress(&self) {
        let elapsed = self.started.elapsed().as_secs_f64().max(1e-9);
        let msteps = self.progress_agent_steps as f64 / elapsed / 1e6;
        let rate = self.progress_rounds.max(1) as f64 / elapsed;
        let eta = self.pending_rounds.saturating_sub(self.progress_rounds) as f64 / rate;
        let resumed_note = if self.resumed > 0 {
            format!(" ({} resumed)", self.resumed)
        } else {
            String::new()
        };
        eprint!(
            "\rsweep {}: shards {}/{}{resumed_note} | {msteps:.1} Msteps/s | ETA {eta:.0}s   ",
            self.resolved.name,
            self.resumed + self.executed,
            self.resolved.fused.len(),
        );
        let _ = std::io::stderr().flush();
    }
}

/// Loads resumable cell aggregates: the checkpoint's cell map when
/// `resume` is set and a checkpoint exists, empty otherwise.
///
/// # Errors
///
/// Returns checkpoint load/parse failures, a fingerprint mismatch
/// ("different sweep configuration"), or a cell-count mismatch.
fn load_resume(
    resolved: &ResolvedSweep,
    checkpoint: Option<&std::path::Path>,
    resume: bool,
) -> Result<BTreeMap<usize, CellAggregate>, String> {
    let Some(path) = checkpoint.filter(|_| resume) else {
        return Ok(BTreeMap::new());
    };
    if !path.exists() {
        return Ok(BTreeMap::new());
    }
    let ck = Checkpoint::load(path)?;
    if ck.fingerprint != resolved.fingerprint {
        return Err(format!(
            "checkpoint {} belongs to a different sweep configuration \
             (fingerprint {:016x}, expected {:016x}) — delete it or rerun \
             with the original spec and mode",
            path.display(),
            ck.fingerprint,
            resolved.fingerprint
        ));
    }
    if ck.cells != resolved.cells.len() {
        return Err(format!(
            "checkpoint {} records {} cells, spec resolves to {}",
            path.display(),
            ck.cells,
            resolved.cells.len()
        ));
    }
    Ok(ck.shards)
}

/// Splits the sweep into already-complete and still-pending shards
/// given restored cell aggregates. A shard is complete iff every
/// member cell's aggregate is present (checkpoints are keyed by cell,
/// so partial waves restore cleanly).
fn partition_pending(
    resolved: &ResolvedSweep,
    done: &BTreeMap<usize, CellAggregate>,
) -> (usize, Vec<usize>) {
    let shard_done = |s: &FusedShard| s.cells.iter().all(|c| done.contains_key(c));
    let resumed = resolved.fused.iter().filter(|s| shard_done(s)).count();
    let pending: Vec<usize> = resolved
        .fused
        .iter()
        .filter(|s| !shard_done(s))
        .map(|s| s.index)
        .collect();
    (resumed, pending)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> SweepSpec {
        SweepSpec::parse(
            "
            name = runner_test
            seed = 11
            trials = 2
            topology = torus2d:8, complete:64
            density = 0.1
            rounds = 8, 16
            estimator = alg1
            ",
        )
        .unwrap()
    }

    #[test]
    fn run_shard_is_pure_and_matches_unfused() {
        let resolved = tiny_spec().resolve(false).unwrap();
        // 4 cells fuse into 2 shards (one per topology, rounds fused)
        assert_eq!(resolved.cells.len(), 4);
        assert_eq!(resolved.fused.len(), 2);
        assert_eq!(run_shard(&resolved, 1), run_shard(&resolved, 1));
        assert_eq!(
            run_shard(&resolved, 0),
            run_shard_unfused(&resolved, 0),
            "fused and unfused execution must agree bit for bit"
        );
        assert_ne!(
            run_shard(&resolved, 0)[0].1.est,
            run_shard(&resolved, 1)[0].1.est,
            "different shards draw different streams"
        );
    }

    #[test]
    fn counts_opt_in_dispatches_eligible_shards() {
        let text = "
            name = counts_test
            seed = 11
            trials = 3
            topology = torus2d:8, complete:64
            density = 0.1
            rounds = 8, 16
            estimator = alg1
            counts = on
            ";
        let spec = SweepSpec::parse(text).unwrap();
        let resolved = spec.resolve(false).unwrap();
        assert!(resolved.counts);
        assert_eq!(resolved.fused.len(), 2);
        // shard 0 (torus) is eligible; shard 1 (complete) falls back
        assert!(counts_eligible(&resolved, &resolved.fused[0]));
        assert!(!counts_eligible(&resolved, &resolved.fused[1]));

        // fused and unfused counts execution agree bit for bit (prefix
        // property of the per-round streams)
        assert_eq!(run_shard(&resolved, 0), run_shard_unfused(&resolved, 0));

        let out = run_sweep(&spec, &SweepOptions::default()).unwrap();
        assert!(out.complete);
        for agg in out.aggregates.iter().flatten() {
            assert_eq!(agg.trials, 3);
            assert!(agg.err.count() > 0);
        }
        // counts cells aggregate one mean sample per trial; the
        // agent-level fallback keeps agents × trials samples
        assert_eq!(out.aggregates[0].as_ref().unwrap().est.count(), 3);
        let complete_cell = &out.resolved.cells[2];
        assert!(matches!(
            complete_cell.topology,
            antdensity_engine::TopologySpec::Complete { .. }
        ));
        assert_eq!(
            out.aggregates[2].as_ref().unwrap().est.count(),
            3 * complete_cell.num_agents as u64
        );

        // the knob changes the sampling path, so per-seed numbers move
        let off = SweepSpec::parse(&text.replace("counts = on", "counts = off")).unwrap();
        let base = run_sweep(&off, &SweepOptions::default()).unwrap();
        assert_ne!(out.aggregates[0], base.aggregates[0]);
        // ...but the ineligible shard is untouched by the knob
        assert_eq!(out.aggregates[2], base.aggregates[2]);
    }

    #[test]
    fn full_run_completes_all_shards() {
        let out = run_sweep(&tiny_spec(), &SweepOptions::default()).unwrap();
        assert!(out.complete);
        assert_eq!(out.executed, 2);
        assert_eq!(out.resumed, 0);
        // fused: one pass of max rounds per (shard, trial)
        assert_eq!(out.simulations, 2 * 2);
        assert_eq!(out.simulated_rounds, 2 * 16 * 2);
        assert!(out.aggregates.iter().all(|a| a.is_some()));
        for agg in out.aggregates.iter().flatten() {
            assert_eq!(agg.trials, 2);
        }
    }

    #[test]
    fn unfused_reference_runs_more_simulations_same_aggregates() {
        let fused = run_sweep(&tiny_spec(), &SweepOptions::default()).unwrap();
        let resolved = &fused.resolved;
        let mut unfused = vec![None; resolved.cells.len()];
        for shard in 0..resolved.fused.len() {
            for (cell, agg) in run_shard_unfused(resolved, shard) {
                unfused[cell] = Some(agg);
            }
        }
        assert_eq!(fused.aggregates, unfused);
        // the sweep ran the plan's fused side; per-cell runs cost more
        assert_eq!(resolved.simulation_counts(), (fused.simulations, 4 * 2));
        assert_eq!(
            resolved.simulated_round_counts(),
            (fused.simulated_rounds, 2 * (8 + 16) * 2)
        );
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let spec = tiny_spec();
        let base = run_sweep(&spec, &SweepOptions::default()).unwrap();
        for workers in [1, 2, 5] {
            let opts = SweepOptions {
                workers,
                pool: Some(Arc::new(WorkerPool::new(workers))),
                ..SweepOptions::default()
            };
            let out = run_sweep(&spec, &opts).unwrap();
            assert_eq!(out.aggregates, base.aggregates, "workers = {workers}");
        }
    }

    #[test]
    fn max_shards_stops_early_with_checkpoint() {
        let dir = std::env::temp_dir().join(format!("antdensity_runner_{}", std::process::id()));
        let ckpt = dir.join("partial.ckpt");
        let spec = tiny_spec();
        let opts = SweepOptions {
            checkpoint: Some(ckpt.clone()),
            max_shards: Some(1),
            checkpoint_every: 1,
            ..SweepOptions::default()
        };
        let partial = run_sweep(&spec, &opts).unwrap();
        assert!(!partial.complete);
        assert_eq!(partial.executed, 1);
        // shard 0 covers the first topology's two rounds-cells
        assert_eq!(partial.aggregates.iter().filter(|a| a.is_some()).count(), 2);
        let ck = Checkpoint::load(&ckpt).unwrap();
        assert_eq!(ck.shards.len(), 2, "cell-keyed checkpoint entries");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_rejects_foreign_checkpoint() {
        let dir = std::env::temp_dir().join(format!("antdensity_runner_fp_{}", std::process::id()));
        let ckpt = dir.join("sweep.ckpt");
        let spec = tiny_spec();
        let opts = SweepOptions {
            checkpoint: Some(ckpt.clone()),
            max_shards: Some(1),
            ..SweepOptions::default()
        };
        run_sweep(&spec, &opts).unwrap();
        // editing the spec (different seed) must invalidate the checkpoint
        let mut edited = spec.clone();
        edited.seed += 1;
        let resume = SweepOptions {
            checkpoint: Some(ckpt.clone()),
            resume: true,
            ..SweepOptions::default()
        };
        let err = run_sweep(&edited, &resume).unwrap_err();
        assert!(err.contains("different sweep configuration"), "{err}");
        // quick mode resolves a different grid: also rejected
        let err = run_sweep(
            &spec,
            &SweepOptions {
                quick: true,
                ..resume.clone()
            },
        )
        .unwrap_err();
        assert!(err.contains("different sweep configuration"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
