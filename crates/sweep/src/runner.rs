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
//! worker count, and the aggregates come out bit-identical. The unfused
//! path ([`SweepOptions::fuse`] `= false`, `repro sweep --no-fuse`)
//! runs each member cell as its own simulation from the *same* streams;
//! because a `t`-round run draws a strict prefix of a `t' > t`-round
//! run, fused and unfused aggregates are **bit-identical** — the
//! property `tests/determinism.rs` pins and CI cross-checks
//! byte-for-byte on reports.
//!
//! Shards are dispatched in waves onto the existing [`WorkerPool`] (via
//! [`antdensity_engine::pool::run_trials_on`], the workspace's
//! deterministic fan-out primitive): `workers` tasks claim a wave's
//! shards through an atomic cursor, costliest first by agent-steps, so
//! one worker never runs two heavy shards back to back while another
//! idles. Each result goes back to its wave slot, so merges, `on_shard`
//! observations and checkpoints keep wave order. After each wave the
//! full completed state is checkpointed. Killing a sweep loses at most
//! one wave of work, and [`run_sweep`] with `resume` picks up from the
//! checkpoint.

use crate::aggregate::CellAggregate;
use crate::checkpoint::Checkpoint;
use crate::spec::{FusedShard, ResolvedSweep, SweepSpec};
use antdensity_engine::pool::{default_threads, run_trials_on};
use antdensity_engine::{EstimatorSpec, ObserverTap, Scenario, WorkerPool};
use antdensity_stats::rng::SeedSequence;
use antdensity_telemetry as telemetry;
use std::collections::BTreeMap;
use std::io::Write;
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
    /// Quick (CI smoke) or full effort; part of the resolved spec and
    /// its fingerprint.
    pub quick: bool,
    /// Run each shard as one fused simulation pass (default). `false`
    /// re-simulates every member cell separately — same RNG streams,
    /// bit-identical aggregates, strictly more work; kept as the
    /// cross-check path (`repro sweep --no-fuse`).
    pub fuse: bool,
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
}

impl Default for SweepOptions {
    fn default() -> Self {
        Self {
            quick: false,
            fuse: true,
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
    /// Simulation passes this invocation ran (`trials` per fused shard,
    /// `trials × member cells` unfused).
    pub simulations: u64,
    /// Rounds this invocation simulated, summed over those passes.
    pub simulated_rounds: u64,
    /// Worker threads the caller asked for ([`SweepOptions::workers`]).
    pub workers_requested: usize,
    /// Worker threads actually usable: the request clamped to the
    /// executing pool's size (the machine's available parallelism for
    /// the global pool). Wall clock only — results never depend on it.
    pub workers_effective: usize,
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
/// [`run_shard`] — the bit-identity cross-check path.
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
    fuse: bool,
    cache: &crate::cache::ShardCache,
    verify: bool,
) -> Result<(Vec<(usize, CellAggregate)>, bool), String> {
    if let Some(blob) = cache.blob_get(resolved, index) {
        if verify {
            let fresh = crate::dist::shard_blob(resolved, index, fuse);
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
    let cells = if fuse {
        run_shard(resolved, index)
    } else {
        run_shard_unfused(resolved, index)
    };
    let blob = Checkpoint {
        fingerprint: resolved.fingerprint,
        cells: resolved.cells.len(),
        shards: cells.iter().cloned().collect(),
    }
    .to_text();
    cache.blob_put(resolved, index, &blob);
    Ok((cells, true))
}

/// Resolves `spec` under `opts` and executes its fused shards,
/// checkpointing each wave and resuming from a prior checkpoint when
/// asked.
///
/// # Errors
///
/// Returns an error if the spec fails to resolve, a resume checkpoint
/// is unreadable/malformed, or the checkpoint's fingerprint or cell
/// count does not match the resolved spec.
pub fn run_sweep(spec: &SweepSpec, opts: &SweepOptions) -> Result<SweepOutcome, String> {
    run_sweep_observed(spec, opts, &mut |_, _, _| true)
}

/// A per-shard observer: receives the resolved spec, the completed
/// shard's index, and its `(cell index, aggregate)` pairs; returns
/// `false` to stop the sweep cooperatively.
pub type ShardObserver<'a> =
    dyn FnMut(&ResolvedSweep, usize, &[(usize, CellAggregate)]) -> bool + 'a;

/// [`run_sweep`] with a per-shard observer: after each completed shard
/// is merged, `on_shard` receives the resolved spec, the shard index,
/// and the shard's `(cell index, aggregate)` pairs — the hook the
/// serve daemon streams row events from. Returning `false` stops the
/// sweep after the current wave (a cooperative cancel; the outcome
/// comes back with `complete == false`, like a `max_shards` stop).
///
/// The observer sees results, it never influences them: shard `i`
/// stays a pure function of `(resolved spec, i)`, so an observed run's
/// aggregates are identical to an unobserved one's.
///
/// # Errors
///
/// Exactly [`run_sweep`]'s error conditions.
pub fn run_sweep_observed(
    spec: &SweepSpec,
    opts: &SweepOptions,
    on_shard: &mut ShardObserver<'_>,
) -> Result<SweepOutcome, String> {
    let resolved = spec.resolve(opts.quick)?;
    // Exclusive writer: a second coordinator on the same checkpoint
    // must fail loudly rather than interleave tmp+rename writes.
    let _lock = match &opts.checkpoint {
        Some(path) => Some(crate::checkpoint::CheckpointLock::acquire(path)?),
        None => None,
    };
    let mut done = load_resume(&resolved, opts.checkpoint.as_deref(), opts.resume)?;
    let (resumed, pending) = partition_pending(&resolved, &done);
    let budget = opts.max_shards.unwrap_or(usize::MAX);
    let workers = opts.workers.max(1);
    let wave_size = opts.checkpoint_every.max(1);
    let pool: &WorkerPool = opts.pool.as_deref().unwrap_or_else(|| WorkerPool::global());
    let fuse = opts.fuse;

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

    // Rounds-weighted progress bookkeeping (`--progress`): how much
    // simulation work each pending shard represents, and the agent
    // steps behind it, so the stderr line can show a defensible ETA
    // and an aggregate Msteps/s.
    let shard_rounds = |s: &FusedShard| {
        let r = if fuse {
            s.max_rounds()
        } else {
            s.unfused_rounds()
        };
        r * resolved.trials
    };
    let shard_agent_steps =
        |s: &FusedShard| shard_rounds(s) * resolved.cells[s.cells[0]].num_agents as u64;
    let pending_rounds: u64 = pending
        .iter()
        .map(|&i| shard_rounds(&resolved.fused[i]))
        .sum();
    let started = Instant::now();
    let mut progress_rounds = 0u64;
    let mut progress_agent_steps = 0u64;
    let total_shards = resolved.fused.len();

    let mut executed = 0usize;
    let mut simulations = 0u64;
    let mut simulated_rounds = 0u64;
    let mut cancelled = false;
    for wave in pending.chunks(wave_size) {
        if executed >= budget || cancelled {
            break;
        }
        let wave = &wave[..wave.len().min(budget - executed)];
        let mut wave_span = WAVE_SPAN.start();
        wave_span.arg("shards", wave.len() as f64);
        // Claim order: costliest shard first (stable, so ties keep wave
        // order). Results are put back in wave order below.
        let mut claim: Vec<usize> = (0..wave.len()).collect();
        claim.sort_by_key(|&k| std::cmp::Reverse(shard_agent_steps(&resolved.fused[wave[k]])));
        // Unused per-trial RNG (shards derive their own streams), but
        // run_trials_on is the workspace's deterministic pool fan-out.
        let seq = SeedSequence::new(resolved.seed);
        let cache = opts.cache.as_deref();
        let cache_verify = opts.cache_verify;
        let claimed = run_trials_on(pool, wave.len() as u64, workers, seq, |i, _| {
            let shard = wave[claim[i as usize]];
            match cache {
                Some(cache) => run_shard_cached(&resolved, shard, fuse, cache, cache_verify),
                None => Ok((
                    if fuse {
                        run_shard(&resolved, shard)
                    } else {
                        run_shard_unfused(&resolved, shard)
                    },
                    true,
                )),
            }
        });
        let mut results: Vec<_> = claim.into_iter().zip(claimed).collect();
        results.sort_unstable_by_key(|&(k, _)| k);
        for (&shard_idx, (_, result)) in wave.iter().zip(results) {
            let (cell_aggs, simulated) = result?;
            let shard = &resolved.fused[shard_idx];
            if simulated {
                if fuse {
                    simulations += resolved.trials;
                    simulated_rounds += shard.max_rounds() * resolved.trials;
                } else {
                    simulations += resolved.trials * shard.cells.len() as u64;
                    simulated_rounds += shard.unfused_rounds() * resolved.trials;
                }
            }
            progress_rounds += shard_rounds(shard);
            progress_agent_steps += shard_agent_steps(shard);
            // Observe before the aggregates are consumed by the merge;
            // once the observer cancels, the rest of the wave (already
            // computed) is still merged — work is never thrown away —
            // but no further observations are delivered.
            if !cancelled && !on_shard(&resolved, shard_idx, &cell_aggs) {
                cancelled = true;
            }
            for (cell_idx, agg) in cell_aggs {
                done.insert(cell_idx, agg);
            }
        }
        executed += wave.len();
        if let Some(path) = &opts.checkpoint {
            crate::checkpoint::save_shards(path, resolved.fingerprint, resolved.cells.len(), &done)
                .map_err(|e| format!("checkpoint write failed: {e}"))?;
        }
        drop(wave_span);
        if opts.progress {
            print_progress(
                &resolved.name,
                resumed + executed,
                total_shards,
                resumed,
                progress_rounds,
                pending_rounds,
                progress_agent_steps,
                started,
            );
        }
    }
    if opts.progress && executed > 0 {
        eprintln!();
    }

    // Housekeeping after publishing this run's shards: shrink the
    // cache to its cap, evicting least-recently-used entries first
    // (this run's hits and stores are the freshest).
    if let (Some(cache), Some(cap)) = (&opts.cache, opts.cache_cap) {
        cache.evict_to(cap);
    }

    let aggregates: Vec<Option<CellAggregate>> =
        (0..resolved.cells.len()).map(|i| done.remove(&i)).collect();
    let complete = aggregates.iter().all(Option::is_some);
    Ok(SweepOutcome {
        resolved,
        aggregates,
        complete,
        executed,
        resumed,
        simulations,
        simulated_rounds,
        workers_requested: workers,
        workers_effective,
    })
}

/// Loads resumable cell aggregates: the checkpoint's cell map when
/// `resume` is set and a checkpoint exists, empty otherwise. Shared by
/// the in-process runner and the distributed coordinator so both
/// reject a foreign checkpoint with the same errors.
///
/// # Errors
///
/// Returns checkpoint load/parse failures, a fingerprint mismatch
/// ("different sweep configuration"), or a cell-count mismatch.
pub(crate) fn load_resume(
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
pub(crate) fn partition_pending(
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

/// Renders the `--progress` stderr line after a wave: shard counts,
/// aggregate simulation throughput, and a rounds-weighted ETA over the
/// work still pending. Carriage-return updates in place on a TTY; in a
/// log file each wave is one line.
#[allow(clippy::too_many_arguments)]
fn print_progress(
    name: &str,
    done_shards: usize,
    total_shards: usize,
    resumed: usize,
    done_rounds: u64,
    pending_rounds: u64,
    agent_steps: u64,
    started: Instant,
) {
    let elapsed = started.elapsed().as_secs_f64().max(1e-9);
    let msteps = agent_steps as f64 / elapsed / 1e6;
    let eta = if done_rounds > 0 {
        let rate = done_rounds as f64 / elapsed;
        let remaining = pending_rounds.saturating_sub(done_rounds) as f64;
        format!("{:.0}s", remaining / rate)
    } else {
        "--".to_string()
    };
    let resumed_note = if resumed > 0 {
        format!(" ({resumed} resumed)")
    } else {
        String::new()
    };
    eprint!(
        "\rsweep {name}: shards {done_shards}/{total_shards}{resumed_note} | \
         {msteps:.1} Msteps/s | ETA {eta}   "
    );
    let _ = std::io::stderr().flush();
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
    fn no_fuse_runs_more_simulations_same_aggregates() {
        let spec = tiny_spec();
        let fused = run_sweep(&spec, &SweepOptions::default()).unwrap();
        let unfused = run_sweep(
            &spec,
            &SweepOptions {
                fuse: false,
                ..SweepOptions::default()
            },
        )
        .unwrap();
        assert_eq!(fused.aggregates, unfused.aggregates);
        assert_eq!(unfused.simulations, 4 * 2);
        assert_eq!(unfused.simulated_rounds, 2 * (8 + 16) * 2);
        assert!(unfused.simulated_rounds > fused.simulated_rounds);
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
