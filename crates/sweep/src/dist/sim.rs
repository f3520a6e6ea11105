//! Deterministic discrete-event simulator for the distributed runtime.
//!
//! The property suite's workhorse: virtual workers execute *real*
//! shards ([`crate::run_shard`]) under a virtual millisecond clock, so
//! an entire kill/partition/straggler schedule — leases, heartbeats,
//! expiries, respawns, degradation — replays identically on every run
//! with zero wall-clock dependence. Message faults pass through one
//! [`FaultFilter`]; `kill:` entries fire when a virtual worker receives
//! the matching lease. The coordinator under test is the very same
//! [`Coordinator`] the process/TCP runtime drives.
//!
//! Fixed model parameters: every message takes 1 virtual ms per hop,
//! a shard computes for 500 virtual ms, and the coordinator ticks
//! every 100 virtual ms.

use super::coordinator::{Cmd, Coordinator, DistConfig, Event};
use super::fault::{Delivery, FaultFilter, FaultPlan};
use super::protocol::Msg;
use super::{shard_blob_cached, BlobSink, DistStats};
use crate::cache::ShardCache;
use crate::runner::SweepError;
use crate::spec::ResolvedSweep;
use std::collections::BTreeMap;

/// Virtual milliseconds one shard computes for.
const COMPUTE_MS: u64 = 500;
/// Virtual coordinator tick period.
const TICK_MS: u64 = 100;
/// Virtual per-hop message latency.
const HOP_MS: u64 = 1;
/// Stall guard: a schedule that runs past this much virtual time is a
/// bug, not a slow run.
const MAX_VIRTUAL_MS: u64 = 100_000_000;

#[derive(Debug)]
enum SimEv {
    /// (Re)spawn virtual worker `w` and have it say HELLO.
    Spawn(u64),
    /// Deliver a coordinator→worker message.
    WorkerRx(u64, Msg),
    /// Deliver a worker→coordinator message.
    CoordRx(u64, Msg),
    /// A corrupted frame arrives at the coordinator from `w`.
    CoordBad(u64),
    /// The coordinator notices worker `w`'s transport died.
    CoordDied(u64),
    /// Worker `w` finishes computing `(lease, shard)`.
    Finish(u64, u64, u64),
    /// Worker `w` heartbeats for `lease` (self-rescheduling).
    Beat(u64, u64),
    /// Coordinator timer.
    Tick,
}

#[derive(Debug, Clone)]
struct SimWorker {
    alive: bool,
    computing: Option<(u64, u64)>, // (lease, shard)
    /// Per-process lease ordinal (resets on respawn, like a real
    /// worker process).
    ordinal: u64,
}

/// What a simulated run produced besides the merged blobs (which went
/// through the caller's sink).
#[derive(Debug, Clone)]
pub struct SimOutcome {
    /// The coordinator's deterministic event log.
    pub log: Vec<String>,
    /// Run counters (including shards handed back as `undone`).
    pub stats: DistStats,
    /// Shards no virtual worker finished because every slot was lost;
    /// the caller runs them in-process.
    pub undone: Vec<u64>,
}

#[derive(Debug, Default)]
struct EventQueue {
    q: BTreeMap<(u64, u64), SimEv>,
    seq: u64,
}

impl EventQueue {
    fn push(&mut self, at: u64, ev: SimEv) {
        self.seq += 1;
        self.q.insert((at, self.seq), ev);
    }
    fn pop(&mut self) -> Option<(u64, SimEv)> {
        let (&key, _) = self.q.iter().next()?;
        let ev = self.q.remove(&key).expect("key just observed");
        Some((key.0, ev))
    }
}

/// Runs `pending` (fused-shard indices) under the given worker count,
/// fault plan, and timing config, feeding each shard's blob through
/// `sink` exactly once, in completion order, until every shard is in,
/// every worker slot is lost, or the sink breaks. Virtual workers
/// share `cache`, as spawned children share the coordinator's.
///
/// # Errors
///
/// [`SweepError::Mismatch`] when a duplicate result disagrees
/// byte-for-byte; [`SweepError::Failed`] for sink failures or a
/// stalled schedule.
pub fn run_sim(
    resolved: &ResolvedSweep,
    pending: &[usize],
    workers: usize,
    plan: &FaultPlan,
    cfg: &DistConfig,
    cache: Option<&ShardCache>,
    sink: &mut BlobSink<'_>,
) -> Result<SimOutcome, SweepError> {
    let shards: Vec<u64> = pending.iter().map(|&i| i as u64).collect();
    let mut coord = Coordinator::new(cfg.clone(), resolved.fingerprint, &shards);
    let hb_every = cfg.heartbeat_interval_ms.max(1);
    let mut filter = FaultFilter::new(plan);
    let mut q = EventQueue::default();
    let mut sim_workers: Vec<SimWorker> = vec![
        SimWorker {
            alive: false,
            computing: None,
            ordinal: 0
        };
        workers
    ];
    let mut blob_cache: BTreeMap<u64, String> = BTreeMap::new();
    let mut blob_for = |shard: u64| -> String {
        blob_cache
            .entry(shard)
            .or_insert_with(|| shard_blob_cached(resolved, shard as usize, cache))
            .clone()
    };
    let mut undone = Vec::new();

    for w in 0..workers as u64 {
        q.push(0, SimEv::Spawn(w));
    }
    q.push(0, SimEv::Tick);

    'run: while let Some((t, ev)) = q.pop() {
        if t > MAX_VIRTUAL_MS {
            return Err(SweepError::Failed(
                "simulated schedule stalled (virtual-time guard tripped)".into(),
            ));
        }
        let mut cmds = Vec::new();
        match ev {
            SimEv::Spawn(w) => {
                sim_workers[w as usize] = SimWorker {
                    alive: true,
                    computing: None,
                    ordinal: 0,
                };
                cmds.extend(coord.on_event(t, Event::Connected { worker: w }));
                let hello = Msg::Hello {
                    worker: w,
                    fingerprint: resolved.fingerprint,
                };
                for d in filter.apply(hello) {
                    deliver_to_coord(&mut q, t, w, d);
                }
            }
            SimEv::WorkerRx(w, msg) => {
                let wk = &mut sim_workers[w as usize];
                if wk.alive {
                    match msg {
                        Msg::Lease { lease, shard } => {
                            wk.ordinal += 1;
                            if plan.kills(w, lease, wk.ordinal) {
                                wk.alive = false;
                                wk.computing = None;
                                q.push(t + HOP_MS, SimEv::CoordDied(w));
                            } else {
                                wk.computing = Some((lease, shard));
                                q.push(t + COMPUTE_MS, SimEv::Finish(w, lease, shard));
                                q.push(t + hb_every, SimEv::Beat(w, lease));
                            }
                        }
                        Msg::Shutdown => {
                            wk.alive = false;
                            wk.computing = None;
                        }
                        _ => {}
                    }
                }
            }
            SimEv::Finish(w, lease, shard) => {
                let wk = &mut sim_workers[w as usize];
                if wk.alive && wk.computing == Some((lease, shard)) {
                    wk.computing = None;
                    let blob = blob_for(shard);
                    let msg = Msg::Result { lease, shard, blob };
                    for d in filter.apply(msg) {
                        deliver_to_coord(&mut q, t, w, d);
                    }
                }
            }
            SimEv::Beat(w, lease) => {
                let wk = &sim_workers[w as usize];
                if wk.alive && wk.computing.map(|(l, _)| l) == Some(lease) {
                    let msg = Msg::Heartbeat { worker: w, lease };
                    for d in filter.apply(msg) {
                        deliver_to_coord(&mut q, t, w, d);
                    }
                    q.push(t + hb_every, SimEv::Beat(w, lease));
                }
            }
            SimEv::CoordRx(w, msg) => {
                let event = match msg {
                    Msg::Hello {
                        worker,
                        fingerprint,
                    } => Event::Hello {
                        worker,
                        fingerprint,
                    },
                    Msg::Result { lease, shard, blob } => Event::Result {
                        worker: w,
                        lease,
                        shard,
                        blob,
                    },
                    Msg::Heartbeat { worker, lease } => Event::Heartbeat { worker, lease },
                    Msg::Nack { lease, reason } => Event::Nack {
                        worker: w,
                        lease,
                        reason,
                    },
                    _ => continue,
                };
                cmds.extend(coord.on_event(t, event));
            }
            SimEv::CoordBad(w) => {
                cmds.extend(coord.on_event(
                    t,
                    Event::BadFrame {
                        worker: w,
                        error: "frame checksum mismatch (injected)".into(),
                    },
                ));
            }
            SimEv::CoordDied(w) => {
                cmds.extend(coord.on_event(t, Event::Died { worker: w }));
            }
            SimEv::Tick => {
                cmds.extend(coord.on_event(t, Event::Tick));
                if coord.finished().is_none() {
                    q.push(t + TICK_MS, SimEv::Tick);
                }
            }
        }
        for cmd in cmds {
            match cmd {
                Cmd::SendLease {
                    worker,
                    lease,
                    shard,
                } => {
                    for d in filter.apply(Msg::Lease { lease, shard }) {
                        deliver_to_worker(&mut q, t, worker, d);
                    }
                }
                Cmd::SendShutdown { worker } => {
                    q.push(t + HOP_MS, SimEv::WorkerRx(worker, Msg::Shutdown));
                }
                Cmd::Respawn { worker, at_ms } => {
                    q.push(at_ms.max(t + 1), SimEv::Spawn(worker));
                }
                Cmd::Completed { shard, blob } => {
                    if sink(shard, &blob)?.is_break() {
                        break 'run;
                    }
                }
                Cmd::Degrade { shards } => undone = shards,
                Cmd::Abort { shard, report } => {
                    return Err(SweepError::Mismatch { shard, report });
                }
                Cmd::AllDone => {}
            }
        }
        if coord.finished().is_some() {
            break;
        }
    }

    let mut stats = coord.stats.clone();
    stats.degraded = undone.len() as u64;
    Ok(SimOutcome {
        log: coord.log.clone(),
        stats,
        undone,
    })
}

fn deliver_to_coord(q: &mut EventQueue, t: u64, w: u64, d: Delivery) {
    match d {
        Delivery::Now(msg) => q.push(t + HOP_MS, SimEv::CoordRx(w, msg)),
        Delivery::Corrupt => q.push(t + HOP_MS, SimEv::CoordBad(w)),
        Delivery::After(ms, msg) => q.push(t + HOP_MS + ms, SimEv::CoordRx(w, msg)),
    }
}

fn deliver_to_worker(q: &mut EventQueue, t: u64, w: u64, d: Delivery) {
    match d {
        Delivery::Now(msg) => q.push(t + HOP_MS, SimEv::WorkerRx(w, msg)),
        // A worker receiving an undecodable frame ignores it; the
        // lease recovers via coordinator-side expiry.
        Delivery::Corrupt => {}
        Delivery::After(ms, msg) => q.push(t + HOP_MS + ms, SimEv::WorkerRx(w, msg)),
    }
}
