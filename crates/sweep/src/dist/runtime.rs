//! The real distributed driver: child processes over stdin/stdout
//! pipes or TCP peers, plus the worker side of the protocol.
//!
//! The driver owns all I/O and the wall clock; every policy decision
//! stays in the shared [`Coordinator`] state machine, which is also
//! what the deterministic simulator drives — so behavior proven there
//! (byte-identical merges, first-valid-result-wins, bounded respawn,
//! degradation) is the behavior here, modulo real-time jitter that the
//! merge path is immune to by construction.
//!
//! Wire fault injection in real mode: `kill:` entries are applied by
//! the workers themselves (the plan ships in `SPEC`), message entries
//! at the coordinator's receive path.

use super::coordinator::{Cmd, Coordinator, Event};
use super::fault::{Delivery, FaultFilter, FaultPlan};
use super::protocol::{read_frame, write_frame, Msg};
use super::{shard_blob_cached, BlobSink, DistOptions, DistStats, Transport};
use crate::cache::ShardCache;
use crate::runner::SweepError;
use crate::spec::{ResolvedSweep, SweepSpec};
use antdensity_telemetry as telemetry;
use std::collections::BTreeMap;
use std::io::{BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Exit status a worker uses when a `kill:` fault entry fires —
/// distinguishable from crashes in CI logs.
pub const KILLED_BY_PLAN_EXIT: i32 = 9;

enum Wire {
    Msg(u64, Msg),
    Bad(u64, String),
    Eof(u64),
    Conn(TcpStream),
}

struct Link {
    writer: Box<dyn Write + Send>,
    child: Option<Child>,
}

fn default_worker_argv(cache: Option<&ShardCache>) -> Result<Vec<String>, String> {
    let exe = std::env::current_exe()
        .map_err(|e| format!("cannot locate current executable for worker spawn: {e}"))?;
    let mut argv = vec![
        exe.to_string_lossy().into_owned(),
        "sweep-worker".into(),
        "--stdio".into(),
    ];
    // Spawned children inherit the coordinator's cache directory so
    // every worker (and the driver's in-process fallback) shares one
    // store. An explicit worker_argv is the caller's responsibility.
    if let Some(cache) = cache {
        argv.push("--cache".into());
        argv.push(cache.root().to_string_lossy().into_owned());
    }
    Ok(argv)
}

fn spawn_reader<R: std::io::Read + Send + 'static>(id: u64, r: R, tx: mpsc::Sender<Wire>) {
    std::thread::spawn(move || {
        let mut r = BufReader::new(r);
        loop {
            match read_frame(&mut r) {
                Ok(Some(msg)) => {
                    if tx.send(Wire::Msg(id, msg)).is_err() {
                        return;
                    }
                }
                Ok(None) => {
                    let _ = tx.send(Wire::Eof(id));
                    return;
                }
                Err(e) => {
                    // A real corrupted stream may never resync; report
                    // the frame error and treat the link as dead.
                    let _ = tx.send(Wire::Bad(id, e));
                    let _ = tx.send(Wire::Eof(id));
                    return;
                }
            }
        }
    });
}

/// Drives `pending` over child processes or TCP peers, feeding each
/// completed shard's blob through `sink` exactly once until every
/// shard is in, every worker slot is lost, or the sink breaks. Returns
/// the run's counters and the shards no worker finished.
pub(crate) fn run_real(
    resolved: &ResolvedSweep,
    pending: &[usize],
    cache: Option<&ShardCache>,
    dopts: &DistOptions,
    sink: &mut BlobSink<'_>,
) -> Result<(DistStats, Vec<u64>), SweepError> {
    let fail = SweepError::Failed;
    let spec_text = dopts.spec_text.clone().ok_or_else(|| {
        fail("distributed transports need the spec text (DistOptions::spec_text)".into())
    })?;
    let mut cfg = dopts.config.clone();
    cfg.can_respawn = matches!(dopts.transport, Transport::Children { .. });
    let plan_text = dopts.plan.to_text();
    let hb_ms = cfg.heartbeat_interval_ms;
    let quick = resolved.mode == "quick";
    let spec_msg = |worker: u64| Msg::Spec {
        worker,
        quick,
        hb_ms,
        plan: plan_text.clone(),
        spec: spec_text.clone(),
    };

    let shards: Vec<u64> = pending.iter().map(|&i| i as u64).collect();
    let mut coord = Coordinator::new(cfg.clone(), resolved.fingerprint, &shards);
    let start = Instant::now();
    let now_ms = move || start.elapsed().as_millis() as u64;
    let (tx, rx) = mpsc::channel::<Wire>();
    let mut links: BTreeMap<u64, Link> = BTreeMap::new();
    let mut filter = FaultFilter::new(&dopts.plan);
    let mut delayed: BTreeMap<(u64, u64), (u64, Msg)> = BTreeMap::new();
    let mut delayed_seq = 0u64;
    let mut respawn_at: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    let mut undone = Vec::new();
    let mut stopped = false;
    // A failed sink (checkpoint write, unparseable blob) stops the run
    // like a break, and is returned once the transport is torn down.
    let mut sink_error: Option<String> = None;
    let mut abort: Option<(u64, String)> = None;
    let hb_gap = telemetry::duration_histogram("sweep.dist.heartbeat_gap");
    let mut last_hb: BTreeMap<u64, Instant> = BTreeMap::new();

    let argv = match &dopts.worker_argv {
        Some(argv) if !argv.is_empty() => argv.clone(),
        _ => default_worker_argv(cache).map_err(fail)?,
    };
    let spawn_child =
        |id: u64, links: &mut BTreeMap<u64, Link>, tx: &mpsc::Sender<Wire>| -> Result<(), String> {
            let mut child = Command::new(&argv[0])
                .args(&argv[1..])
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit())
                .spawn()
                .map_err(|e| format!("spawn {} failed: {e}", argv[0]))?;
            let mut stdin = child.stdin.take().expect("piped stdin");
            let stdout = child.stdout.take().expect("piped stdout");
            write_frame(&mut stdin, &spec_msg(id)).map_err(|e| format!("SPEC send failed: {e}"))?;
            spawn_reader(id, stdout, tx.clone());
            links.insert(
                id,
                Link {
                    writer: Box::new(stdin),
                    child: Some(child),
                },
            );
            Ok(())
        };

    // Bring the transport up.
    let mut cmds: Vec<Cmd> = Vec::new();
    match &dopts.transport {
        Transport::Children { workers } => {
            for id in 0..*workers as u64 {
                match spawn_child(id, &mut links, &tx) {
                    Ok(()) => {
                        cmds.extend(coord.on_event(now_ms(), Event::Connected { worker: id }))
                    }
                    Err(e) => {
                        eprintln!("sweep-dist: {e}");
                        cmds.extend(coord.on_event(now_ms(), Event::SpawnFailed { worker: id }));
                    }
                }
            }
        }
        Transport::Listen { addr } => {
            let listener = TcpListener::bind(addr)
                .map_err(|e| fail(format!("cannot listen on {addr}: {e}")))?;
            let acceptor_tx = tx.clone();
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    let Ok(stream) = stream else { continue };
                    if acceptor_tx.send(Wire::Conn(stream)).is_err() {
                        return; // run over; listener drops, port freed
                    }
                }
            });
        }
        Transport::Sim { .. } => {
            return Err(fail(
                "Transport::Sim is driven by dist::sim, not the real runtime".into(),
            ))
        }
    }
    let mut next_peer_id = 0u64;

    loop {
        // Execute pending commands before waiting.
        for cmd in std::mem::take(&mut cmds) {
            match cmd {
                Cmd::SendLease {
                    worker,
                    lease,
                    shard,
                } => {
                    if let Some(link) = links.get_mut(&worker) {
                        let _ = write_frame(&mut link.writer, &Msg::Lease { lease, shard });
                    }
                }
                Cmd::SendShutdown { worker } => {
                    if let Some(link) = links.get_mut(&worker) {
                        let _ = write_frame(&mut link.writer, &Msg::Shutdown);
                    }
                }
                Cmd::Respawn { worker, at_ms } => {
                    respawn_at.entry(at_ms).or_default().push(worker);
                }
                Cmd::Completed { shard, blob } => match sink(shard, &blob) {
                    Ok(flow) if flow.is_continue() => {}
                    result => {
                        sink_error = result.err();
                        stopped = true;
                        break;
                    }
                },
                Cmd::Degrade { shards } => undone = shards,
                Cmd::Abort { shard, report } => abort = Some((shard, report)),
                Cmd::AllDone => {}
            }
        }
        if stopped || coord.finished().is_some() {
            break;
        }

        // Wait until the next timer or message, whichever is first.
        let now = now_ms();
        let mut deadline = now + 100;
        if let Some(d) = coord.next_deadline() {
            deadline = deadline.min(d.max(now + 1));
        }
        if let Some((&at, _)) = respawn_at.iter().next() {
            deadline = deadline.min(at.max(now + 1));
        }
        if let Some((&(at, _), _)) = delayed.iter().next() {
            deadline = deadline.min(at.max(now + 1));
        }
        let wait = Duration::from_millis(deadline.saturating_sub(now).clamp(1, 200));
        match rx.recv_timeout(wait) {
            Ok(Wire::Msg(id, msg)) => {
                let now = now_ms();
                for d in filter.apply(msg) {
                    match d {
                        Delivery::Now(m) => {
                            cmds.extend(deliver(&mut coord, now, id, m, &hb_gap, &mut last_hb));
                        }
                        Delivery::Corrupt => cmds.extend(coord.on_event(
                            now,
                            Event::BadFrame {
                                worker: id,
                                error: "frame checksum mismatch (injected)".into(),
                            },
                        )),
                        Delivery::After(ms, m) => {
                            delayed_seq += 1;
                            delayed.insert((now + ms, delayed_seq), (id, m));
                        }
                    }
                }
            }
            Ok(Wire::Bad(id, e)) => {
                cmds.extend(coord.on_event(
                    now_ms(),
                    Event::BadFrame {
                        worker: id,
                        error: e,
                    },
                ));
            }
            Ok(Wire::Eof(id)) => {
                if let Some(mut link) = links.remove(&id) {
                    if let Some(mut child) = link.child.take() {
                        let _ = child.wait();
                    }
                }
                cmds.extend(coord.on_event(now_ms(), Event::Died { worker: id }));
            }
            Ok(Wire::Conn(stream)) => {
                let id = next_peer_id;
                next_peer_id += 1;
                let _ = stream.set_nodelay(true);
                if let Ok(read_half) = stream.try_clone() {
                    let mut writer: Box<dyn Write + Send> = Box::new(stream);
                    if write_frame(&mut writer, &spec_msg(id)).is_ok() {
                        spawn_reader(id, read_half, tx.clone());
                        links.insert(
                            id,
                            Link {
                                writer,
                                child: None,
                            },
                        );
                        cmds.extend(coord.on_event(now_ms(), Event::Connected { worker: id }));
                    }
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                // All senders gone (should not happen: we hold `tx`).
                break;
            }
        }

        // Fire due respawns and delayed deliveries, then tick.
        let now = now_ms();
        let due: Vec<u64> = respawn_at.range(..=now).map(|(&at, _)| at).collect();
        for at in due {
            for worker in respawn_at.remove(&at).unwrap_or_default() {
                match spawn_child(worker, &mut links, &tx) {
                    Ok(()) => {
                        cmds.extend(coord.on_event(now, Event::Connected { worker }));
                    }
                    Err(e) => {
                        eprintln!("sweep-dist: respawn w{worker}: {e}");
                        cmds.extend(coord.on_event(now, Event::SpawnFailed { worker }));
                    }
                }
            }
        }
        let due: Vec<(u64, u64)> = delayed.range(..=(now, u64::MAX)).map(|(&k, _)| k).collect();
        for key in due {
            if let Some((id, m)) = delayed.remove(&key) {
                cmds.extend(deliver(&mut coord, now, id, m, &hb_gap, &mut last_hb));
            }
        }
        cmds.extend(coord.on_event(now_ms(), Event::Tick));
    }

    // Tear the transport down: shutdown frames, closed stdins, and a
    // hard kill for any child that ignores both.
    for (_, link) in links.iter_mut() {
        let _ = write_frame(&mut link.writer, &Msg::Shutdown);
    }
    for (_, mut link) in std::mem::take(&mut links) {
        drop(link.writer);
        if let Some(mut child) = link.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
    drop(tx);

    if let Some(e) = sink_error {
        return Err(e.into());
    }
    if let Some((shard, report)) = abort {
        return Err(SweepError::Mismatch { shard, report });
    }
    let mut stats = coord.stats.clone();
    stats.degraded = undone.len() as u64;
    Ok((stats, undone))
}

/// Maps one delivered message to a coordinator event, recording
/// heartbeat-gap telemetry on the way.
fn deliver(
    coord: &mut Coordinator,
    now: u64,
    id: u64,
    msg: Msg,
    hb_gap: &telemetry::registry::DurationHistogram,
    last_hb: &mut BTreeMap<u64, Instant>,
) -> Vec<Cmd> {
    let event = match msg {
        Msg::Hello {
            worker,
            fingerprint,
        } => Event::Hello {
            worker,
            fingerprint,
        },
        Msg::Result { lease, shard, blob } => {
            last_hb.remove(&lease);
            Event::Result {
                worker: id,
                lease,
                shard,
                blob,
            }
        }
        Msg::Heartbeat { worker, lease } => {
            if telemetry::enabled() {
                let at = Instant::now();
                if let Some(prev) = last_hb.insert(lease, at) {
                    hb_gap.record_ns(at.duration_since(prev).as_nanos() as u64);
                }
            }
            Event::Heartbeat { worker, lease }
        }
        Msg::Nack { lease, reason } => Event::Nack {
            worker: id,
            lease,
            reason,
        },
        // SPEC/LEASE/SHUTDOWN never flow worker → coordinator.
        _ => {
            return coord.on_event(
                now,
                Event::BadFrame {
                    worker: id,
                    error: "unexpected coordinator-bound verb".into(),
                },
            )
        }
    };
    coord.on_event(now, event)
}

/// The worker side of the protocol, generic over the transport.
/// Reads `SPEC`, answers `HELLO`, then serves leases until `SHUTDOWN`
/// or EOF; heartbeats ride a helper thread while a shard computes.
/// With a `cache`, each lease consults the worker-local store before
/// stepping — a verified hit is returned as the result blob without
/// simulating (the bytes are identical either way, so the coordinator's
/// first-valid-wins and mismatch-abort logic are untouched).
///
/// # Errors
///
/// Returns protocol violations and I/O failures as displayable
/// messages; a scripted `kill:` fault exits the process with
/// [`KILLED_BY_PLAN_EXIT`] instead of returning.
pub fn worker_loop<R: std::io::BufRead>(
    mut r: R,
    w: Arc<Mutex<Box<dyn Write + Send>>>,
    cache: Option<&ShardCache>,
) -> Result<(), String> {
    let first = read_frame(&mut r)?.ok_or("connection closed before SPEC")?;
    let Msg::Spec {
        worker,
        quick,
        hb_ms,
        plan,
        spec,
    } = first
    else {
        return Err(format!("expected SPEC, got {}", first_verb(&first)));
    };
    let plan = FaultPlan::parse(&plan)?;
    let resolved = SweepSpec::parse(&spec)?.resolve(quick)?;
    send(
        &w,
        &Msg::Hello {
            worker,
            fingerprint: resolved.fingerprint,
        },
    )?;
    let mut ordinal = 0u64;
    loop {
        match read_frame(&mut r) {
            Ok(None) | Ok(Some(Msg::Shutdown)) => return Ok(()),
            Ok(Some(Msg::Lease { lease, shard })) => {
                ordinal += 1;
                if plan.kills(worker, lease, ordinal) {
                    // Scripted abrupt death: no shutdown handshake, no
                    // flush — the coordinator sees EOF.
                    std::process::exit(KILLED_BY_PLAN_EXIT);
                }
                if shard as usize >= resolved.fused.len() {
                    send(
                        &w,
                        &Msg::Nack {
                            lease,
                            reason: format!(
                                "shard {shard} out of range ({} fused shards)",
                                resolved.fused.len()
                            ),
                        },
                    )?;
                    continue;
                }
                let blob =
                    compute_with_heartbeats(&w, &resolved, worker, lease, shard, hb_ms, cache);
                send(&w, &Msg::Result { lease, shard, blob })?;
            }
            Ok(Some(other)) => return Err(format!("unexpected {} frame", first_verb(&other))),
            Err(e) => return Err(e),
        }
    }
}

fn first_verb(msg: &Msg) -> &'static str {
    msg.verb().name()
}

fn send(w: &Arc<Mutex<Box<dyn Write + Send>>>, msg: &Msg) -> Result<(), String> {
    let mut guard = w.lock().map_err(|_| "writer poisoned".to_string())?;
    write_frame(&mut *guard, msg).map_err(|e| format!("send failed: {e}"))
}

fn compute_with_heartbeats(
    w: &Arc<Mutex<Box<dyn Write + Send>>>,
    resolved: &ResolvedSweep,
    worker: u64,
    lease: u64,
    shard: u64,
    hb_ms: u64,
    cache: Option<&ShardCache>,
) -> String {
    let stop = Arc::new(AtomicBool::new(false));
    let pump = {
        let w = Arc::clone(w);
        let stop = Arc::clone(&stop);
        let every = Duration::from_millis(hb_ms.max(10));
        std::thread::spawn(move || {
            let mut since_beat = Duration::ZERO;
            let step = Duration::from_millis(10);
            loop {
                std::thread::sleep(step);
                if stop.load(Ordering::Relaxed) {
                    return;
                }
                since_beat += step;
                if since_beat >= every {
                    since_beat = Duration::ZERO;
                    if send(&w, &Msg::Heartbeat { worker, lease }).is_err() {
                        return; // coordinator gone; computation finishes anyway
                    }
                }
            }
        })
    };
    let blob = shard_blob_cached(resolved, shard as usize, cache);
    stop.store(true, Ordering::Relaxed);
    let _ = pump.join();
    blob
}

/// Runs a worker speaking frames on stdin/stdout — the child half of
/// `repro sweep … --serve-shards` (`repro sweep-worker --stdio`).
/// Anything the worker wants to say to a human goes to stderr; stdout
/// carries only frames. `cache` is the worker-local shard result
/// store (`repro sweep-worker --cache DIR`; forwarded automatically to
/// spawned children when the coordinator runs with `--cache`).
///
/// # Errors
///
/// Returns protocol violations and I/O failures as displayable
/// messages.
pub fn run_worker_stdio(cache: Option<&ShardCache>) -> Result<(), String> {
    let stdin = std::io::stdin();
    let writer: Arc<Mutex<Box<dyn Write + Send>>> =
        Arc::new(Mutex::new(Box::new(std::io::stdout())));
    worker_loop(BufReader::new(stdin.lock()), writer, cache)
}

/// Runs a worker that dials a listening coordinator — the peer half of
/// `repro sweep … --listen ADDR` (`repro sweep-worker --connect ADDR`).
/// `cache` as in [`run_worker_stdio`].
///
/// # Errors
///
/// Returns connection failures, protocol violations, and I/O failures
/// as displayable messages.
pub fn run_worker_connect(addr: &str, cache: Option<&ShardCache>) -> Result<(), String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let _ = stream.set_nodelay(true);
    let read_half = stream
        .try_clone()
        .map_err(|e| format!("cannot clone stream: {e}"))?;
    let writer: Arc<Mutex<Box<dyn Write + Send>>> = Arc::new(Mutex::new(Box::new(stream)));
    worker_loop(BufReader::new(read_half), writer, cache)
}
