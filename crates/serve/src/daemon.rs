//! The daemon: connection handling, admission control, job registry,
//! and executor threads.
//!
//! ## Job lifecycle
//!
//! ```text
//!          submit                pop            terminal
//! (wire) ─────────▶ Queued ─────────▶ Running ─────────▶ Done
//!                     │                  │          ╲───▶ Failed
//!                     │ cancel           │ cancel   ╲───▶ Cancelled
//!                     ▼                  ▼
//!                 Cancelled     (flag polled between
//!                (immediate)     shards → Cancelled)
//! ```
//!
//! Admission happens entirely at submit time: the spec is parsed and
//! resolved ([`antdensity_sweep::SweepJob::validate`]) and the bounded queue is checked
//! under one lock, so a job that gets an `accepted` event will run —
//! the only later failures are runner I/O. Rejected submits carry the
//! exact error text the CLI would print for the same spec.
//!
//! ## Determinism
//!
//! Executors share the process-global worker pool, and any number of
//! them may interleave: each shard of each job derives its RNG streams
//! from the job's own resolved spec, so concurrent jobs cannot perturb
//! one another's bytes. The terminal `done` event carries the full
//! report JSON/CSV — byte-identical to what `repro sweep` writes for
//! the equivalent spec — which is what the service property suite and
//! the CI smoke job `cmp` against sequential runs.

use std::collections::{BTreeMap, VecDeque};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread;

use antdensity_sweep::runner::SweepOptions;
use antdensity_sweep::{build_report, build_row, run_resolved, ValidatedJob};
use antdensity_telemetry::registry::LazyCounter;
use antdensity_telemetry::span::SpanMetric;

use crate::request::{Event, Request, Submit, PROTOCOL};
use antdensity_telemetry::Json;

static JOBS_SUBMITTED: LazyCounter = LazyCounter::new("serve.jobs_submitted");
static JOBS_REJECTED: LazyCounter = LazyCounter::new("serve.jobs_rejected");
static JOBS_COMPLETED: LazyCounter = LazyCounter::new("serve.jobs_completed");
static JOBS_FAILED: LazyCounter = LazyCounter::new("serve.jobs_failed");
static JOBS_CANCELLED: LazyCounter = LazyCounter::new("serve.jobs_cancelled");
static ROWS_STREAMED: LazyCounter = LazyCounter::new("serve.rows_streamed");
static JOB_SPAN: SpanMetric = SpanMetric::new("serve.job");

/// Daemon tuning knobs. Everything here is wall-clock / capacity
/// policy; none of it can change result bytes.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Maximum jobs waiting in the queue; submits beyond this are
    /// rejected (admission control), never silently dropped.
    pub max_queue: usize,
    /// Executor threads — jobs running concurrently. They share the
    /// process-global worker pool.
    pub executors: usize,
    /// Worker threads each job asks the shared pool for. The sweep
    /// driver runs at least one, so `0` (the default) runs each job's
    /// shards one at a time.
    pub job_workers: usize,
    /// Shard result cache shared by every executor (`repro serve
    /// --cache DIR`): repeated or grid-overlapping client specs hit
    /// instead of recomputing. Can never change result bytes — cached
    /// blobs are verified and fall back to recompute.
    pub cache: Option<Arc<antdensity_sweep::ShardCache>>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            max_queue: 64,
            executors: 2,
            job_workers: 0, // runs as 1: shards one at a time
            cache: None,
        }
    }
}

/// A job's position in the lifecycle state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JobState {
    Queued,
    Running,
    Done,
    Failed,
    Cancelled,
}

impl JobState {
    fn name(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }
}

/// The registry keeps at most this many jobs in a terminal state; past
/// it the oldest terminal job is retired (its id then reads `unknown
/// job`), so a long-lived daemon's memory does not grow with the jobs
/// it has served.
const MAX_TERMINAL_JOBS: usize = 1024;

/// Registry entry for one admitted job.
#[derive(Debug)]
struct JobEntry {
    /// The submitted spec's resolved plan, until an executor takes it
    /// to run; a terminal job holds none.
    work: Option<ValidatedJob>,
    state: JobState,
    /// Polled by the runner between shards; set by `cancel`.
    cancel: Arc<AtomicBool>,
    /// Rows streamed so far.
    rows: u64,
    /// Shards completed so far.
    shards_done: usize,
    /// Total shards in the plan.
    shards: usize,
    /// The submitting connection's writer; dropped at terminal state
    /// so writer threads shut down once their jobs finish. A closed
    /// connection makes sends fail silently — the job still runs.
    outbox: Option<mpsc::Sender<String>>,
}

/// Mutable daemon state, under one mutex.
#[derive(Debug, Default)]
struct Registry {
    next_id: u64,
    accepting: bool,
    queue: VecDeque<u64>,
    jobs: BTreeMap<u64, JobEntry>,
    /// Ids of the jobs in `jobs` that reached a terminal state, oldest
    /// first.
    terminal: VecDeque<u64>,
    /// Jobs retired from `jobs`, counted by their final state, so the
    /// `metrics` per-state counts stay cumulative.
    retired: [u64; 5],
    running: usize,
    queue_peak: usize,
}

impl Registry {
    /// Moves job `id` to the terminal `state`: drops its spec, plan and
    /// outbox, then retires the oldest terminal jobs past
    /// [`MAX_TERMINAL_JOBS`].
    fn finish(&mut self, id: u64, state: JobState) {
        let Some(entry) = self.jobs.get_mut(&id) else {
            return;
        };
        entry.state = state;
        entry.work = None;
        entry.outbox = None;
        self.terminal.push_back(id);
        while self.terminal.len() > MAX_TERMINAL_JOBS {
            let old = self.terminal.pop_front().expect("over the cap");
            if let Some(e) = self.jobs.remove(&old) {
                self.retired[e.state as usize] += 1;
            }
        }
    }

    /// Jobs ever admitted, by state (indexed by `JobState as usize`),
    /// retired ones included.
    fn jobs_by_state(&self) -> [u64; 5] {
        let mut by_state = self.retired;
        for e in self.jobs.values() {
            by_state[e.state as usize] += 1;
        }
        by_state
    }
}

/// Shared between the acceptor, connection threads, and executors.
#[derive(Debug)]
struct ServerState {
    cfg: ServeConfig,
    inner: Mutex<Registry>,
    work: Condvar,
    shutdown: AtomicBool,
    /// Bound address, used to self-connect and wake the acceptor on
    /// shutdown; `None` in stdio mode.
    local_addr: Option<SocketAddr>,
}

/// A running daemon bound to a TCP address.
///
/// Dropping the handle does *not* stop the daemon; call
/// [`Server::shutdown`] (or have a client send the `shutdown` op) and
/// then [`Server::wait`].
#[derive(Debug)]
pub struct Server {
    state: Arc<ServerState>,
    addr: SocketAddr,
    threads: Vec<thread::JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:4710`, port `0` for ephemeral)
    /// and spawns the acceptor and executor threads.
    ///
    /// # Errors
    ///
    /// Bind failures, as displayable text.
    pub fn bind(addr: &str, cfg: ServeConfig) -> Result<Server, String> {
        let listener = TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
        let local = listener
            .local_addr()
            .map_err(|e| format!("local_addr: {e}"))?;
        let state = Arc::new(ServerState {
            cfg,
            inner: Mutex::new(Registry {
                accepting: true,
                ..Registry::default()
            }),
            work: Condvar::new(),
            shutdown: AtomicBool::new(false),
            local_addr: Some(local),
        });
        let mut threads = Vec::new();
        for _ in 0..state.cfg.executors.max(1) {
            let st = Arc::clone(&state);
            threads.push(thread::spawn(move || executor_loop(&st)));
        }
        {
            let st = Arc::clone(&state);
            threads.push(thread::spawn(move || acceptor_loop(&st, &listener)));
        }
        Ok(Server {
            state,
            addr: local,
            threads,
        })
    }

    /// The bound address (resolves port `0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Begins a graceful shutdown: new submits are rejected, the queue
    /// drains, running jobs finish.
    pub fn shutdown(&self) {
        begin_shutdown(&self.state);
    }

    /// Blocks until every daemon thread has exited (i.e. after a
    /// shutdown has drained the queue).
    pub fn wait(self) {
        for t in self.threads {
            let _ = t.join();
        }
    }
}

/// Serves a single session over stdin/stdout — `repro serve --stdio`.
/// Returns once the client sends `shutdown` or closes stdin, after
/// running jobs drain.
///
/// # Errors
///
/// Propagates stdin read failures; a closed stdout just ends the
/// session.
pub fn run_stdio(cfg: ServeConfig) -> Result<(), String> {
    let state = Arc::new(ServerState {
        cfg,
        inner: Mutex::new(Registry {
            accepting: true,
            ..Registry::default()
        }),
        work: Condvar::new(),
        shutdown: AtomicBool::new(false),
        local_addr: None,
    });
    let mut executors = Vec::new();
    for _ in 0..state.cfg.executors.max(1) {
        let st = Arc::clone(&state);
        executors.push(thread::spawn(move || executor_loop(&st)));
    }
    let (tx, rx) = mpsc::channel::<String>();
    let writer = thread::spawn(move || {
        let stdout = std::io::stdout();
        for line in rx {
            let mut out = stdout.lock();
            if writeln!(out, "{line}").and_then(|()| out.flush()).is_err() {
                break;
            }
        }
    });
    let _ = tx.send(
        Event::Hello {
            protocol: PROTOCOL.to_string(),
        }
        .to_line(),
    );
    let result = serve_lines(&state, io::stdin().lock(), &tx).map_err(|e| format!("stdin: {e}"));
    begin_shutdown(&state);
    for t in executors {
        let _ = t.join();
    }
    drop(tx);
    let _ = writer.join();
    result
}

fn begin_shutdown(state: &Arc<ServerState>) {
    {
        let mut reg = state.inner.lock().expect("serve registry poisoned");
        reg.accepting = false;
    }
    state.shutdown.store(true, Ordering::SeqCst);
    state.work.notify_all();
    // Wake the acceptor out of its blocking accept.
    if let Some(addr) = state.local_addr {
        let _ = TcpStream::connect(addr);
    }
}

fn acceptor_loop(state: &Arc<ServerState>, listener: &TcpListener) {
    for stream in listener.incoming() {
        if state.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let st = Arc::clone(state);
        thread::spawn(move || handle_conn(&st, stream));
    }
}

fn handle_conn(state: &Arc<ServerState>, stream: TcpStream) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let (tx, rx) = mpsc::channel::<String>();
    let writer = thread::spawn(move || {
        let mut out = write_half;
        for line in rx {
            if out
                .write_all(line.as_bytes())
                .and_then(|()| out.write_all(b"\n"))
                .is_err()
            {
                break;
            }
        }
    });
    let _ = tx.send(
        Event::Hello {
            protocol: PROTOCOL.to_string(),
        }
        .to_line(),
    );
    // A read error ends the connection like EOF does.
    let _ = serve_lines(state, BufReader::new(stream), &tx);
    // The writer drains until every sender is gone: this connection's
    // handle (now) plus any outbox clone held by a still-running job
    // (dropped at its terminal event).
    drop(tx);
    let _ = writer.join();
}

/// Longest request line the daemon reads, in bytes. The largest spec in
/// `specs/` submits as a line of about 1.5 KB; a longer line gets an
/// `error` event, and the rest of it is skipped without being buffered.
const MAX_LINE_BYTES: usize = 1 << 20;

/// The session read loop shared by stdio and TCP: answers each request
/// line of `reader` on `tx` until EOF or a `shutdown` request.
///
/// # Errors
///
/// Read failures, and a line that is not UTF-8.
fn serve_lines<R: BufRead>(
    state: &Arc<ServerState>,
    mut reader: R,
    tx: &mpsc::Sender<String>,
) -> io::Result<()> {
    let mut buf = Vec::new();
    loop {
        buf.clear();
        let n = (&mut reader)
            .take(MAX_LINE_BYTES as u64 + 1)
            .read_until(b'\n', &mut buf)?;
        if n == 0 {
            return Ok(());
        }
        let reply = if n > MAX_LINE_BYTES && buf.last() != Some(&b'\n') {
            skip_line(&mut reader)?;
            Some(Event::Error {
                reason: format!("request line exceeds the {MAX_LINE_BYTES}-byte limit"),
            })
        } else {
            let line = std::str::from_utf8(&buf)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
            let line = line.strip_suffix('\n').unwrap_or(line);
            let line = line.strip_suffix('\r').unwrap_or(line);
            if line.trim().is_empty() {
                continue;
            }
            handle_line(state, line, tx)
        };
        let stop = matches!(reply, Some(Event::Bye));
        if let Some(reply) = reply {
            let _ = tx.send(reply.to_line());
        }
        if stop {
            return Ok(());
        }
    }
}

/// Consumes `reader` through the next newline (or to EOF), one buffered
/// chunk at a time.
fn skip_line<R: BufRead>(reader: &mut R) -> io::Result<()> {
    loop {
        let chunk = match reader.fill_buf() {
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            chunk => chunk?,
        };
        let (used, done) = match chunk.iter().position(|&b| b == b'\n') {
            Some(i) => (i + 1, true),
            None => (chunk.len(), chunk.is_empty()),
        };
        reader.consume(used);
        if done {
            return Ok(());
        }
    }
}

/// Dispatches one request line. `Some(event)` is a direct reply for
/// the connection thread to send; submit replies `None` because it
/// must put its `accepted` event on the outbox *before* the executor
/// can race a row past it (streamed row/terminal events travel via
/// the job outbox).
fn handle_line(state: &Arc<ServerState>, line: &str, tx: &mpsc::Sender<String>) -> Option<Event> {
    match Request::parse_line(line) {
        Err(reason) => Some(Event::Error { reason }),
        Ok(Request::Hello) => Some(Event::Hello {
            protocol: PROTOCOL.to_string(),
        }),
        Ok(Request::Submit(sub)) => {
            submit(state, &sub, tx);
            None
        }
        Ok(Request::Status { job }) => Some(status(state, job)),
        Ok(Request::Cancel { job }) => Some(cancel(state, job)),
        Ok(Request::Metrics) => Some(metrics_event(state)),
        Ok(Request::Shutdown) => {
            begin_shutdown(state);
            Some(Event::Bye)
        }
    }
}

fn submit(state: &Arc<ServerState>, sub: &Submit, tx: &mpsc::Sender<String>) {
    JOBS_SUBMITTED.incr();
    let reject = |reason: String| {
        JOBS_REJECTED.incr();
        let _ = tx.send(Event::Rejected { reason }.to_line());
    };
    // Validate outside the lock — parsing a spec is pure.
    let validated = match sub.job.validate() {
        Ok(v) => v,
        Err(e) => return reject(e.to_string()),
    };
    let mut reg = state.inner.lock().expect("serve registry poisoned");
    if !reg.accepting {
        return reject("daemon is shutting down".to_string());
    }
    if reg.queue.len() >= state.cfg.max_queue {
        return reject(format!(
            "queue full ({} of {} slots taken)",
            reg.queue.len(),
            state.cfg.max_queue
        ));
    }
    let id = reg.next_id;
    reg.next_id += 1;
    let name = validated.resolved.name.clone();
    let cells = validated.resolved.cells.len();
    let shards = validated.resolved.fused.len();
    reg.jobs.insert(
        id,
        JobEntry {
            work: Some(validated),
            state: JobState::Queued,
            cancel: Arc::new(AtomicBool::new(false)),
            rows: 0,
            shards_done: 0,
            shards,
            outbox: Some(tx.clone()),
        },
    );
    // The accepted event goes on the outbox before the executor is
    // woken, so a client never sees a job's rows before its id.
    let _ = tx.send(
        Event::Accepted {
            job: id,
            name,
            cells,
            shards,
        }
        .to_line(),
    );
    reg.queue.push_back(id);
    reg.queue_peak = reg.queue_peak.max(reg.queue.len());
    state.work.notify_one();
}

fn status(state: &Arc<ServerState>, id: u64) -> Event {
    let reg = state.inner.lock().expect("serve registry poisoned");
    match reg.jobs.get(&id) {
        None => Event::Error {
            reason: format!("unknown job {id}"),
        },
        Some(e) => Event::Status {
            job: id,
            state: e.state.name().to_string(),
            rows: e.rows,
            shards_done: e.shards_done,
            shards: e.shards,
        },
    }
}

fn cancel(state: &Arc<ServerState>, id: u64) -> Event {
    let mut reg = state.inner.lock().expect("serve registry poisoned");
    let Some(entry) = reg.jobs.get_mut(&id) else {
        return Event::Error {
            reason: format!("unknown job {id}"),
        };
    };
    entry.cancel.store(true, Ordering::SeqCst);
    match entry.state {
        JobState::Queued => {
            let rows = entry.rows;
            reg.queue.retain(|&q| q != id);
            reg.finish(id, JobState::Cancelled);
            JOBS_CANCELLED.incr();
            Event::Cancelled { job: id, rows }
        }
        // Running: the flag is polled between shards; the terminal
        // `cancelled` event arrives via the outbox. Terminal states
        // just echo where the job ended up.
        s => Event::Status {
            job: id,
            state: s.name().to_string(),
            rows: entry.rows,
            shards_done: entry.shards_done,
            shards: entry.shards,
        },
    }
}

fn metrics_event(state: &Arc<ServerState>) -> Event {
    let (depth, running, peak, by_state) = {
        let reg = state.inner.lock().expect("serve registry poisoned");
        (
            reg.queue.len(),
            reg.running,
            reg.queue_peak,
            reg.jobs_by_state(),
        )
    };
    let jobs = Json::obj(
        [
            JobState::Queued,
            JobState::Running,
            JobState::Done,
            JobState::Failed,
            JobState::Cancelled,
        ]
        .iter()
        .map(|s| (s.name(), by_state[*s as usize].into())),
    );
    let snap = antdensity_telemetry::registry::snapshot();
    let counters = Json::obj(snap.counters.into_iter().map(|(name, v)| (name, v.into())));
    Event::Metrics(Json::obj([
        ("queue_depth", depth.into()),
        ("running", running.into()),
        ("queue_peak", peak.into()),
        ("jobs", jobs),
        ("counters", counters),
    ]))
}

fn executor_loop(state: &Arc<ServerState>) {
    loop {
        let id = {
            let mut reg = state.inner.lock().expect("serve registry poisoned");
            loop {
                if let Some(id) = reg.queue.pop_front() {
                    break id;
                }
                if state.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                reg = state.work.wait(reg).expect("serve registry poisoned");
            }
        };
        execute(state, id);
    }
}

/// Runs one admitted job to a terminal state, streaming rows through
/// its outbox.
fn execute(state: &Arc<ServerState>, id: u64) {
    let (validated, cancel, outbox) = {
        let mut reg = state.inner.lock().expect("serve registry poisoned");
        let Some(entry) = reg.jobs.get_mut(&id) else {
            return;
        };
        // Cancelled-while-queued jobs are pulled off the queue by
        // `cancel`, but a pop can race the retain; skip defensively.
        if entry.state != JobState::Queued {
            return;
        }
        let Some(validated) = entry.work.take() else {
            return;
        };
        entry.state = JobState::Running;
        let taken = (validated, Arc::clone(&entry.cancel), entry.outbox.clone());
        reg.running += 1;
        taken
    };
    let send = |ev: Event| {
        if let Some(tx) = &outbox {
            let _ = tx.send(ev.to_line());
        }
    };

    let mut span = JOB_SPAN.start();
    span.arg("shards", validated.resolved.fused.len() as f64);
    let mut on_shard = |resolved: &antdensity_sweep::spec::ResolvedSweep,
                        _shard: usize,
                        cells: &[(usize, antdensity_sweep::CellAggregate)]|
     -> bool {
        for (cell_idx, agg) in cells {
            send(Event::row(id, &build_row(resolved, *cell_idx, agg)));
        }
        ROWS_STREAMED.add(cells.len() as u64);
        {
            let mut reg = state.inner.lock().expect("serve registry poisoned");
            if let Some(e) = reg.jobs.get_mut(&id) {
                e.rows += cells.len() as u64;
                e.shards_done += 1;
            }
        }
        !cancel.load(Ordering::SeqCst)
    };

    // Ephemeral by construction: no checkpoint, no resume — a job that
    // dies is simply resubmitted, and its bytes are guaranteed by
    // purity (and the shared cache), not by disk state.
    let opts = SweepOptions {
        workers: state.cfg.job_workers,
        // One shard per wave: cancellation and row streaming both act
        // at shard granularity.
        checkpoint_every: 1,
        cache: state.cfg.cache.clone(),
        ..SweepOptions::default()
    };
    let result = run_resolved(&validated.resolved, &opts, &mut on_shard).map_err(|e| e.to_string());
    drop(span);

    let mut reg = state.inner.lock().expect("serve registry poisoned");
    reg.running -= 1;
    let Some(entry) = reg.jobs.get(&id) else {
        return;
    };
    let rows = entry.rows;
    let end = match result {
        Err(reason) => {
            JOBS_FAILED.incr();
            send(Event::Failed { job: id, reason });
            JobState::Failed
        }
        Ok(outcome) => {
            if !outcome.complete && cancel.load(Ordering::SeqCst) {
                JOBS_CANCELLED.incr();
                send(Event::Cancelled { job: id, rows });
                JobState::Cancelled
            } else {
                JOBS_COMPLETED.incr();
                let report = build_report(&outcome);
                send(Event::Done {
                    job: id,
                    complete: outcome.complete,
                    report_json: report.to_json(),
                    report_csv: report.to_csv(),
                });
                JobState::Done
            }
        }
    };
    reg.finish(id, end);
}

#[cfg(test)]
mod tests {
    use super::*;
    use antdensity_sweep::SweepJob;

    fn queued_entry() -> JobEntry {
        JobEntry {
            work: None,
            state: JobState::Queued,
            cancel: Arc::new(AtomicBool::new(false)),
            rows: 0,
            shards_done: 0,
            shards: 1,
            outbox: None,
        }
    }

    #[test]
    fn terminal_jobs_past_the_cap_are_retired_and_still_counted() {
        let mut reg = Registry::default();
        let extra = 5u64;
        let total = MAX_TERMINAL_JOBS as u64 + extra;
        for id in 0..total {
            reg.jobs.insert(id, queued_entry());
            let end = if id % 2 == 0 {
                JobState::Done
            } else {
                JobState::Cancelled
            };
            reg.finish(id, end);
        }
        // One live job that never finishes is never retired.
        reg.jobs.insert(total, queued_entry());
        assert_eq!(reg.jobs.len(), MAX_TERMINAL_JOBS + 1);
        assert_eq!(reg.terminal.len(), MAX_TERMINAL_JOBS);
        for id in 0..extra {
            assert!(!reg.jobs.contains_key(&id), "job {id} not retired");
        }
        assert!(reg.jobs.contains_key(&extra));
        assert!(reg.jobs.contains_key(&total));
        let by_state = reg.jobs_by_state();
        assert_eq!(by_state[JobState::Queued as usize], 1);
        assert_eq!(by_state[JobState::Done as usize], total.div_ceil(2));
        assert_eq!(by_state[JobState::Cancelled as usize], total / 2);
        assert_eq!(by_state.iter().sum::<u64>(), total + 1);
        // Retirement counts the oldest jobs: ids 0, 2, 4 (done) and 1,
        // 3 (cancelled).
        assert_eq!(reg.retired[JobState::Done as usize], 3);
        assert_eq!(reg.retired[JobState::Cancelled as usize], 2);
    }

    #[test]
    fn finishing_drops_the_spec_plan_and_outbox() {
        let validated = SweepJob::new(include_str!("../../../specs/smoke.sweep"))
            .validate()
            .expect("valid spec");
        let (tx, _rx) = mpsc::channel();
        let mut reg = Registry::default();
        reg.jobs.insert(
            7,
            JobEntry {
                work: Some(validated),
                outbox: Some(tx),
                ..queued_entry()
            },
        );
        reg.finish(7, JobState::Failed);
        let e = &reg.jobs[&7];
        assert_eq!(e.state, JobState::Failed);
        assert!(e.work.is_none() && e.outbox.is_none());
        assert_eq!(reg.jobs_by_state()[JobState::Failed as usize], 1);
    }

    #[test]
    fn status_of_a_retired_job_is_unknown() {
        let state = Arc::new(ServerState {
            cfg: ServeConfig::default(),
            inner: Mutex::new(Registry::default()),
            work: Condvar::new(),
            shutdown: AtomicBool::new(false),
            local_addr: None,
        });
        {
            let mut reg = state.inner.lock().unwrap();
            for id in 0..=MAX_TERMINAL_JOBS as u64 {
                reg.jobs.insert(id, queued_entry());
                reg.finish(id, JobState::Done);
            }
        }
        match status(&state, 0) {
            Event::Error { reason } => assert_eq!(reason, "unknown job 0"),
            other => panic!("retired job answered {other:?}"),
        }
        assert!(matches!(status(&state, 1), Event::Status { .. }));
    }
}
