//! A blocking protocol client: connect, submit a batch, demux the
//! interleaved event stream into per-job results.
//!
//! Used by the `repro serve-submit` CLI and the service property suite
//! — both consume the same [`JobResult`], so "what the client saw"
//! means one thing everywhere.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

use crate::request::{Event, Request, Submit, PROTOCOL};

/// A connected protocol client.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

/// What one submitted job came to, as seen from the client side.
#[derive(Debug, Clone, PartialEq)]
pub struct JobResult {
    /// The daemon's job id.
    pub job: u64,
    /// The resolved sweep's name (from the `accepted` event) — what
    /// the CLI would use in `SWEEP_<name>.{json,csv}` filenames.
    pub name: String,
    /// Terminal state: `done`, `failed`, or `cancelled`.
    pub state: String,
    /// Row events received, in arrival order.
    pub rows: Vec<Event>,
    /// `SWEEP_<name>.json` bytes (empty unless `done`).
    pub report_json: String,
    /// `SWEEP_<name>.csv` bytes (empty unless `done`).
    pub report_csv: String,
    /// Failure reason (empty unless `failed`).
    pub reason: String,
}

impl Client {
    /// Connects and verifies the hello handshake's protocol version.
    ///
    /// # Errors
    ///
    /// Connection failures, a malformed greeting, or a protocol
    /// mismatch.
    pub fn connect(addr: &str) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        let writer = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
        let mut client = Client {
            reader: BufReader::new(stream),
            writer,
        };
        match client.read_event()? {
            Event::Hello { protocol } if protocol == PROTOCOL => Ok(client),
            Event::Hello { protocol } => Err(format!(
                "protocol mismatch: server speaks `{protocol}`, client `{PROTOCOL}`"
            )),
            other => Err(format!("expected hello, got {}", other.to_line())),
        }
    }

    /// Sends one request line.
    ///
    /// # Errors
    ///
    /// Socket write failures.
    pub fn send(&mut self, req: &Request) -> Result<(), String> {
        self.writer
            .write_all(req.to_line().as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .map_err(|e| format!("send: {e}"))
    }

    /// Reads the next event line (blocking).
    ///
    /// # Errors
    ///
    /// EOF, socket read failures, or an unparseable line.
    pub fn read_event(&mut self) -> Result<Event, String> {
        let mut line = String::new();
        loop {
            line.clear();
            let n = self
                .reader
                .read_line(&mut line)
                .map_err(|e| format!("read: {e}"))?;
            if n == 0 {
                return Err("connection closed".to_string());
            }
            if line.trim().is_empty() {
                continue;
            }
            return Event::parse_line(line.trim_end_matches('\n'));
        }
    }

    /// Submits one job and returns its `accepted` id. Only valid when
    /// no other job of this connection is still streaming (its rows
    /// would interleave with the reply); inside a batch, use
    /// [`Client::run_batch`], which demuxes.
    ///
    /// # Errors
    ///
    /// Transport failures, a `rejected` event (with the daemon's
    /// reason), or an unexpected reply.
    pub fn submit(&mut self, submit: Submit) -> Result<u64, String> {
        self.send(&Request::Submit(submit))?;
        match self.read_event()? {
            Event::Accepted { job, .. } => Ok(job),
            Event::Rejected { reason } => Err(format!("rejected: {reason}")),
            other => Err(format!("expected accepted, got {}", other.to_line())),
        }
    }

    /// Submits `jobs` up front, then reads the interleaved stream —
    /// accepts arrive in submit order, rows and terminal events in
    /// whatever order the executors produce them — until every job
    /// reaches a terminal event. Results come back in submit order.
    ///
    /// # Errors
    ///
    /// Transport failures or any submit being rejected.
    pub fn run_batch(&mut self, jobs: Vec<Submit>) -> Result<Vec<JobResult>, String> {
        let total = jobs.len();
        for sub in jobs {
            self.send(&Request::Submit(sub))?;
        }
        let mut results: Vec<JobResult> = Vec::with_capacity(total);
        let mut accepted = 0usize;
        let mut open = total;
        while open > 0 {
            let ev = self.read_event()?;
            match &ev {
                Event::Accepted { job, name, .. } => {
                    if accepted >= total {
                        return Err("more accepts than submits".to_string());
                    }
                    accepted += 1;
                    results.push(JobResult {
                        job: *job,
                        name: name.clone(),
                        state: String::new(),
                        rows: Vec::new(),
                        report_json: String::new(),
                        report_csv: String::new(),
                        reason: String::new(),
                    });
                    continue;
                }
                Event::Rejected { reason } => {
                    return Err(format!("rejected: {reason}"));
                }
                _ => {}
            }
            let job = match &ev {
                Event::Row { job, .. }
                | Event::Done { job, .. }
                | Event::Failed { job, .. }
                | Event::Cancelled { job, .. }
                | Event::Status { job, .. } => *job,
                Event::Error { reason } => return Err(format!("server error: {reason}")),
                _ => continue,
            };
            let Some(res) = results.iter_mut().find(|r| r.job == job) else {
                continue;
            };
            match ev {
                Event::Row { .. } => res.rows.push(ev),
                Event::Done {
                    report_json,
                    report_csv,
                    ..
                } => {
                    res.state = "done".to_string();
                    res.report_json = report_json;
                    res.report_csv = report_csv;
                    open -= 1;
                }
                Event::Failed { reason, .. } => {
                    res.state = "failed".to_string();
                    res.reason = reason;
                    open -= 1;
                }
                Event::Cancelled { .. } => {
                    res.state = "cancelled".to_string();
                    open -= 1;
                }
                _ => {}
            }
        }
        Ok(results)
    }

    /// Requests a metrics snapshot.
    ///
    /// # Errors
    ///
    /// Transport failures or an unexpected reply. Only valid between
    /// batches — mid-batch the reply would interleave with row events.
    pub fn metrics(&mut self) -> Result<antdensity_telemetry::Json, String> {
        self.send(&Request::Metrics)?;
        match self.read_event()? {
            Event::Metrics(obj) => Ok(obj),
            other => Err(format!("expected metrics, got {}", other.to_line())),
        }
    }

    /// Asks the daemon to shut down gracefully; consumes the `bye`.
    ///
    /// # Errors
    ///
    /// Transport failures or an unexpected reply.
    pub fn shutdown(&mut self) -> Result<(), String> {
        self.send(&Request::Shutdown)?;
        loop {
            match self.read_event()? {
                Event::Bye => return Ok(()),
                // Drain stragglers from jobs still finishing.
                _ => continue,
            }
        }
    }

    /// Sends a cancel for `job` without waiting for a reply (the
    /// terminal event arrives in the normal stream).
    ///
    /// # Errors
    ///
    /// Socket write failures.
    pub fn cancel(&mut self, job: u64) -> Result<(), String> {
        self.send(&Request::Cancel { job })
    }
}
