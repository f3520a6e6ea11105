//! The job wire protocol: typed requests and events over line-
//! delimited JSON.
//!
//! One JSON object per line, client → server ([`Request`]) and server
//! → client ([`Event`]). The submit payload deserializes into the
//! *same* [`SweepJob`] the CLI builds — wire jobs and argv jobs share
//! one validation path and one error vocabulary
//! ([`antdensity_sweep::job`]).
//!
//! Grammar (each line a complete JSON object):
//!
//! ```text
//! client → server
//!   {"op":"hello"}
//!   {"op":"submit","spec":"<spec file text>"
//!        [,"quick":bool][,"seed":N][,"label":"..."]}
//!   {"op":"status","job":N}
//!   {"op":"cancel","job":N}
//!   {"op":"metrics"}
//!   {"op":"shutdown"}
//!
//! server → client
//!   {"event":"hello","protocol":"antdensity-job-protocol v1"}
//!   {"event":"accepted","job":N,"name":"...","cells":N,"shards":N}
//!   {"event":"rejected","reason":"..."}
//!   {"event":"row","job":N,"index":N,"topology":"...","density":F,
//!        "agents":N,"rounds":N,"estimator":"...","est_mean":F,
//!        "err_mean":F,"err_q":F|null,"within":F,"bound":F|null}
//!   {"event":"status","job":N,"state":"queued|running|done|failed|cancelled",
//!        "rows":N,"shards_done":N,"shards":N}
//!   {"event":"done","job":N,"complete":bool,
//!        "report_json":"...","report_csv":"..."}
//!   {"event":"failed","job":N,"reason":"..."}
//!   {"event":"cancelled","job":N,"rows":N}
//!   {"event":"metrics", ...queue/jobs/counters object...}
//!   {"event":"error","reason":"..."}     (malformed request; connection stays up)
//!   {"event":"bye"}
//! ```
//!
//! Encoding is deterministic (fixed key order), parsing is strict
//! (corrupt lines are rejected with an `error` event, never guessed
//! at) — both round-trip-tested in `tests/protocol.rs`. Keys a request
//! does not define are ignored, so a submit from an older client that
//! still sends the retired `fuse` flag runs the same job.

use antdensity_sweep::{schema, SweepJob, SweepRow};
use antdensity_telemetry::Json;

/// The protocol version announced in the hello handshake
/// ([`schema::JOB_PROTOCOL`]).
pub const PROTOCOL: &str = schema::JOB_PROTOCOL;

/// A client → server request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Re-request the hello/protocol event.
    Hello,
    /// Submit a job for admission.
    Submit(Submit),
    /// Poll one job's state.
    Status {
        /// The job id from its `accepted` event.
        job: u64,
    },
    /// Cancel a queued or running job.
    Cancel {
        /// The job id from its `accepted` event.
        job: u64,
    },
    /// Request the daemon's metrics snapshot.
    Metrics,
    /// Stop the daemon once running jobs finish.
    Shutdown,
}

/// The submit payload: a [`SweepJob`] plus a client-side label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Submit {
    /// The job to run — the same type `repro sweep` validates.
    pub job: SweepJob,
    /// Echoed in nothing, kept for the client's own bookkeeping via
    /// `status`; optional.
    pub label: Option<String>,
}

impl Request {
    /// Encodes as one protocol line (no trailing newline). Every
    /// integer is exact, so a seed above 2^53 survives the wire.
    pub fn to_line(&self) -> String {
        let pairs: Vec<(&str, Json)> = match self {
            Request::Hello => vec![("op", "hello".into())],
            Request::Submit(s) => {
                let mut pairs = vec![
                    ("op", "submit".into()),
                    ("spec", s.job.spec_text.as_str().into()),
                ];
                if s.job.quick {
                    pairs.push(("quick", true.into()));
                }
                if let Some(seed) = s.job.seed_override {
                    pairs.push(("seed", seed.into()));
                }
                if let Some(label) = &s.label {
                    pairs.push(("label", label.as_str().into()));
                }
                pairs
            }
            Request::Status { job } => vec![("op", "status".into()), ("job", (*job).into())],
            Request::Cancel { job } => vec![("op", "cancel".into()), ("job", (*job).into())],
            Request::Metrics => vec![("op", "metrics".into())],
            Request::Shutdown => vec![("op", "shutdown".into())],
        };
        Json::obj(pairs).encode()
    }

    /// Parses one request line.
    ///
    /// # Errors
    ///
    /// Returns a description of the first problem: bad JSON, a missing
    /// or mistyped field, or an unknown `op`.
    pub fn parse_line(line: &str) -> Result<Request, String> {
        let obj = Json::parse(line)?;
        let op = obj
            .get("op")
            .and_then(Json::as_str)
            .ok_or("missing string field `op`")?;
        let job_id = |obj: &Json| -> Result<u64, String> {
            obj.get("job")
                .and_then(Json::as_u64)
                .ok_or_else(|| "missing integer field `job`".to_string())
        };
        match op {
            "hello" => Ok(Request::Hello),
            "submit" => {
                let spec = obj
                    .get("spec")
                    .and_then(Json::as_str)
                    .ok_or("submit needs a string field `spec`")?;
                let quick = match obj.get("quick") {
                    None => false,
                    Some(v) => v.as_bool().ok_or("`quick` must be a boolean")?,
                };
                let seed_override = match obj.get("seed") {
                    None | Some(Json::Null) => None,
                    Some(v) => Some(v.as_u64().ok_or("`seed` must be a non-negative integer")?),
                };
                let label = match obj.get("label") {
                    None | Some(Json::Null) => None,
                    Some(v) => Some(v.as_str().ok_or("`label` must be a string")?.to_string()),
                };
                Ok(Request::Submit(Submit {
                    job: SweepJob {
                        spec_text: spec.to_string(),
                        quick,
                        seed_override,
                    },
                    label,
                }))
            }
            "status" => Ok(Request::Status { job: job_id(&obj)? }),
            "cancel" => Ok(Request::Cancel { job: job_id(&obj)? }),
            "metrics" => Ok(Request::Metrics),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown op `{other}`")),
        }
    }
}

/// A server → client event line.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// Handshake: sent on connect and in reply to `hello`.
    Hello {
        /// The server's protocol version; clients must match it.
        protocol: String,
    },
    /// A submit passed admission.
    Accepted {
        /// Daemon-wide job id; all later events reference it.
        job: u64,
        /// The resolved sweep's name.
        name: String,
        /// Grid cells the job will produce.
        cells: usize,
        /// Fused shards the job will execute.
        shards: usize,
    },
    /// A submit was refused (queue full, spec invalid, shutting down).
    Rejected {
        /// Why — the same text the CLI would print.
        reason: String,
    },
    /// One cell's estimates, streamed as its shard lands.
    Row {
        /// Owning job.
        job: u64,
        /// Cell index within the sweep grid.
        index: usize,
        /// Topology axis token.
        topology: String,
        /// Density axis value.
        density: f64,
        /// Agents placed.
        agents: usize,
        /// Rounds per trial.
        rounds: u64,
        /// Estimator token.
        estimator: String,
        /// Mean per-agent estimate.
        est_mean: f64,
        /// Mean relative error.
        err_mean: f64,
        /// `(1 − delta)`-quantile of the error, when defined.
        err_q: Option<f64>,
        /// Fraction of samples within the band.
        within: f64,
        /// Paper-predicted bound, where one applies.
        bound: Option<f64>,
    },
    /// Reply to `status`.
    Status {
        /// The queried job.
        job: u64,
        /// `queued` | `running` | `done` | `failed` | `cancelled`.
        state: String,
        /// Rows streamed so far.
        rows: u64,
        /// Shards completed so far.
        shards_done: usize,
        /// Total shards in the job's plan.
        shards: usize,
    },
    /// Terminal: the job ran to its end. The report payloads are the
    /// exact bytes `repro sweep` would have written to
    /// `SWEEP_<name>.json` / `.csv`.
    Done {
        /// The finished job.
        job: u64,
        /// Whether every shard completed.
        complete: bool,
        /// `SWEEP_<name>.json` contents, byte-identical to the CLI's.
        report_json: String,
        /// `SWEEP_<name>.csv` contents, byte-identical to the CLI's.
        report_csv: String,
    },
    /// Terminal: the job errored.
    Failed {
        /// The failed job.
        job: u64,
        /// The runner's error message.
        reason: String,
    },
    /// Terminal: the job was cancelled.
    Cancelled {
        /// The cancelled job.
        job: u64,
        /// Rows that had streamed before the cancel took effect.
        rows: u64,
    },
    /// Reply to `metrics`: a free-form object assembled by the daemon
    /// (queue depth, job states, telemetry counters).
    Metrics(
        /// The snapshot object.
        Json,
    ),
    /// A request line could not be parsed; the connection stays open.
    Error {
        /// What was wrong with the line.
        reason: String,
    },
    /// Reply to `shutdown`; the daemon drains and exits.
    Bye,
}

impl Event {
    /// Builds a [`Event::Row`] from a report row.
    pub fn row(job: u64, r: &SweepRow) -> Event {
        Event::Row {
            job,
            index: r.index,
            topology: r.topology.clone(),
            density: r.density,
            agents: r.agents,
            rounds: r.rounds,
            estimator: r.estimator.clone(),
            est_mean: r.est_mean,
            err_mean: r.err_mean,
            err_q: r.err_q,
            within: r.within,
            bound: r.bound,
        }
    }

    /// Encodes as one protocol line (no trailing newline).
    pub fn to_line(&self) -> String {
        let pairs: Vec<(&str, Json)> = match self {
            Event::Hello { protocol } => vec![
                ("event", "hello".into()),
                ("protocol", protocol.as_str().into()),
            ],
            Event::Accepted {
                job,
                name,
                cells,
                shards,
            } => vec![
                ("event", "accepted".into()),
                ("job", (*job).into()),
                ("name", name.as_str().into()),
                ("cells", (*cells).into()),
                ("shards", (*shards).into()),
            ],
            Event::Rejected { reason } => {
                vec![
                    ("event", "rejected".into()),
                    ("reason", reason.as_str().into()),
                ]
            }
            Event::Row {
                job,
                index,
                topology,
                density,
                agents,
                rounds,
                estimator,
                est_mean,
                err_mean,
                err_q,
                within,
                bound,
            } => vec![
                ("event", "row".into()),
                ("job", (*job).into()),
                ("index", (*index).into()),
                ("topology", topology.as_str().into()),
                ("density", (*density).into()),
                ("agents", (*agents).into()),
                ("rounds", (*rounds).into()),
                ("estimator", estimator.as_str().into()),
                ("est_mean", (*est_mean).into()),
                ("err_mean", (*err_mean).into()),
                ("err_q", (*err_q).into()),
                ("within", (*within).into()),
                ("bound", (*bound).into()),
            ],
            Event::Status {
                job,
                state,
                rows,
                shards_done,
                shards,
            } => vec![
                ("event", "status".into()),
                ("job", (*job).into()),
                ("state", state.as_str().into()),
                ("rows", (*rows).into()),
                ("shards_done", (*shards_done).into()),
                ("shards", (*shards).into()),
            ],
            Event::Done {
                job,
                complete,
                report_json,
                report_csv,
            } => vec![
                ("event", "done".into()),
                ("job", (*job).into()),
                ("complete", (*complete).into()),
                ("report_json", report_json.as_str().into()),
                ("report_csv", report_csv.as_str().into()),
            ],
            Event::Failed { job, reason } => vec![
                ("event", "failed".into()),
                ("job", (*job).into()),
                ("reason", reason.as_str().into()),
            ],
            Event::Cancelled { job, rows } => vec![
                ("event", "cancelled".into()),
                ("job", (*job).into()),
                ("rows", (*rows).into()),
            ],
            Event::Metrics(obj) => {
                let mut pairs = vec![("event".into(), "metrics".into())];
                if let Json::Obj(rest) = obj {
                    pairs.extend(rest.iter().cloned());
                }
                return Json::Obj(pairs).encode();
            }
            Event::Error { reason } => {
                vec![
                    ("event", "error".into()),
                    ("reason", reason.as_str().into()),
                ]
            }
            Event::Bye => vec![("event", "bye".into())],
        };
        Json::obj(pairs).encode()
    }

    /// Parses one event line.
    ///
    /// # Errors
    ///
    /// Returns a description of the first problem: bad JSON, a missing
    /// or mistyped field, or an unknown `event`.
    pub fn parse_line(line: &str) -> Result<Event, String> {
        let obj = Json::parse(line)?;
        let kind = obj
            .get("event")
            .and_then(Json::as_str)
            .ok_or("missing string field `event`")?
            .to_string();
        let str_field = |key: &str| -> Result<String, String> {
            obj.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or(format!("missing string field `{key}`"))
        };
        let u64_field = |key: &str| -> Result<u64, String> {
            obj.get(key)
                .and_then(Json::as_u64)
                .ok_or(format!("missing integer field `{key}`"))
        };
        let f64_field = |key: &str| -> Result<f64, String> {
            obj.get(key)
                .and_then(Json::as_f64)
                .ok_or(format!("missing number field `{key}`"))
        };
        let opt_field = |key: &str| -> Result<Option<f64>, String> {
            match obj.get(key) {
                None => Err(format!("missing field `{key}`")),
                Some(Json::Null) => Ok(None),
                Some(v) => v
                    .as_f64()
                    .map(Some)
                    .ok_or(format!("`{key}` must be a number or null")),
            }
        };
        match kind.as_str() {
            "hello" => Ok(Event::Hello {
                protocol: str_field("protocol")?,
            }),
            "accepted" => Ok(Event::Accepted {
                job: u64_field("job")?,
                name: str_field("name")?,
                cells: u64_field("cells")? as usize,
                shards: u64_field("shards")? as usize,
            }),
            "rejected" => Ok(Event::Rejected {
                reason: str_field("reason")?,
            }),
            "row" => Ok(Event::Row {
                job: u64_field("job")?,
                index: u64_field("index")? as usize,
                topology: str_field("topology")?,
                density: f64_field("density")?,
                agents: u64_field("agents")? as usize,
                rounds: u64_field("rounds")?,
                estimator: str_field("estimator")?,
                est_mean: f64_field("est_mean")?,
                err_mean: f64_field("err_mean")?,
                err_q: opt_field("err_q")?,
                within: f64_field("within")?,
                bound: opt_field("bound")?,
            }),
            "status" => Ok(Event::Status {
                job: u64_field("job")?,
                state: str_field("state")?,
                rows: u64_field("rows")?,
                shards_done: u64_field("shards_done")? as usize,
                shards: u64_field("shards")? as usize,
            }),
            "done" => Ok(Event::Done {
                job: u64_field("job")?,
                complete: obj
                    .get("complete")
                    .and_then(Json::as_bool)
                    .ok_or("missing boolean field `complete`")?,
                report_json: str_field("report_json")?,
                report_csv: str_field("report_csv")?,
            }),
            "failed" => Ok(Event::Failed {
                job: u64_field("job")?,
                reason: str_field("reason")?,
            }),
            "cancelled" => Ok(Event::Cancelled {
                job: u64_field("job")?,
                rows: u64_field("rows")?,
            }),
            "metrics" => {
                let Json::Obj(pairs) = obj else {
                    return Err("metrics event is not an object".to_string());
                };
                let rest = pairs.into_iter().filter(|(k, _)| k != "event");
                Ok(Event::Metrics(Json::Obj(rest.collect())))
            }
            "error" => Ok(Event::Error {
                reason: str_field("reason")?,
            }),
            "bye" => Ok(Event::Bye),
            other => Err(format!("unknown event `{other}`")),
        }
    }
}
