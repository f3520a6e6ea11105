//! The service determinism contract: any number of concurrent
//! clients, any thread interleaving, any executor count, with or
//! without mid-job cancels — every job that completes delivers report
//! bytes **identical** to the sequential `repro sweep` run of the
//! equivalent spec.
//!
//! This is the serve-layer extension of `crates/sweep`'s determinism
//! suites: those pin "shard bytes are a pure function of (resolved
//! spec, shard)"; this suite pins that the daemon's queueing,
//! streaming, and cancellation machinery on top cannot perturb them.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Mutex;
use std::thread;

use antdensity_serve::daemon::{ServeConfig, Server};
use antdensity_serve::request::{Event, Request, Submit};
use antdensity_serve::Client;
use antdensity_sweep::runner::{run_sweep, SweepOptions};
use antdensity_sweep::{build_report, SweepJob};
use proptest::prelude::*;

/// Heterogeneous but small: 4 fused shards (2 topologies × 2
/// densities), 8 cells — enough structure for streaming and mid-job
/// cancels, small enough to run hundreds of jobs in the suite.
const SPEC: &str = "
name = serve_det
seed = 4242
trials = 2
topology = torus2d:8, complete:64
density = 0.1, 0.3
rounds = 4, 6
estimator = alg1
";

const CELLS: usize = 8;

fn job(seed: u64) -> SweepJob {
    let mut job = SweepJob::new(SPEC);
    job.seed_override = Some(seed);
    job
}

/// The sequential CLI bytes for `job(seed)`, memoized across the
/// suite (each distinct seed is one full in-process sweep).
fn reference(seed: u64) -> (String, String) {
    static CACHE: Mutex<BTreeMap<u64, (String, String)>> = Mutex::new(BTreeMap::new());
    let mut cache = CACHE.lock().unwrap();
    cache
        .entry(seed)
        .or_insert_with(|| {
            let spec = job(seed).parse_spec().unwrap();
            let outcome = run_sweep(&spec, &SweepOptions::default()).unwrap();
            let report = build_report(&outcome);
            (report.to_json(), report.to_csv())
        })
        .clone()
}

fn server(executors: usize) -> Server {
    antdensity_telemetry::set_enabled(true);
    Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            executors,
            // Room for every job of the largest concurrent shape at
            // once: 16 clients × 16 jobs, plus one slot per client.
            max_queue: 272,
            ..ServeConfig::default()
        },
    )
    .unwrap()
}

/// `clients` concurrent connections each submit one batch of
/// `jobs_per_client` jobs; every delivered report must be
/// byte-identical to its sequential CLI run. The queue has room for
/// every job at once, so a large shape drives the daemon to a deep
/// backlog.
fn concurrent_clients_match_sequential_cli_bytes(clients: u64, jobs_per_client: u64) {
    let server = server(3);
    let addr = server.local_addr().to_string();
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let addr = addr.clone();
            thread::spawn(move || {
                let mut client = Client::connect(&addr).unwrap();
                // Seeds overlap across clients on purpose — identical
                // jobs must yield identical bytes.
                let seeds: Vec<u64> = (0..jobs_per_client)
                    .map(|j| 100 + (c + j) % clients)
                    .collect();
                let batch = seeds
                    .iter()
                    .map(|&s| Submit {
                        job: job(s),
                        label: None,
                    })
                    .collect();
                let results = client.run_batch(batch).unwrap();
                for (res, &seed) in results.iter().zip(&seeds) {
                    assert_eq!(res.state, "done", "client {c} seed {seed}: {}", res.reason);
                    assert_eq!(res.rows.len(), CELLS);
                    let (want_json, want_csv) = reference(seed);
                    assert_eq!(res.report_json, want_json, "client {c} seed {seed} json");
                    assert_eq!(res.report_csv, want_csv, "client {c} seed {seed} csv");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    server.shutdown();
    server.wait();
}

/// The headline acceptance check: 8 concurrent clients, every
/// delivered report byte-identical to its sequential CLI run.
#[test]
fn eight_concurrent_clients_match_sequential_cli_bytes() {
    concurrent_clients_match_sequential_cli_bytes(8, 2);
}

/// 16 clients × 16 batched jobs: 256 jobs in flight against 3
/// executors, so the daemon's queue holds a backlog of hundreds.
#[test]
fn sixteen_clients_with_sixteen_jobs_each_match_sequential_cli_bytes() {
    concurrent_clients_match_sequential_cli_bytes(16, 16);
}

/// A request line nested far past the JSON depth cap gets an `error`
/// event on its own connection instead of overflowing the stack of the
/// daemon thread parsing it; the connection keeps serving, and a
/// concurrent client's report bytes are unchanged.
#[test]
fn deeply_nested_request_line_is_an_error_event() {
    let server = server(2);
    let addr = server.local_addr().to_string();
    let honest = {
        let addr = addr.clone();
        thread::spawn(move || {
            let mut client = Client::connect(&addr).unwrap();
            client
                .run_batch(vec![Submit {
                    job: job(60),
                    label: None,
                }])
                .unwrap()
        })
    };

    let mut writer = TcpStream::connect(&addr).unwrap();
    let mut reader = BufReader::new(writer.try_clone().unwrap());
    let mut next_event = || {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        Event::parse_line(line.trim_end()).unwrap()
    };
    assert!(matches!(next_event(), Event::Hello { .. }));
    let mut deep = "[".repeat(200_000);
    deep.push('\n');
    writer.write_all(deep.as_bytes()).unwrap();
    match next_event() {
        Event::Error { reason } => assert!(reason.contains("nesting deeper"), "got: {reason}"),
        other => panic!("expected error, got {}", other.to_line()),
    }
    writer
        .write_all(format!("{}\n", Request::Status { job: 999 }.to_line()).as_bytes())
        .unwrap();
    match next_event() {
        Event::Error { reason } => assert!(reason.contains("unknown job"), "got: {reason}"),
        other => panic!("expected error, got {}", other.to_line()),
    }

    let results = honest.join().unwrap();
    assert_eq!(results[0].state, "done", "{}", results[0].reason);
    let (want_json, want_csv) = reference(60);
    assert_eq!(results[0].report_json, want_json);
    assert_eq!(results[0].report_csv, want_csv);
    server.shutdown();
    server.wait();
}

/// A request line longer than the daemon's 1 MiB line cap — here a
/// valid `status` request padded with trailing spaces — gets an `error`
/// event naming the cap instead of being buffered whole; the rest of the
/// line is skipped, the connection keeps serving, and a concurrent
/// client's report bytes are unchanged.
#[test]
fn oversize_request_line_is_an_error_event() {
    let server = server(2);
    let addr = server.local_addr().to_string();
    let honest = {
        let addr = addr.clone();
        thread::spawn(move || {
            let mut client = Client::connect(&addr).unwrap();
            client
                .run_batch(vec![Submit {
                    job: job(61),
                    label: None,
                }])
                .unwrap()
        })
    };

    let mut writer = TcpStream::connect(&addr).unwrap();
    let mut reader = BufReader::new(writer.try_clone().unwrap());
    let mut next_event = || {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        Event::parse_line(line.trim_end()).unwrap()
    };
    assert!(matches!(next_event(), Event::Hello { .. }));
    let mut padded = Request::Status { job: 999 }.to_line();
    padded.push_str(&" ".repeat((1 << 20) + 1));
    padded.push('\n');
    writer.write_all(padded.as_bytes()).unwrap();
    match next_event() {
        Event::Error { reason } => {
            assert!(reason.contains("1048576-byte limit"), "got: {reason}")
        }
        other => panic!("expected error, got {}", other.to_line()),
    }
    writer
        .write_all(format!("{}\n", Request::Status { job: 999 }.to_line()).as_bytes())
        .unwrap();
    match next_event() {
        Event::Error { reason } => assert!(reason.contains("unknown job"), "got: {reason}"),
        other => panic!("expected error, got {}", other.to_line()),
    }

    let results = honest.join().unwrap();
    assert_eq!(results[0].state, "done", "{}", results[0].reason);
    let (want_json, want_csv) = reference(61);
    assert_eq!(results[0].report_json, want_json);
    assert_eq!(results[0].report_csv, want_csv);
    server.shutdown();
    server.wait();
}

/// A spec whose `csr:grid-holes` token parses but cannot be built (the
/// hole mask leaves no two adjacent open cells) is `rejected` on its
/// own connection, naming the token, instead of panicking the thread
/// that validates it; the connection keeps serving, and a concurrent
/// client's report bytes are unchanged.
#[test]
fn unbuildable_topology_is_rejected_and_the_session_continues() {
    let server = server(2);
    let addr = server.local_addr().to_string();
    let honest = {
        let addr = addr.clone();
        thread::spawn(move || {
            let mut client = Client::connect(&addr).unwrap();
            client
                .run_batch(vec![Submit {
                    job: job(62),
                    label: None,
                }])
                .unwrap()
        })
    };

    let mut writer = TcpStream::connect(&addr).unwrap();
    let mut reader = BufReader::new(writer.try_clone().unwrap());
    let mut next_event = || {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        Event::parse_line(line.trim_end()).unwrap()
    };
    assert!(matches!(next_event(), Event::Hello { .. }));
    for token in ["csr:grid-holes:2:1:0.9", "csr:grid-holes:4:1:0.9"] {
        let bad = Submit {
            job: SweepJob::new(SPEC.replace("torus2d:8, complete:64", token)),
            label: None,
        };
        writer
            .write_all(format!("{}\n", Request::Submit(bad).to_line()).as_bytes())
            .unwrap();
        match next_event() {
            Event::Rejected { reason } => {
                assert!(reason.contains(token), "got: {reason}");
                assert!(reason.contains("no connected component"), "got: {reason}");
            }
            other => panic!("expected rejected, got {}", other.to_line()),
        }
    }
    writer
        .write_all(format!("{}\n", Request::Status { job: 999 }.to_line()).as_bytes())
        .unwrap();
    match next_event() {
        Event::Error { reason } => assert!(reason.contains("unknown job"), "got: {reason}"),
        other => panic!("expected error, got {}", other.to_line()),
    }

    let results = honest.join().unwrap();
    assert_eq!(results[0].state, "done", "{}", results[0].reason);
    let (want_json, want_csv) = reference(62);
    assert_eq!(results[0].report_json, want_json);
    assert_eq!(results[0].report_csv, want_csv);
    server.shutdown();
    server.wait();
}

#[test]
fn invalid_specs_and_full_queues_are_rejected_with_cli_error_text() {
    let server = server(1);
    let addr = server.local_addr().to_string();
    let mut client = Client::connect(&addr).unwrap();
    let err = client
        .submit(Submit {
            job: SweepJob::new("trials = 1"),
            label: None,
        })
        .unwrap_err();
    // The daemon's rejection carries the same JobError text the CLI
    // prints for the same spec.
    assert!(err.contains("sweep spec:"), "got: {err}");
    assert!(err.contains("missing required key"), "got: {err}");

    // A zero-slot queue rejects every admission deterministically.
    let tiny = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            max_queue: 0,
            executors: 1,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let mut c2 = Client::connect(&tiny.local_addr().to_string()).unwrap();
    let err = c2
        .submit(Submit {
            job: job(1),
            label: None,
        })
        .unwrap_err();
    assert!(err.contains("queue full"), "got: {err}");
    tiny.shutdown();
    tiny.wait();

    server.shutdown();
    server.wait();
}

#[test]
fn status_metrics_and_unknown_job_errors() {
    let server = server(2);
    let addr = server.local_addr().to_string();
    let mut client = Client::connect(&addr).unwrap();
    let results = client
        .run_batch(vec![Submit {
            job: job(7),
            label: Some("probe".to_string()),
        }])
        .unwrap();
    assert_eq!(results[0].state, "done");
    let id = results[0].job;

    client.send(&Request::Status { job: id }).unwrap();
    match client.read_event().unwrap() {
        Event::Status {
            job,
            state,
            rows,
            shards_done,
            shards,
        } => {
            assert_eq!(job, id);
            assert_eq!(state, "done");
            assert_eq!(rows as usize, CELLS);
            assert_eq!(shards_done, 4);
            assert_eq!(shards, 4);
        }
        other => panic!("expected status, got {}", other.to_line()),
    }

    client.send(&Request::Status { job: 999 }).unwrap();
    match client.read_event().unwrap() {
        Event::Error { reason } => assert!(reason.contains("unknown job"), "got: {reason}"),
        other => panic!("expected error, got {}", other.to_line()),
    }

    let metrics = client.metrics().unwrap();
    let jobs = metrics.get("jobs").unwrap();
    assert!(jobs.get("done").and_then(|j| j.as_u64()).unwrap() >= 1);
    let counters = metrics.get("counters").unwrap();
    assert!(
        counters
            .get("serve.jobs_completed")
            .and_then(|c| c.as_u64())
            .unwrap()
            >= 1
    );
    client.shutdown().unwrap();
    server.wait();
}

/// Drives one client by hand so a cancel can be injected after `k`
/// rows of the first job. Returns (first job's terminal state and row
/// count, second job's result bytes).
fn run_with_cancel(addr: &str, cancel_after: usize) -> ((String, usize), (String, String)) {
    let mut client = Client::connect(addr).unwrap();
    client
        .send(&Request::Submit(Submit {
            job: job(50),
            label: None,
        }))
        .unwrap();
    client
        .send(&Request::Submit(Submit {
            job: job(51),
            label: None,
        }))
        .unwrap();
    let mut victim = None;
    let mut second = None;
    let mut victim_rows = 0usize;
    let mut victim_state = None;
    let mut second_bytes = None;
    let mut cancel_sent = false;
    while victim_state.is_none() || second_bytes.is_none() {
        match client.read_event().unwrap() {
            Event::Accepted { job, .. } => {
                if victim.is_none() {
                    victim = Some(job);
                    if cancel_after == 0 {
                        client.cancel(job).unwrap();
                        cancel_sent = true;
                    }
                } else {
                    second = Some(job);
                }
            }
            Event::Row { job, .. } => {
                if Some(job) == victim {
                    victim_rows += 1;
                    if !cancel_sent && victim_rows >= cancel_after {
                        client.cancel(job).unwrap();
                        cancel_sent = true;
                    }
                }
            }
            Event::Cancelled { job, .. } if Some(job) == victim => {
                victim_state = Some("cancelled".to_string());
            }
            Event::Done {
                job,
                report_json,
                report_csv,
                ..
            } => {
                if Some(job) == victim {
                    victim_state = Some("done".to_string());
                } else if Some(job) == second {
                    second_bytes = Some((report_json, report_csv));
                }
            }
            Event::Failed { job, reason } => panic!("job {job} failed: {reason}"),
            // Cancel acks for already-running jobs come back as
            // status events; ignore.
            Event::Status { .. } => {}
            other => panic!("unexpected event {}", other.to_line()),
        }
    }
    ((victim_state.unwrap(), victim_rows), second_bytes.unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Arbitrary client/executor/seed shapes: every delivered report
    /// is byte-identical to its sequential reference, regardless of
    /// interleaving.
    #[test]
    fn any_interleaving_is_byte_identical(
        executors in 1usize..4,
        client_seeds in prop::collection::vec(
            prop::collection::vec(0u64..4, 1..3),
            1..4,
        ),
    ) {
        let server = server(executors);
        let addr = server.local_addr().to_string();
        let handles: Vec<_> = client_seeds
            .into_iter()
            .map(|seeds| {
                let addr = addr.clone();
                thread::spawn(move || {
                    let mut client = Client::connect(&addr).unwrap();
                    let batch = seeds
                        .iter()
                        .map(|&s| Submit { job: job(s), label: None })
                        .collect();
                    let results = client.run_batch(batch).unwrap();
                    for (res, &seed) in results.iter().zip(&seeds) {
                        assert_eq!(res.state, "done", "{}", res.reason);
                        let (want_json, want_csv) = reference(seed);
                        assert_eq!(res.report_json, want_json);
                        assert_eq!(res.report_csv, want_csv);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        server.shutdown();
        server.wait();
    }

    /// A cancel after `k` rows leaves the victim cleanly cancelled (or
    /// already done — the race is inherent) and never perturbs a
    /// concurrent job's bytes.
    #[test]
    fn mid_job_cancel_is_clean_and_isolated(cancel_after in 0usize..6) {
        let server = server(2);
        let addr = server.local_addr().to_string();
        let ((state, rows), (got_json, got_csv)) =
            run_with_cancel(&addr, cancel_after);
        match state.as_str() {
            "cancelled" => prop_assert!(rows < CELLS, "cancelled job streamed all rows"),
            "done" => prop_assert_eq!(rows, CELLS),
            other => prop_assert!(false, "unexpected terminal state {}", other),
        }
        let (want_json, want_csv) = reference(51);
        prop_assert_eq!(got_json, want_json);
        prop_assert_eq!(got_csv, want_csv);
        server.shutdown();
        server.wait();
    }
}
