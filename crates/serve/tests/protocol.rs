//! The wire protocol's parse/encode contract: every request and event
//! round-trips through its line form, and corrupt lines are rejected
//! with an error — never guessed at.

use antdensity_serve::request::{Event, Request, Submit, PROTOCOL};
use antdensity_sweep::SweepJob;
use antdensity_telemetry::Json;

fn sample_requests() -> Vec<Request> {
    let mut job = SweepJob::new("name = x\nseed = 3\n");
    job.quick = true;
    job.seed_override = Some(42);
    vec![
        Request::Hello,
        Request::Submit(Submit {
            job: SweepJob::new("name = y\ntrials = 2\n"),
            label: None,
        }),
        Request::Submit(Submit {
            job,
            label: Some("replica-7".to_string()),
        }),
        // `repro sweep --seed` takes any u64, so the wire carries every
        // one exactly, including those past 2^53 where f64 rounds.
        Request::Submit(Submit {
            job: SweepJob {
                seed_override: Some((1 << 53) + 1),
                ..SweepJob::new("name = z\n")
            },
            label: None,
        }),
        Request::Submit(Submit {
            job: SweepJob {
                seed_override: Some(u64::MAX),
                ..SweepJob::new("name = z\n")
            },
            label: None,
        }),
        Request::Status { job: 9 },
        Request::Cancel { job: 0 },
        Request::Metrics,
        Request::Shutdown,
    ]
}

fn sample_events() -> Vec<Event> {
    vec![
        Event::Hello {
            protocol: PROTOCOL.to_string(),
        },
        Event::Accepted {
            job: 3,
            name: "smoke".to_string(),
            cells: 16,
            shards: 8,
        },
        Event::Rejected {
            reason: "sweep spec: missing required key `name`".to_string(),
        },
        Event::Row {
            job: 3,
            index: 5,
            topology: "torus2d:8".to_string(),
            density: 0.25,
            agents: 16,
            rounds: 64,
            estimator: "alg1".to_string(),
            est_mean: 0.251_3,
            err_mean: 0.017,
            err_q: Some(0.05),
            within: 0.93,
            bound: None,
        },
        Event::Row {
            job: 4,
            index: 0,
            topology: "complete:64".to_string(),
            density: 0.1,
            agents: 6,
            rounds: 8,
            estimator: "quorum:0.05".to_string(),
            est_mean: 0.1,
            err_mean: 0.0,
            err_q: None,
            within: 1.0,
            bound: Some(0.5),
        },
        Event::Status {
            job: 3,
            state: "running".to_string(),
            rows: 5,
            shards_done: 2,
            shards: 8,
        },
        Event::Done {
            job: 3,
            complete: true,
            report_json: "{\"schema\": \"x\"}\n".to_string(),
            report_csv: "a,b\n1,2\n".to_string(),
        },
        Event::Failed {
            job: 3,
            reason: "worker died".to_string(),
        },
        Event::Cancelled { job: 3, rows: 7 },
        Event::Metrics(Json::Obj(vec![
            ("queue_depth".into(), Json::num(2.0)),
            (
                "jobs".into(),
                Json::Obj(vec![("done".into(), Json::num(5.0))]),
            ),
        ])),
        Event::Error {
            reason: "unknown op `frobnicate`".to_string(),
        },
        Event::Bye,
    ]
}

#[test]
fn every_request_round_trips() {
    for req in sample_requests() {
        let line = req.to_line();
        let back = Request::parse_line(&line)
            .unwrap_or_else(|e| panic!("round-trip failed for {line}: {e}"));
        assert_eq!(back, req, "line: {line}");
        // And the re-encoding is byte-stable.
        assert_eq!(back.to_line(), line);
    }
}

#[test]
fn every_event_round_trips() {
    for ev in sample_events() {
        let line = ev.to_line();
        let back = Event::parse_line(&line)
            .unwrap_or_else(|e| panic!("round-trip failed for {line}: {e}"));
        assert_eq!(back, ev, "line: {line}");
        assert_eq!(back.to_line(), line);
    }
}

#[test]
fn corrupt_request_lines_are_rejected() {
    let bad = [
        "",
        "not json",
        "42",
        "[]",
        "{}",
        "{\"op\":7}",
        "{\"op\":\"frobnicate\"}",
        "{\"op\":\"submit\"}",
        "{\"op\":\"submit\",\"spec\":17}",
        "{\"op\":\"submit\",\"spec\":\"x\",\"quick\":\"yes\"}",
        "{\"op\":\"submit\",\"spec\":\"x\",\"seed\":-4}",
        "{\"op\":\"submit\",\"spec\":\"x\",\"seed\":1.5}",
        "{\"op\":\"submit\",\"spec\":\"x\",\"label\":9}",
        "{\"op\":\"status\"}",
        "{\"op\":\"status\",\"job\":\"three\"}",
        "{\"op\":\"cancel\",\"job\":null}",
        "{\"op\":\"hello\"} trailing",
        "{\"op\":\"hello\"",
    ];
    for line in bad {
        assert!(
            Request::parse_line(line).is_err(),
            "should have rejected: {line:?}"
        );
    }
}

#[test]
fn corrupt_event_lines_are_rejected() {
    let bad = [
        "",
        "{}",
        "{\"event\":\"nope\"}",
        "{\"event\":\"accepted\",\"job\":1}",
        "{\"event\":\"row\",\"job\":1}",
        "{\"event\":\"done\",\"job\":1,\"complete\":\"yes\",\"report_json\":\"\",\"report_csv\":\"\"}",
        "{\"event\":\"status\",\"job\":1,\"state\":4,\"rows\":0,\"shards_done\":0,\"shards\":1}",
        "{\"event\":\"cancelled\",\"rows\":1}",
    ];
    for line in bad {
        assert!(
            Event::parse_line(line).is_err(),
            "should have rejected: {line:?}"
        );
    }
    // Every truncation of a valid event line is rejected too.
    let line = sample_events()[3].to_line();
    for cut in 0..line.len() {
        assert!(
            Event::parse_line(&line[..cut]).is_err(),
            "truncation at {cut} should fail: {:?}",
            &line[..cut]
        );
    }
}

#[test]
fn submit_defaults_mirror_the_cli() {
    // A bare submit means exactly `repro sweep SPEC`: full mode, the
    // spec's own seed.
    let req = Request::parse_line("{\"op\":\"submit\",\"spec\":\"name = z\"}").unwrap();
    let Request::Submit(sub) = req else {
        panic!("not a submit")
    };
    assert_eq!(sub.job, SweepJob::new("name = z"));
    assert_eq!(sub.label, None);
}

#[test]
fn retired_fuse_key_parses_to_the_same_job() {
    // Every sweep runs fused, so the submit's old `fuse` flag is an
    // unknown key: ignored like any other, the job (and so its bytes)
    // unchanged.
    let plain = "{\"op\":\"submit\",\"spec\":\"name = z\",\"quick\":true}";
    let flagged = "{\"op\":\"submit\",\"spec\":\"name = z\",\"quick\":true,\"fuse\":false}";
    let (Request::Submit(a), Request::Submit(b)) = (
        Request::parse_line(plain).unwrap(),
        Request::parse_line(flagged).unwrap(),
    ) else {
        panic!("not submits")
    };
    assert_eq!(a.job, b.job);
    assert!(b.job.quick);
    assert_eq!(Request::Submit(b).to_line(), plain);
}
