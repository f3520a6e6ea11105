//! `perfbench` — the end-to-end benchmark of the paths users run:
//! `repro sweep` (spec text to report files) and `repro serve` (jobs
//! over the wire against a daemon with a shard cache).
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads: `alg1_table`, `large_pop`, `irregular_csr` (sweeps) and
//! `serve_mixed` (closed loop against an in-process daemon). Inputs are
//! generated from `--seed`. With `--trace 0` the last stdout line holds
//! the end-to-end metrics; with `--trace 1` a separate traced pass
//! drives the same pipeline stage by stage and the line holds the
//! per-layer metrics. Every run checks its outputs; failures are
//! counted in `failed`. Working files and span traces go under
//! `.perfbench/` in the working directory. See `README.md`.

mod gen;
mod serve;
mod stats;
mod sweep;
mod sys;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// End-to-end metrics, printed with `--trace 0`: (name, unit).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("agent_steps_per_s", "1/s"),
    ("jobs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed with `--trace 1`: (name, unit). A layer a
/// workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("spec.resolve_s", "s"),
    ("graphs.build_s", "s"),
    ("theory.bound_s", "s"),
    ("engine.trial_s", "s"),
    ("engine.ns_per_agent_step", "ns"),
    ("engine.bare_step_share", "ratio"),
    ("counts.trial_s", "s"),
    ("counts.ns_per_agent_step", "ns"),
    ("aggregate.record_s", "s"),
    ("runner.shard_max_s", "s"),
    ("pool.idle_frac", "ratio"),
    ("checkpoint.save_s", "s"),
    ("checkpoint.bytes", "bytes"),
    ("report.render_s", "s"),
    ("cache.get_s", "s"),
    ("cache.put_s", "s"),
    ("cache.hit_ratio", "ratio"),
    ("cache.bytes_written", "bytes"),
    ("serve.accept_ms", "ms"),
    ("serve.queue_ms", "ms"),
    ("serve.done_ms", "ms"),
    ("serve.bytes_per_job", "bytes"),
    ("trace.unattributed_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Alg1Table,
    LargePop,
    IrregularCsr,
    ServeMixed,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::Alg1Table,
        Workload::LargePop,
        Workload::IrregularCsr,
        Workload::ServeMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Alg1Table => "alg1_table",
            Workload::LargePop => "large_pop",
            Workload::IrregularCsr => "irregular_csr",
            Workload::ServeMixed => "serve_mixed",
        }
    }
}

/// What one benchmark run measured.
#[derive(Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
    /// Human-readable context printed above the result line.
    pub notes: Vec<String>,
}

/// Where working files and span traces go.
pub fn out_dir() -> PathBuf {
    PathBuf::from(".perfbench")
}

pub fn median_or_zero(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        stats::median(xs)
    }
}

/// Every per-layer metric in [`PER_LAYER`] order.
pub fn layer_metrics(get: impl Fn(&str) -> f64, overhead_frac: f64) -> Vec<(&'static str, f64)> {
    PER_LAYER
        .iter()
        .map(|&(name, _)| {
            let v = if name == "trace.overhead_frac" {
                overhead_frac
            } else {
                get(name)
            };
            (name, v)
        })
        .collect()
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                let s: u64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds `{value}`"))?;
                if s == 0 {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                });
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn result_line(outcome: &Outcome, units: &[(&str, &str)]) -> Result<String, String> {
    let mut metrics = Vec::new();
    for (name, value) in &outcome.metrics {
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite ({value})"));
        }
        let unit = units
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, u)| *u)
            .ok_or_else(|| format!("metric {name} is not declared"))?;
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    ))
}

fn bench(args: &Args) -> Result<(), String> {
    let work = out_dir().join(format!(
        "work-{}-{}",
        args.workload.name(),
        std::process::id()
    ));
    std::fs::create_dir_all(&work).map_err(|e| format!("create {}: {e}", work.display()))?;
    let result = match args.workload {
        Workload::ServeMixed => serve::run(args.seed, args.seconds, args.trace, &work),
        w => sweep::run(w, args.seed, args.seconds, args.trace, &work),
    };
    // Best effort: a leftover working directory wastes space, nothing more.
    let _ = std::fs::remove_dir_all(&work);
    let outcome = result?;
    let units = if args.trace { PER_LAYER } else { END_TO_END };
    println!(
        "# perfbench {} seed={} seconds={} trace={} nproc={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        sys::nproc()
    );
    for note in &outcome.notes {
        println!("#   {note}");
    }
    for (name, value) in &outcome.metrics {
        let unit = units.iter().find(|(n, _)| n == name).map_or("", |(_, u)| u);
        println!("#   {name:<26} {value:>14.6} {unit}");
    }
    println!(
        "#   {:<26} {:>14.6} ({} of {} failed)",
        "failed_frac",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted
    );
    println!("{}", result_line(&outcome, units)?);
    Ok(())
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("sweep-child") => sweep::child(&args[1..], started),
        Some("serve-setup-child") => serve::setup_child(&args[1..], started),
        _ => parse_args(&args).and_then(|a| bench(&a)),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root names exactly the
    /// metrics and workloads this binary prints.
    #[test]
    fn benchmark_json_matches_the_metric_lists() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let names: Vec<&str> = text
            .split("\"name\": \"")
            .skip(1)
            .map(|s| &s[..s.find('"').expect("closing quote")])
            .collect();
        let mut want: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        want.extend(END_TO_END.iter().map(|(n, _)| *n));
        want.extend(PER_LAYER.iter().map(|(n, _)| *n));
        assert_eq!(names, want);
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                text.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name} must be declared with unit {unit}"
            );
        }
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let outcome = Outcome {
            attempted: 3,
            failed: 0,
            metrics: vec![("setup_s", 0.25)],
            notes: Vec::new(),
        };
        assert_eq!(
            result_line(&outcome, END_TO_END).unwrap(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        assert!(result_line(&outcome, PER_LAYER).is_err());
    }

    #[test]
    fn args_are_strict() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv(
            "--workload large_pop --seed 3 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, Workload::LargePop);
        assert!(a.trace);
        assert!(parse_args(&argv("--workload nope --seed 3 --seconds 10 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload large_pop --seed 3 --seconds 10")).is_err());
        assert!(parse_args(&argv("--workload large_pop --seed 3 --seconds 0 --trace 0")).is_err());
    }
}
