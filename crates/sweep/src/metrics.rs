//! The `METRICS_<name>.json` artifact: one machine-readable snapshot of
//! a sweep invocation's execution profile, written by
//! `repro sweep --metrics`.
//!
//! This file **supersedes** the PR-4 `SWEEP_<name>.timing.json`: every
//! field that file carried (`wall_s`, shard/cell/simulation counts)
//! is here except its fused flag (every sweep runs fused), joined by the telemetry registry's counters and
//! duration histograms so CI and humans read one artifact instead of
//! two.
//!
//! # Schema (`antdensity-metrics v3`)
//!
//! ```json
//! {
//!   "schema": "antdensity-metrics v3",
//!   "sweep": "alg1_accuracy",          // spec name
//!   "mode": "quick",                   // quick | full
//!   "complete": true,                  // every shard finished
//!   "wall_s": 1.234,                   // wall clock of this invocation
//!   "shards": 8,                       // fused shards in the plan
//!   "executed": 8,                     // shards run by this invocation
//!   "resumed": 0,                      // shards restored from checkpoint
//!   "cells": 24,                       // grid cells served
//!   "simulations": 16,                 // fused passes run (trials × shards)
//!   "simulated_rounds": 4096,          // rounds summed over passes
//!   "workers_requested": 8,            // --workers (or default)
//!   "workers_effective": 8,            // clamped to the pool size
//!   "dist": {                          // v2: distributed-run counters
//!     "workers_seen": 4,               //   distinct workers that said HELLO
//!     "leases": 10,                    //   leases issued
//!     "reissues": 2,                   //   leases re-issued after expiry
//!     "respawns": 1,                   //   worker respawn attempts
//!     "duplicates": 1,                 //   byte-equal duplicate results
//!     "deaths": 1,                     //   worker transports lost
//!     "nacks": 0,                      //   refused leases
//!     "bad_frames": 0,                 //   undecodable/corrupt frames
//!     "degraded": 0                    //   shards run in-process after loss
//!   },
//!   "cache": {                         // v3: shard result cache counters
//!     "hits": 6,                       //   shards served from the cache
//!     "misses": 2,                     //   lookups that found nothing
//!     "stores": 2,                     //   blobs published
//!     "corrupt": 0,                    //   entries that failed verification
//!     "bytes_read": 8192,              //   payload bytes served
//!     "bytes_written": 2048,           //   entry bytes written
//!     "evictions": 0,                  //   entries removed by LRU passes
//!     "verify_failures": 0             //   --cache-verify byte mismatches
//!   },
//!   "counters": {                      // telemetry counters, name-sorted
//!     "engine.rounds": 4096,
//!     "sweep.rounds_saved_by_fusion": 1024
//!   },
//!   "histograms": {                    // telemetry duration histograms
//!     "engine.round": {
//!       "count": 4096,                 // recorded durations
//!       "sum_ns": 123456789,           // total time, nanoseconds
//!       "mean_ns": 30140.8,
//!       "p50_ns": 29000.0,             // log-bucket quantiles
//!       "p90_ns": 41000.0,
//!       "p99_ns": 52000.0
//!     }
//!   }
//! }
//! ```
//!
//! Counters and histograms are whatever the registry holds at snapshot
//! time, sorted by name; consumers must treat the *sets* of keys under
//! `counters`/`histograms` as open (new instrumentation appears over
//! time), while the top-level keys above are the stable contract
//! [`validate`] enforces.
//!
//! An in-process run writes `"dist": null`; a cache-off run writes
//! `"cache": null`. [`validate`] also accepts the previous markers:
//! `antdensity-metrics v2` (has `dist`, predates `cache`) and
//! `antdensity-metrics v1` (neither key) — old artifacts keep
//! validating. Files written before every sweep ran fused carry a
//! boolean `fused` key; like any top-level key outside the contract
//! it is ignored.
//!
//! The file is built as a [`Json`] value and written with
//! [`Json::encode_pretty`]; [`validate`] parses it back with
//! [`Json::parse`] and decodes it key by key. The `dist`, `cache` and
//! histogram members come from one field table each, shared by the
//! writer and the decoder.

use crate::cache::CacheStats;
use crate::dist::DistStats;
use crate::report::{fields_json, Field};
use crate::runner::SweepOutcome;
use antdensity_telemetry::{self as telemetry, HistogramSnapshot, Json};
use std::path::{Path, PathBuf};

/// A sweep invocation's execution metrics, ready to serialize.
#[derive(Debug, Clone)]
pub struct SweepMetrics {
    /// Sweep name (output-file stem).
    pub name: String,
    /// `quick` or `full`.
    pub mode: &'static str,
    /// Whether every shard completed.
    pub complete: bool,
    /// Wall-clock seconds of this invocation.
    pub wall_s: f64,
    /// Fused shards in the plan.
    pub shards: usize,
    /// Shards executed by this invocation.
    pub executed: usize,
    /// Shards restored from a checkpoint.
    pub resumed: usize,
    /// Grid cells served.
    pub cells: usize,
    /// Simulation passes this invocation ran.
    pub simulations: u64,
    /// Rounds simulated across those passes.
    pub simulated_rounds: u64,
    /// Worker threads requested.
    pub workers_requested: usize,
    /// Worker threads actually usable (request clamped to pool size).
    pub workers_effective: usize,
    /// Distributed-run counters (`None` for in-process runs, rendered
    /// as `"dist": null`).
    pub dist: Option<DistStats>,
    /// Shard result cache counters (`None` for cache-off runs,
    /// rendered as `"cache": null`).
    pub cache: Option<CacheStats>,
    /// Telemetry registry state at snapshot time.
    pub snapshot: telemetry::Snapshot,
}

impl SweepMetrics {
    /// Assembles metrics from a sweep outcome (its distributed-run
    /// counters included), the measured wall clock, and a telemetry
    /// snapshot (normally `telemetry::snapshot()` taken
    /// right after the sweep returns).
    pub fn from_outcome(
        outcome: &SweepOutcome,
        wall_s: f64,
        snapshot: telemetry::Snapshot,
    ) -> Self {
        Self {
            name: outcome.resolved.name.clone(),
            mode: outcome.resolved.mode,
            complete: outcome.complete,
            wall_s,
            shards: outcome.resolved.fused.len(),
            executed: outcome.executed,
            resumed: outcome.resumed,
            cells: outcome.resolved.cells.len(),
            simulations: outcome.simulations,
            simulated_rounds: outcome.simulated_rounds,
            workers_requested: outcome.workers_requested,
            workers_effective: outcome.workers_effective,
            dist: outcome.dist.clone(),
            cache: None,
            snapshot,
        }
    }

    /// Attaches shard-cache counters, marking the file as coming from
    /// a `--cache` invocation.
    #[must_use]
    pub fn with_cache(mut self, stats: CacheStats) -> Self {
        self.cache = Some(stats);
        self
    }

    /// JSON per the schema above. Deterministic: keys appear in a
    /// fixed order, counters and histograms sorted by name (the
    /// registry already stores them that way).
    pub fn to_json(&self) -> String {
        let snap = &self.snapshot;
        let counters = snap.counters.iter().map(|(k, v)| (k.clone(), (*v).into()));
        let histograms = snap
            .histograms
            .iter()
            .map(|(k, h)| (k.clone(), fields_json(HISTOGRAM_FIELDS, h)));
        let dist = self.dist.as_ref().map(|d| fields_json(DIST_FIELDS, d));
        let cache = self.cache.as_ref().map(|c| fields_json(CACHE_FIELDS, c));
        Json::obj([
            ("schema", SCHEMA.into()),
            ("sweep", self.name.as_str().into()),
            ("mode", self.mode.into()),
            ("complete", self.complete.into()),
            ("wall_s", Json::rounded(self.wall_s, 3)),
            ("shards", self.shards.into()),
            ("executed", self.executed.into()),
            ("resumed", self.resumed.into()),
            ("cells", self.cells.into()),
            ("simulations", self.simulations.into()),
            ("simulated_rounds", self.simulated_rounds.into()),
            ("workers_requested", self.workers_requested.into()),
            ("workers_effective", self.workers_effective.into()),
            ("dist", dist.into()),
            ("cache", cache.into()),
            ("counters", Json::obj(counters)),
            ("histograms", Json::obj(histograms)),
        ])
        .encode_pretty()
    }

    /// Writes `dir/METRICS_<name>.json` and returns its path.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating the directory or file.
    pub fn write(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("METRICS_{}.json", self.name));
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }
}

/// The schema identifier newly written metrics files carry
/// ([`crate::schema::METRICS_V3`]).
pub const SCHEMA: &str = crate::schema::METRICS_V3;

/// The v2 schema identifier, still accepted by [`validate`]
/// ([`crate::schema::METRICS_V2`]): has `dist`, predates `cache`.
pub const SCHEMA_V2: &str = crate::schema::METRICS_V2;

/// The v1 schema identifier, still accepted by [`validate`]
/// ([`crate::schema::METRICS_V1`]): predates both sections.
pub const SCHEMA_V1: &str = crate::schema::METRICS_V1;

/// A figure that has a JSON spelling: non-finite values write as `0`.
fn finite(v: f64) -> Json {
    Json::num(if v.is_finite() { v } else { 0.0 })
}

/// The counters of a non-null `dist` object, which [`validate`]
/// requires as non-negative integers.
const DIST_FIELDS: &[Field<DistStats>] = &[
    ("workers_seen", |d| d.workers_seen.into()),
    ("leases", |d| d.leases.into()),
    ("reissues", |d| d.reissues.into()),
    ("respawns", |d| d.respawns.into()),
    ("duplicates", |d| d.duplicates.into()),
    ("deaths", |d| d.deaths.into()),
    ("nacks", |d| d.nacks.into()),
    ("bad_frames", |d| d.bad_frames.into()),
    ("degraded", |d| d.degraded.into()),
];

/// The counters of a non-null `cache` object, which [`validate`]
/// requires as non-negative integers.
const CACHE_FIELDS: &[Field<CacheStats>] = &[
    ("hits", |c| c.hits.into()),
    ("misses", |c| c.misses.into()),
    ("stores", |c| c.stores.into()),
    ("corrupt", |c| c.corrupt.into()),
    ("bytes_read", |c| c.bytes_read.into()),
    ("bytes_written", |c| c.bytes_written.into()),
    ("evictions", |c| c.evictions.into()),
    ("verify_failures", |c| c.verify_failures.into()),
];

/// The figures of each `histograms` entry, which [`validate`] requires
/// as numbers.
const HISTOGRAM_FIELDS: &[Field<HistogramSnapshot>] = &[
    ("count", |h| h.count.into()),
    ("sum_ns", |h| h.sum_ns.into()),
    ("mean_ns", |h| finite(h.mean_ns())),
    ("p50_ns", |h| finite(h.quantile_ns(0.5))),
    ("p90_ns", |h| finite(h.quantile_ns(0.9))),
    ("p99_ns", |h| finite(h.quantile_ns(0.99))),
];

/// What [`validate`] extracts from a well-formed metrics file — enough
/// for CI to print a one-line summary after asserting the schema.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSummary {
    /// Sweep name.
    pub name: String,
    /// Wall-clock seconds recorded.
    pub wall_s: f64,
    /// Number of counter entries.
    pub counters: usize,
    /// Number of histogram entries.
    pub histograms: usize,
    /// Schema version the file declared (1, 2, or 3).
    pub schema_version: u32,
    /// Whether a non-null `dist` section was present (v2+ distributed
    /// runs only).
    pub dist: bool,
    /// Whether a non-null `cache` section was present (v3 `--cache`
    /// runs only).
    pub cache: bool,
}

/// Validates a `METRICS_*.json` file's text against the
/// `antdensity-metrics v3` contract (or the still-accepted v2/v1): it
/// parses the text as JSON, then decodes the one object it must hold.
/// That object needs the schema marker, every required top-level key
/// once, each with its type (strings, a boolean, a finite non-negative
/// `wall_s`, non-negative integer counts), and `counters` and
/// `histograms` objects of numbers. Under v3 both the `dist` and
/// `cache` keys must be present — `null` when the corresponding
/// subsystem was off, an object with every counter otherwise; v2 has
/// `dist` but must not have `cache`; v1 has neither. Backs
/// `repro check-metrics`.
///
/// # Errors
///
/// Returns a one-line description of the first violation found.
pub fn validate(text: &str) -> Result<MetricsSummary, String> {
    let doc = Json::parse(text)
        .map_err(|e| format!("not a JSON object (truncated file or unbalanced braces?): {e}"))?;
    let Json::Obj(members) = &doc else {
        return Err("not a JSON object".to_string());
    };
    for (i, (key, _)) in members.iter().enumerate() {
        if members[..i].iter().any(|(k, _)| k == key) {
            return Err(format!("duplicate key `{key}`"));
        }
    }
    let schema_version = match doc.get("schema").and_then(Json::as_str) {
        Some(SCHEMA) => 3,
        Some(SCHEMA_V2) => 2,
        Some(SCHEMA_V1) => 1,
        _ => {
            return Err(format!(
                "missing or wrong schema marker (want `{SCHEMA}`, `{SCHEMA_V2}`, or `{SCHEMA_V1}`)"
            ))
        }
    };
    let field = |key: &str| {
        doc.get(key)
            .ok_or_else(|| format!("missing required key `{key}`"))
    };
    let name = field("sweep")?.as_str().ok_or("`sweep` is not a string")?;
    field("mode")?.as_str().ok_or("`mode` is not a string")?;
    field("complete")?
        .as_bool()
        .ok_or("`complete` is not a boolean")?;
    let wall_s = number(field("wall_s")?, "wall_s")?;
    if !wall_s.is_finite() || wall_s < 0.0 {
        return Err(format!("`wall_s` out of range: {wall_s}"));
    }
    for key in [
        "shards",
        "executed",
        "resumed",
        "cells",
        "simulations",
        "simulated_rounds",
        "workers_requested",
        "workers_effective",
    ] {
        count(field(key)?, key)?;
    }
    let dist = section(&doc, schema_version, "dist", DIST_FIELDS, 2)?;
    let cache = section(&doc, schema_version, "cache", CACHE_FIELDS, 3)?;
    let entries = |key: &str| match field(key)? {
        Json::Obj(entries) => Ok(entries),
        _ => Err(format!("`{key}` is not an object")),
    };
    let (counters, histograms) = (entries("counters")?, entries("histograms")?);
    for (name, v) in counters {
        count(v, &format!("counters.{name}"))?;
    }
    for (name, h) in histograms {
        for (key, _) in HISTOGRAM_FIELDS {
            let v = h
                .get(key)
                .ok_or_else(|| format!("`histograms.{name}` missing required key `{key}`"))?;
            number(v, &format!("histograms.{name}.{key}"))?;
        }
    }
    Ok(MetricsSummary {
        name: name.to_string(),
        wall_s,
        counters: counters.len(),
        histograms: histograms.len(),
        schema_version,
        dist,
        cache,
    })
}

/// The value at `path` as a number.
fn number(v: &Json, path: &str) -> Result<f64, String> {
    v.as_f64()
        .ok_or_else(|| format!("`{path}` is not a number: `{}`", v.encode()))
}

/// Checks that the value at `path` is a non-negative integer.
fn count(v: &Json, path: &str) -> Result<(), String> {
    let n = number(v, path)?;
    match v.as_u64() {
        Some(_) => Ok(()),
        None => Err(format!("`{path}` is not a non-negative integer: {n}")),
    }
}

/// Decodes the versioned optional section `key`: forbidden before
/// schema version `since`, required from it on as `null` (`Ok(false)`)
/// or an object carrying every field as a non-negative integer
/// (`Ok(true)`).
fn section<T>(
    doc: &Json,
    schema_version: u32,
    key: &str,
    fields: &[Field<T>],
    since: u32,
) -> Result<bool, String> {
    match doc.get(key) {
        None if schema_version < since => Ok(false),
        Some(_) if schema_version < since => Err(format!(
            "v{schema_version} file carries a `{key}` key (bump the schema marker)"
        )),
        Some(Json::Null) => Ok(false),
        Some(obj @ Json::Obj(_)) => {
            for (k, _) in fields {
                let v = obj
                    .get(k)
                    .ok_or_else(|| format!("`{key}` object missing required key `{k}`"))?;
                count(v, &format!("{key}.{k}"))?;
            }
            Ok(true)
        }
        _ => Err(format!(
            "v{schema_version} file needs `{key}`: null or an object"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run_sweep, SweepOptions};
    use crate::spec::SweepSpec;

    fn demo_metrics() -> SweepMetrics {
        antdensity_telemetry::set_enabled(true);
        let spec = SweepSpec::parse(
            "
            name = metrics_test
            trials = 2
            topology = complete:32
            density = 0.25
            rounds = 4, 8
            ",
        )
        .unwrap();
        let outcome = run_sweep(&spec, &SweepOptions::default()).unwrap();
        SweepMetrics::from_outcome(&outcome, 0.125, antdensity_telemetry::snapshot())
    }

    #[test]
    fn metrics_json_round_trips_the_outcome_counters() {
        let m = demo_metrics();
        assert_eq!(m.shards, 1);
        assert_eq!(m.cells, 2);
        assert_eq!(m.simulations, 2);
        assert_eq!(m.simulated_rounds, 16);
        assert!(m.workers_effective >= 1);
        assert!(m.workers_effective <= m.workers_requested);
        let json = m.to_json();
        assert!(json.contains("\"schema\": \"antdensity-metrics v3\""));
        assert!(json.contains("\"dist\": null"));
        assert!(json.contains("\"cache\": null"));
        assert!(!json.contains("\"fused\""));
        assert!(json.contains("\"wall_s\": 0.125"));
        assert!(json.contains("\"simulated_rounds\": 16"));
        // telemetry was live: the sweep-layer counters are in the file
        assert!(json.contains("\"sweep.shards_completed\":"));
        assert!(json.contains("\"sweep.shard\": {\"count\":"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn metrics_json_validates_and_summarizes() {
        let m = demo_metrics();
        let summary = validate(&m.to_json()).unwrap();
        assert_eq!(summary.name, "metrics_test");
        assert!((summary.wall_s - 0.125).abs() < 1e-9);
        assert_eq!(summary.counters, m.snapshot.counters.len());
        assert_eq!(summary.histograms, m.snapshot.histograms.len());
        assert_eq!(summary.schema_version, 3);
        assert!(!summary.dist);
        assert!(!summary.cache);
    }

    #[test]
    fn dist_section_round_trips_and_validates() {
        let stats = crate::dist::DistStats {
            workers_seen: 4,
            leases: 10,
            reissues: 2,
            respawns: 1,
            duplicates: 1,
            deaths: 1,
            nacks: 0,
            bad_frames: 0,
            degraded: 0,
        };
        let mut m = demo_metrics();
        m.dist = Some(stats);
        let json = m.to_json();
        assert!(json.contains("\"dist\": {"));
        assert!(json.contains("\"workers_seen\": 4"));
        assert!(json.contains("\"reissues\": 2"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        let summary = validate(&json).unwrap();
        assert_eq!(summary.schema_version, 3);
        assert!(summary.dist);
        // a dist object missing a counter is rejected
        let broken = json.replace("    \"respawns\": 1,\n", "");
        assert!(validate(&broken).unwrap_err().contains("respawns"));
    }

    #[test]
    fn cache_section_round_trips_and_validates() {
        let stats = crate::cache::CacheStats {
            hits: 6,
            misses: 2,
            stores: 2,
            corrupt: 1,
            bytes_read: 8192,
            bytes_written: 2048,
            evictions: 0,
            verify_failures: 0,
        };
        let m = demo_metrics().with_cache(stats);
        let json = m.to_json();
        assert!(json.contains("\"cache\": {"));
        assert!(json.contains("\"hits\": 6"));
        assert!(json.contains("\"verify_failures\": 0"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        let summary = validate(&json).unwrap();
        assert_eq!(summary.schema_version, 3);
        assert!(summary.cache);
        assert!(!summary.dist);
        // a cache object missing a counter is rejected
        let broken = json.replace("    \"evictions\": 0,\n", "");
        assert!(validate(&broken).unwrap_err().contains("evictions"));
    }

    #[test]
    fn v2_files_without_cache_still_validate() {
        let m = demo_metrics();
        let v2 = m
            .to_json()
            .replace(SCHEMA, SCHEMA_V2)
            .replace("  \"cache\": null,\n", "");
        let summary = validate(&v2).unwrap();
        assert_eq!(summary.schema_version, 2);
        assert!(!summary.cache);
        // ...but a v2 marker with a cache key is a schema violation
        let mixed = m.to_json().replace(SCHEMA, SCHEMA_V2);
        assert!(validate(&mixed).unwrap_err().contains("bump the schema"));
        // and a v3 file that dropped cache entirely is rejected
        let dropped = m.to_json().replace("  \"cache\": null,\n", "");
        assert!(validate(&dropped).unwrap_err().contains("cache"));
    }

    #[test]
    fn v1_files_without_dist_still_validate() {
        let m = demo_metrics();
        let v1 = m
            .to_json()
            .replace(SCHEMA, SCHEMA_V1)
            .replace("  \"dist\": null,\n", "")
            .replace("  \"cache\": null,\n", "");
        let summary = validate(&v1).unwrap();
        assert_eq!(summary.schema_version, 1);
        assert!(!summary.dist);
        assert!(!summary.cache);
        // ...but a v1 marker with a dist key is a schema violation
        let mixed = m
            .to_json()
            .replace(SCHEMA, SCHEMA_V1)
            .replace("  \"cache\": null,\n", "");
        assert!(validate(&mixed).unwrap_err().contains("bump the schema"));
        // and a v3 file that dropped dist entirely is rejected
        let dropped = m.to_json().replace("  \"dist\": null,\n", "");
        assert!(validate(&dropped).unwrap_err().contains("dist"));
    }

    /// Files from before every sweep ran fused carry a boolean `fused`
    /// key; it is no longer required, and a file with it (`true` or
    /// `false`, under any schema marker) still validates, to the same
    /// summary as one without.
    #[test]
    fn files_with_and_without_the_retired_fused_key_validate() {
        let m = demo_metrics();
        let without = m.to_json();
        let flagged = |fused: &str| {
            without.replacen(
                "  \"complete\":",
                &format!("  \"fused\": {fused},\n  \"complete\":"),
                1,
            )
        };
        let summary = validate(&without).unwrap();
        for fused in ["true", "false"] {
            let old = flagged(fused);
            assert_ne!(old, without, "the edit did not apply");
            assert_eq!(validate(&old).unwrap(), summary);
            for (schema, strip) in [(SCHEMA_V2, "cache"), (SCHEMA_V1, "dist")] {
                let mut older = old.replace(SCHEMA, schema);
                for key in ["cache", strip] {
                    older = older.replace(&format!("  \"{key}\": null,\n"), "");
                }
                validate(&older).unwrap();
            }
        }
    }

    #[test]
    fn validate_rejects_broken_files() {
        let m = demo_metrics();
        let good = m.to_json();
        assert!(validate("").unwrap_err().contains("JSON object"));
        assert!(validate("{\"schema\": \"v0\"}")
            .unwrap_err()
            .contains("schema marker"));
        // truncation → unbalanced braces
        let truncated = &good[..good.len() - 10];
        assert!(validate(truncated).unwrap_err().contains("braces"));
        // a renamed top-level key is caught
        let renamed = good.replace("\"wall_s\":", "\"walls\":");
        assert!(validate(&renamed).unwrap_err().contains("wall_s"));
        // a non-numeric count is caught
        let corrupt = good.replace("\"shards\": 1", "\"shards\": one");
        assert!(validate(&corrupt).unwrap_err().contains("not a number"));
    }

    #[test]
    fn validate_rejects_what_a_substring_scan_let_through() {
        let m = demo_metrics();
        let good = m.to_json();
        validate(&good).unwrap();
        let mode = format!("\"mode\": \"{}\"", m.mode);
        let cases = [
            (
                good.replace("\"simulations\": 2,", "\"simulations\": \"many\","),
                "`simulations` is not a number",
            ),
            (
                good.replace("\"complete\": true", "\"complete\": 3"),
                "`complete`",
            ),
            (good.replace(&mode, "\"mode\": 7"), "`mode`"),
            (format!("{good}trailing text\n"), "trailing garbage"),
            (
                good.replacen("  \"sweep\":", "  \"cells\": 2,\n  \"sweep\":", 1),
                "duplicate key `cells`",
            ),
        ];
        for (text, want) in cases {
            assert_ne!(text, good, "{want}: the edit did not apply");
            let err = validate(&text).unwrap_err();
            assert!(err.contains(want), "want {want:?}, got {err:?}");
        }
    }

    #[test]
    fn write_emits_metrics_file() {
        let dir = std::env::temp_dir().join(format!("antdensity_metrics_{}", std::process::id()));
        let path = demo_metrics().write(&dir).unwrap();
        assert!(path.ends_with("METRICS_metrics_test.json"));
        let text = std::fs::read_to_string(&path).unwrap();
        validate(&text).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
