//! Sweep reports: terminal table, CSV, and JSON.
//!
//! One row per completed cell, in shard order. Alongside the measured
//! aggregates each row carries the paper's predicted error bound for
//! the cell (`antdensity_core::theory::predicted_epsilon`, unit
//! constants) where the paper has one — so a committed spec
//! regenerates an accuracy table with theory and measurement side by
//! side. All output is a deterministic function of the aggregates,
//! which is what lets the determinism suite compare resumed runs
//! byte-for-byte.

use crate::runner::SweepOutcome;
use crate::spec::SkippedCell;
use antdensity_core::theory::{theory_bound, uses_measured_gap, warm_measured_lambdas};
use antdensity_stats::table::{format_sig, Table};
use antdensity_telemetry::Json;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// One completed cell's report row.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRow {
    /// Shard index.
    pub index: usize,
    /// Topology axis token.
    pub topology: String,
    /// Density axis value.
    pub density: f64,
    /// Agents placed.
    pub agents: usize,
    /// Rounds per trial.
    pub rounds: u64,
    /// Estimator token (resolved form).
    pub estimator: String,
    /// Movement token.
    pub movement: String,
    /// Noise token.
    pub noise: String,
    /// Trials recorded.
    pub trials: u64,
    /// Error samples pooled (agents × trials, minus undefined).
    pub samples: u64,
    /// Mean per-agent estimate.
    pub est_mean: f64,
    /// Std-dev of per-agent estimates.
    pub est_sd: f64,
    /// Mean relative error.
    pub err_mean: f64,
    /// Median relative error (histogram resolution); `None` when the
    /// cell recorded no error samples.
    pub err_median: Option<f64>,
    /// `(1 − delta)`-quantile of the relative error; `None` when the
    /// cell recorded no error samples.
    pub err_q: Option<f64>,
    /// Fraction of samples with error within the band.
    pub within: f64,
    /// Paper-predicted error bound (unit constants), where applicable.
    pub bound: Option<f64>,
    /// How the bound was derived: `closed-form` (a paper theorem for
    /// the topology), `measured-gap` (numeric spectral-gap surrogate —
    /// the path every `csr:*` graph takes), or empty when no bound
    /// applies.
    pub bound_src: &'static str,
    /// Estimator-specific mean (quorum accuracy / mean `f̃`).
    pub aux_mean: Option<f64>,
}

/// One member of a document object (a CSV column, for report rows):
/// its key and how to read it.
pub(crate) type Field<T> = (&'static str, fn(&T) -> Json);

/// An object with one member per field, in table order.
pub(crate) fn fields_json<T>(fields: &[Field<T>], value: &T) -> Json {
    Json::obj(fields.iter().map(|(key, get)| (*key, get(value))))
}

/// A row's members in `SWEEP_<name>.json` and its columns in
/// `SWEEP_<name>.csv`, in order.
const ROW_FIELDS: [Field<SweepRow>; 19] = [
    ("index", |r| r.index.into()),
    ("topology", |r| r.topology.as_str().into()),
    ("density", |r| r.density.into()),
    ("agents", |r| r.agents.into()),
    ("rounds", |r| r.rounds.into()),
    ("estimator", |r| r.estimator.as_str().into()),
    ("movement", |r| r.movement.as_str().into()),
    ("noise", |r| r.noise.as_str().into()),
    ("trials", |r| r.trials.into()),
    ("samples", |r| r.samples.into()),
    ("est_mean", |r| r.est_mean.into()),
    ("est_sd", |r| r.est_sd.into()),
    ("err_mean", |r| r.err_mean.into()),
    ("err_median", |r| r.err_median.into()),
    ("err_q", |r| r.err_q.into()),
    ("within", |r| r.within.into()),
    ("bound", |r| r.bound.into()),
    ("bound_src", |r| r.bound_src.into()),
    ("aux_mean", |r| r.aux_mean.into()),
];

/// A rendered-ready sweep report.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// Sweep name (output-file stem).
    pub name: String,
    /// `quick` or `full`.
    pub mode: &'static str,
    /// Master seed.
    pub seed: u64,
    /// Trials per cell.
    pub trials: u64,
    /// Within-band threshold.
    pub band: f64,
    /// Quantile/bound failure probability.
    pub delta: f64,
    /// Whether every shard completed.
    pub complete: bool,
    /// Total cells in the grid.
    pub total_cells: usize,
    /// Dropped combinations.
    pub skipped: Vec<SkippedCell>,
    /// Completed-cell rows in shard order.
    pub rows: Vec<SweepRow>,
}

/// Builds one cell's report row from its aggregate — the unit
/// [`build_report`] assembles and the serve daemon streams as each
/// shard lands. Deterministic in `(resolved, cell_idx, agg)`.
///
/// # Panics
///
/// Panics if `cell_idx` is out of range.
pub fn build_row(
    resolved: &crate::spec::ResolvedSweep,
    cell_idx: usize,
    agg: &crate::aggregate::CellAggregate,
) -> SweepRow {
    let cell = &resolved.cells[cell_idx];
    let q_hi = 1.0 - resolved.delta;
    let d_true = cell.true_density();
    let bound = theory_bound(
        cell.topology,
        &cell.estimator,
        cell.rounds,
        d_true,
        resolved.delta,
    );
    SweepRow {
        index: cell.index,
        topology: cell.topology.to_string(),
        density: cell.density,
        agents: cell.num_agents,
        rounds: cell.rounds,
        estimator: cell.estimator.to_string(),
        movement: cell.movement.to_string(),
        noise: cell.noise_label(),
        trials: agg.trials,
        samples: agg.err.count(),
        est_mean: agg.est.mean(),
        est_sd: agg.est.std_dev(),
        err_mean: agg.err.mean(),
        // A cell can legitimately record zero error samples
        // (e.g. relative frequency with no observed collisions:
        // every f̃ undefined) — report empty quantiles, don't
        // panic after all the compute is done.
        err_median: (agg.err.count() > 0).then(|| agg.err_quantile(0.5)),
        err_q: (agg.err.count() > 0).then(|| agg.err_quantile(q_hi)),
        within: agg.within_fraction(),
        bound: bound.epsilon,
        bound_src: bound.source.as_str(),
        aux_mean: (agg.aux.count() > 0).then(|| agg.aux.mean()),
    }
}

/// Builds the report for a (possibly partial) sweep outcome.
pub fn build_report(outcome: &SweepOutcome) -> SweepReport {
    let resolved = &outcome.resolved;
    warm_lambdas(outcome);
    let rows = resolved
        .cells
        .iter()
        .zip(&outcome.aggregates)
        .filter_map(|(cell, agg)| {
            let agg = agg.as_ref()?;
            Some(build_row(resolved, cell.index, agg))
        })
        .collect();
    SweepReport {
        name: resolved.name.clone(),
        mode: resolved.mode,
        seed: resolved.seed,
        trials: resolved.trials,
        band: resolved.band,
        delta: resolved.delta,
        complete: outcome.complete,
        total_cells: resolved.cells.len(),
        skipped: resolved.skipped.clone(),
        rows,
    }
}

/// Measures the λ of every distinct measured-gap topology among the
/// completed cells concurrently, at most `workers_effective` at once
/// on the worker pool (idle once the shards are done), so the rows
/// built next read a warm memo. With one worker or one such topology
/// the rows measure serially. The report bytes do not depend on the
/// worker count: each λ is a pure function of its spec.
fn warm_lambdas(outcome: &SweepOutcome) {
    let mut specs = Vec::new();
    for (cell, agg) in outcome.resolved.cells.iter().zip(&outcome.aggregates) {
        if agg.is_some()
            && uses_measured_gap(cell.topology, &cell.estimator)
            && !specs.contains(&cell.topology)
        {
            specs.push(cell.topology);
        }
    }
    if outcome.workers_effective > 1 && specs.len() > 1 {
        warm_measured_lambdas(&specs, outcome.workers_effective);
    }
}

impl SweepReport {
    /// Renders the terminal table plus headline lines.
    pub fn render(&self) -> String {
        let q_label = format!("err_q{:02}", ((1.0 - self.delta) * 100.0).round() as u64);
        let mut t = Table::new(
            &format!("sweep {} ({} mode)", self.name, self.mode),
            &[
                "topology",
                "d",
                "t",
                "estimator",
                "movement",
                "noise",
                "est_mean",
                "err_mean",
                q_label.as_str(),
                "within",
                "bound",
                "src",
            ],
        );
        for r in &self.rows {
            t.row_owned(vec![
                r.topology.clone(),
                format_sig(r.density, 3),
                r.rounds.to_string(),
                r.estimator.clone(),
                r.movement.clone(),
                r.noise.clone(),
                format_sig(r.est_mean, 4),
                format_sig(r.err_mean, 4),
                r.err_q.map_or_else(String::new, |v| format_sig(v, 4)),
                format_sig(r.within, 3),
                r.bound.map_or_else(String::new, |b| format_sig(b, 4)),
                r.bound_src.to_string(),
            ]);
        }
        t.note(&format!(
            "band = {}, delta = {}, trials/cell = {}; bound = predicted epsilon (unit constants), \
             src = closed-form | measured-gap",
            self.band, self.delta, self.trials
        ));
        let mut out = t.render();
        out.push_str(&format!(
            "  => {} of {} cells complete ({} skipped combination{})\n",
            self.rows.len(),
            self.total_cells,
            self.skipped.len(),
            if self.skipped.len() == 1 { "" } else { "s" }
        ));
        if !self.complete {
            out.push_str("  => PARTIAL RUN — resume from the checkpoint to finish\n");
        }
        out
    }

    /// CSV: one row per completed cell, one column per
    /// `ROW_FIELDS` entry, full float precision, blank where JSON has
    /// `null`. Axis tokens containing commas or quotes (e.g. a
    /// library-built `biased:0.5,0.25` movement) are quoted per RFC 4180
    /// so columns never shift.
    pub fn to_csv(&self) -> String {
        let mut out = ROW_FIELDS.map(|(key, _)| key).join(",");
        for r in &self.rows {
            for (i, (_, get)) in ROW_FIELDS.iter().enumerate() {
                out.push(if i == 0 { '\n' } else { ',' });
                match get(r) {
                    Json::Str(s) if s.contains([',', '"', '\n']) => {
                        out.push_str(&format!("\"{}\"", s.replace('"', "\"\"")));
                    }
                    Json::Str(s) => out.push_str(&s),
                    Json::Num(x) => {
                        let _ = write!(out, "{x}");
                    }
                    Json::U64(x) => {
                        let _ = write!(out, "{x}");
                    }
                    _ => {}
                }
            }
        }
        out.push('\n');
        out
    }

    /// JSON: sweep metadata, skipped combinations, and the rows, one
    /// per line ([`Json::encode_pretty`]).
    pub fn to_json(&self) -> String {
        let skipped = self.skipped.iter().map(|s| {
            Json::obj([
                ("cell", s.label.as_str().into()),
                ("reason", s.reason.as_str().into()),
            ])
        });
        let rows = self.rows.iter().map(|r| fields_json(&ROW_FIELDS, r));
        Json::obj([
            ("sweep", self.name.as_str().into()),
            ("mode", self.mode.into()),
            ("seed", self.seed.into()),
            ("trials", self.trials.into()),
            ("band", self.band.into()),
            ("delta", self.delta.into()),
            ("complete", self.complete.into()),
            ("cells", self.total_cells.into()),
            ("skipped", Json::Arr(skipped.collect())),
            ("rows", Json::Arr(rows.collect())),
        ])
        .encode_pretty()
    }

    /// Writes `dir/SWEEP_<name>.json` and `dir/SWEEP_<name>.csv`,
    /// returning both paths (JSON first).
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating the directory or files.
    pub fn write(&self, dir: &Path) -> std::io::Result<(PathBuf, PathBuf)> {
        std::fs::create_dir_all(dir)?;
        let json = dir.join(format!("SWEEP_{}.json", self.name));
        let csv = dir.join(format!("SWEEP_{}.csv", self.name));
        std::fs::write(&json, self.to_json())?;
        std::fs::write(&csv, self.to_csv())?;
        Ok((json, csv))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run_sweep, SweepOptions};
    use crate::spec::SweepSpec;

    fn demo_report() -> SweepReport {
        let spec = SweepSpec::parse(
            "
            name = report_test
            seed = 3
            trials = 2
            topology = torus2d:8
            density = 0.1, 0.3
            rounds = 4, 8   # alg4 needs t < 8 for the second value
            estimator = alg1, alg4, quorum:0.05
            ",
        )
        .unwrap();
        build_report(&run_sweep(&spec, &SweepOptions::default()).unwrap())
    }

    #[test]
    fn report_has_rows_bounds_and_skips() {
        let r = demo_report();
        assert!(r.complete);
        // alg4 keeps t=4 only → 2 densities × (2 + 1 + 2) = 10 rows
        assert_eq!(r.rows.len(), 10);
        assert_eq!(r.skipped.len(), 2);
        // alg1/alg4/quorum all carry a paper bound on the torus
        assert!(r.rows.iter().all(|row| row.bound.is_some()));
        assert!(r.rows.iter().all(|row| row.bound_src == "closed-form"));
        // quorum rows carry an accuracy aux; alg1/alg4 rows do not
        for row in &r.rows {
            assert_eq!(
                row.aux_mean.is_some(),
                row.estimator.starts_with("quorum"),
                "{row:?}"
            );
        }
        let text = r.render();
        assert!(text.contains("report_test"));
        assert!(text.contains("10 of 10 cells"));
    }

    #[test]
    fn csr_cells_report_measured_gap_bounds() {
        let spec = SweepSpec::parse(
            "
            name = csr_bounds
            trials = 1
            topology = csr:cliquering:4:4, csr:grid-holes:8:3:0.2, torus2d:8
            density = 0.2
            rounds = 8
            ",
        )
        .unwrap();
        let r = build_report(&run_sweep(&spec, &SweepOptions::default()).unwrap());
        assert_eq!(r.rows.len(), 3);
        for row in &r.rows {
            assert!(row.bound.is_some(), "{row:?}");
            let expect = if row.topology.starts_with("csr:") {
                "measured-gap"
            } else {
                "closed-form"
            };
            assert_eq!(row.bound_src, expect, "{row:?}");
        }
        let csv = r.to_csv();
        assert!(csv.contains("measured-gap"), "{csv}");
        assert!(r.to_json().contains("\"bound_src\": \"measured-gap\""));
        assert!(r.render().contains("measured-gap"));
    }

    #[test]
    fn csv_shape_matches_rows() {
        let r = demo_report();
        let csv = r.to_csv();
        assert_eq!(csv.lines().count(), 1 + r.rows.len());
        assert!(csv.starts_with("index,topology,density"));
        // every data line has exactly 19 columns
        for line in csv.lines().skip(1) {
            assert_eq!(line.split(',').count(), 19, "{line}");
        }
    }

    #[test]
    fn json_is_balanced_and_complete() {
        let r = demo_report();
        let json = r.to_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.contains("\"sweep\": \"report_test\""));
        assert!(json.contains("\"complete\": true"));
        assert_eq!(json.matches("\"index\":").count(), r.rows.len());
        assert_eq!(json.matches("\"reason\":").count(), r.skipped.len());
        // no stray trailing commas before closing brackets
        assert!(!json.contains(",\n  ]"));
    }

    #[test]
    fn zero_error_sample_cells_report_instead_of_panicking() {
        // 3 stationary agents on a big ring essentially never co-locate:
        // every relative-frequency estimate is undefined, so the cell
        // finishes with zero error samples.
        let spec = SweepSpec::parse(
            "
            name = empty_err
            trials = 2
            topology = ring:1024
            density = 0.002
            rounds = 8
            estimator = relfreq:0.5
            movement = stationary
            ",
        )
        .unwrap();
        let r = build_report(&run_sweep(&spec, &SweepOptions::default()).unwrap());
        assert_eq!(r.rows.len(), 1);
        let row = &r.rows[0];
        assert_eq!(row.samples, 0);
        assert_eq!(row.err_median, None);
        assert_eq!(row.err_q, None);
        // empty cells render as blanks / JSON nulls, and stay valid
        assert!(r.render().contains("empty_err"));
        assert!(r.to_json().contains("\"err_median\": null"));
        assert_eq!(r.to_csv().lines().count(), 2);
    }

    #[test]
    fn csv_quotes_axis_tokens_containing_commas() {
        use antdensity_engine::MovementModel;
        // Biased movement is library-only (comma-separated probabilities)
        let mut spec = SweepSpec::parse(
            "
            name = biased
            trials = 1
            topology = ring:16   # degree 2 matches the two move probs
            density = 0.2
            rounds = 8
            ",
        )
        .unwrap();
        spec.movements = vec![MovementModel::Biased {
            move_probs: vec![0.5, 0.25],
        }];
        let r = build_report(&run_sweep(&spec, &SweepOptions::default()).unwrap());
        let csv = r.to_csv();
        assert!(csv.contains("\"biased:0.5,0.25\""), "{csv}");
        // column count is preserved once quoted fields are respected
        let data = csv.lines().nth(1).unwrap();
        let mut fields = 0;
        let mut in_quotes = false;
        for c in data.chars() {
            match c {
                '"' => in_quotes = !in_quotes,
                ',' if !in_quotes => fields += 1,
                _ => {}
            }
        }
        assert_eq!(fields + 1, 19, "{data}");
    }

    #[test]
    fn write_emits_both_files() {
        let dir = std::env::temp_dir().join(format!("antdensity_report_{}", std::process::id()));
        let (json, csv) = demo_report().write(&dir).unwrap();
        assert!(json.ends_with("SWEEP_report_test.json"));
        assert!(csv.ends_with("SWEEP_report_test.csv"));
        assert!(std::fs::read_to_string(&json).unwrap().contains("rows"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
