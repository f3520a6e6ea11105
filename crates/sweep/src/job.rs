//! Typed sweep jobs: the one validated entry point shared by the CLI
//! and the serve daemon's wire protocol.
//!
//! `repro sweep SPEC --quick` and a `{"op": "submit", ...}` line sent
//! to `repro serve` must mean exactly the same thing — same spec
//! parser, same resolution, same structured errors, and (because a
//! resolved spec carries its own seed and shard streams) the same
//! result bytes. [`SweepJob`] is that shared meaning: both front ends
//! build one, call [`SweepJob::validate`], and hand the
//! [`ValidatedJob`]'s resolved grid to the one sweep driver,
//! [`crate::run_resolved`] — in-process or on a distributed transport,
//! as their [`SweepOptions`](crate::SweepOptions) say. Neither layer
//! re-implements spec handling or resolves twice, so they cannot
//! drift.

use crate::spec::{ResolvedSweep, SweepSpec};

/// A density-estimation job: everything that determines the result
/// bytes (spec text, effort mode, seed), nothing that doesn't. Every
/// job runs fused; there is no execution-mode knob, because fused and
/// per-cell runs write the same bytes. Transport- and invocation-agnostic —
/// the CLI wraps one in a `SweepRequest` (adding output paths and
/// checkpoint policy), the serve daemon deserializes one straight off
/// the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepJob {
    /// The sweep spec file's text, verbatim.
    pub spec_text: String,
    /// Resolve the quick (CI smoke) grid instead of the full one. Part
    /// of the fingerprint.
    pub quick: bool,
    /// Replace the spec's master seed. The equivalent CLI run is the
    /// same spec file with its `seed =` line edited, which is how a
    /// serve client launches independent replicas of one committed
    /// spec without rewriting it.
    pub seed_override: Option<u64>,
}

impl SweepJob {
    /// A job for `spec_text` in full mode with the spec's own seed.
    pub fn new(spec_text: impl Into<String>) -> Self {
        Self {
            spec_text: spec_text.into(),
            quick: false,
            seed_override: None,
        }
    }

    /// The spec text this job actually runs: verbatim, or with the
    /// `seed =` line rewritten when [`Self::seed_override`] is set.
    /// Materialized as *text* (not a field patch) so the distributed
    /// backend can ship it to workers in the `SPEC` handshake and have
    /// them resolve the identical fingerprint.
    pub fn effective_spec_text(&self) -> String {
        let Some(seed) = self.seed_override else {
            return self.spec_text.clone();
        };
        let mut out = String::new();
        for line in self.spec_text.lines() {
            let key = line.trim_start();
            let is_seed = key
                .strip_prefix("seed")
                .is_some_and(|rest| rest.trim_start().starts_with('='));
            if !is_seed {
                out.push_str(line);
                out.push('\n');
            }
        }
        out.push_str(&format!("seed = {seed}\n"));
        out
    }

    /// Parses the spec text, applying the seed override.
    ///
    /// # Errors
    ///
    /// Returns [`JobError::Spec`] with the parser's message.
    pub fn parse_spec(&self) -> Result<SweepSpec, JobError> {
        SweepSpec::parse(&self.effective_spec_text()).map_err(JobError::Spec)
    }

    /// Parses *and* resolves: the full admission check. A job that
    /// validates will run; one that doesn't is rejected with the same
    /// message whether it arrived via argv or the wire.
    ///
    /// # Errors
    ///
    /// [`JobError::Spec`] for parse failures, [`JobError::Resolve`]
    /// when the grid does not resolve (e.g. every combination skipped).
    pub fn validate(&self) -> Result<ValidatedJob, JobError> {
        let spec = self.parse_spec()?;
        let resolved = spec.resolve(self.quick).map_err(JobError::Resolve)?;
        Ok(ValidatedJob { spec, resolved })
    }
}

/// A job that passed admission: the parsed spec plus its resolved grid
/// (cell list, fused shards, fingerprint), ready for
/// [`crate::run_resolved`]. Running it is now infallible up to I/O.
#[derive(Debug, Clone)]
pub struct ValidatedJob {
    /// The parsed spec (seed override already applied).
    pub spec: SweepSpec,
    /// The resolved grid the job will execute.
    pub resolved: ResolvedSweep,
}

/// Why a job was refused at admission. One error vocabulary for both
/// front ends: the CLI maps these to usage exits, the daemon to
/// `rejected` events carrying the same text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// The spec text failed to parse.
    Spec(String),
    /// The spec parsed but its grid did not resolve.
    Resolve(String),
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Spec(e) => write!(f, "sweep spec: {e}"),
            JobError::Resolve(e) => write!(f, "sweep spec does not resolve: {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run_resolved, run_sweep, SweepOptions};

    const SPEC: &str = "
        name = job_test
        seed = 5
        trials = 2
        topology = torus2d:8, complete:64
        density = 0.1
        rounds = 8, 16
        estimator = alg1
        ";

    #[test]
    fn validate_accepts_and_rejects_like_the_parser() {
        let ok = SweepJob::new(SPEC).validate().unwrap();
        assert_eq!(ok.resolved.cells.len(), 4);
        assert_eq!(ok.resolved.fused.len(), 2);
        let err = SweepJob::new("trials = 1").validate().unwrap_err();
        assert!(matches!(err, JobError::Spec(_)));
        assert!(err.to_string().contains("missing required key"));
    }

    #[test]
    fn seed_override_changes_fingerprint_like_an_edited_spec() {
        let base = SweepJob::new(SPEC).validate().unwrap();
        let mut job = SweepJob::new(SPEC);
        job.seed_override = Some(99);
        let overridden = job.validate().unwrap();
        assert_ne!(base.resolved.fingerprint, overridden.resolved.fingerprint);
        assert_eq!(overridden.spec.seed, 99);
        // identical to textually editing the seed line
        let edited = SweepJob::new(SPEC.replace("seed = 5", "seed = 99"))
            .validate()
            .unwrap();
        assert_eq!(overridden.resolved.fingerprint, edited.resolved.fingerprint);
    }

    #[test]
    fn streaming_run_matches_run_sweep_and_cancels() {
        let job = SweepJob::new(SPEC);
        let validated = job.validate().unwrap();
        // The serve daemon's options: one shard per wave, so row
        // streaming and cancellation act at shard granularity.
        let opts = SweepOptions {
            workers: 2,
            checkpoint_every: 1,
            ..SweepOptions::default()
        };
        let mut shards_seen = Vec::new();
        let full = run_resolved(&validated.resolved, &opts, &mut |_, idx, cells| {
            shards_seen.push((idx, cells.len()));
            true
        })
        .unwrap();
        assert!(full.complete);
        assert_eq!(shards_seen.len(), 2);
        let reference = run_sweep(&validated.spec, &SweepOptions::default()).unwrap();
        assert_eq!(full.aggregates, reference.aggregates);
        // cancelling after the first shard leaves a partial outcome
        let partial = run_resolved(&validated.resolved, &opts, &mut |_, _, _| false).unwrap();
        assert!(!partial.complete);
        assert_eq!(partial.executed, 1);
    }
}
