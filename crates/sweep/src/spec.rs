//! Declarative sweep specifications: parse, validate, expand.
//!
//! A sweep spec is a small text file describing a parameter grid —
//! topology × density × estimator × movement × noise × rounds — plus
//! how many seeded trials to run per grid cell. [`SweepSpec::parse`]
//! reads the file format, [`SweepSpec::resolve`] applies the effort mode
//! (quick/full) and expands the grid into a deterministic, stable-order
//! list of [`Cell`]s — the shards the runner executes.
//!
//! # File format
//!
//! Line-oriented `key = value`; `#` starts a comment; lists are
//! comma-separated. Axis tokens reuse the engine's canonical spec syntax
//! (`TopologySpec`/`MovementModel`/`CollisionNoise` `FromStr`):
//!
//! ```text
//! # Algorithm 1 accuracy vs rounds (Theorem 1 table)
//! name     = alg1_accuracy
//! seed     = 20160725
//! trials   = 8              # seeds per cell (full mode)
//! quick_trials = 2          # seeds per cell under --quick
//! quick_max_rounds = 128    # drop larger rounds under --quick
//!
//! topology  = torus2d:32, ring:1024, hypercube:10, complete:1024
//! density   = 0.02, 0.05, 0.1, 0.2
//! rounds    = 16, 32, 64, 128, 256, 512   # or log:<lo>:<hi>:<per-doubling>
//! estimator = alg1                      # alg1 | alg4 | quorum:<thr> | relfreq:<share>
//! movement  = pure                      # pure | lazy:<p> | stationary | drift:<i>
//! noise     = none                      # none | sense:<detect>:<spurious>
//! ```
//!
//! `estimator`, `movement`, and `noise` default to `alg1` / `pure` /
//! `none` when omitted. `relfreq:<share>` takes the property *share*
//! (fraction of the population, in `(0, 1]`), resolved into a concrete
//! agent count per cell. Biased walks carry comma-separated
//! probabilities and are therefore not expressible in the comma-split
//! axis list — drive those through the library API.

use antdensity_engine::{
    EstimatorSpec, MovementModel, NoiseSpec, SimFamily, TopologySpec, COUNTS_SAMPLER_VERSION,
};
use antdensity_stats::rng::splitmix64;
use antdensity_stats::schedule::Schedule;

/// One estimator axis value. Unlike [`EstimatorSpec`], the relative
/// frequency variant carries a population *share* so a single token can
/// scale across densities; [`SweepSpec::resolve`] fixes the concrete
/// agent count per cell.
#[derive(Debug, Clone, PartialEq)]
pub enum EstimatorAxis {
    /// Algorithm 1.
    Algorithm1,
    /// Algorithm 4 (2-d torus, `rounds < side` only).
    Algorithm4,
    /// Quorum read-out at a density threshold.
    Quorum {
        /// Density threshold to detect.
        threshold: f64,
    },
    /// Relative frequency with `share · num_agents` property agents.
    RelFreq {
        /// Fraction of the population carrying the property, in `(0, 1]`.
        share: f64,
    },
}

impl std::fmt::Display for EstimatorAxis {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Algorithm1 => write!(f, "alg1"),
            Self::Algorithm4 => write!(f, "alg4"),
            Self::Quorum { threshold } => write!(f, "quorum:{threshold}"),
            Self::RelFreq { share } => write!(f, "relfreq:{share}"),
        }
    }
}

impl std::str::FromStr for EstimatorAxis {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        // `relfreq:` carries a *share* here (the engine token takes an
        // agent count), so it is intercepted before delegating the rest
        // of the grammar to EstimatorSpec — one source of truth for
        // alg1/alg4/quorum token syntax and validation.
        if let Some(arg) = s.strip_prefix("relfreq:") {
            let share: f64 = arg
                .trim()
                .parse()
                .map_err(|_| format!("estimator `{s}`: bad share `{arg}`"))?;
            if !(share > 0.0 && share <= 1.0) {
                return Err(format!("estimator `{s}`: share must lie in (0,1]"));
            }
            return Ok(Self::RelFreq { share });
        }
        match s.parse::<EstimatorSpec>()? {
            EstimatorSpec::Algorithm1 => Ok(Self::Algorithm1),
            EstimatorSpec::Algorithm4 => Ok(Self::Algorithm4),
            EstimatorSpec::Quorum { threshold } => Ok(Self::Quorum { threshold }),
            // unreachable: the prefix above consumed every relfreq token
            EstimatorSpec::RelativeFrequency { .. } => {
                Err(format!("estimator `{s}`: expected relfreq:<share>"))
            }
        }
    }
}

/// A parsed (but not yet expanded) sweep specification.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Sweep name (output-file stem).
    pub name: String,
    /// Master seed; every shard and trial stream derives from it.
    pub seed: u64,
    /// Seeds per cell in full mode.
    pub trials: u64,
    /// Seeds per cell in quick mode (default: `max(1, trials / 4)`).
    pub quick_trials: Option<u64>,
    /// Quick mode drops rounds entries above this value.
    pub quick_max_rounds: Option<u64>,
    /// Relative-error band reported as "fraction within" (default 0.2).
    pub band: f64,
    /// Failure probability for the reported error quantile and the
    /// theory-bound column: both use `1 − delta` (default 0.1).
    pub delta: f64,
    /// Topology axis.
    pub topologies: Vec<TopologySpec>,
    /// Density axis (paper convention `d = n/A`).
    pub densities: Vec<f64>,
    /// Rounds axis.
    pub rounds: Vec<u64>,
    /// Estimator axis.
    pub estimators: Vec<EstimatorAxis>,
    /// Movement axis.
    pub movements: Vec<MovementModel>,
    /// Noise axis (`None` = perfect sensing).
    pub noises: Vec<Option<NoiseSpec>>,
    /// Opt-in count-based stepping (`counts = on`): eligible shards run
    /// through the occupancy-count fast path instead of the agent-level
    /// engine. Off by default — the fast path is distributionally (not
    /// bitwise) equivalent, so enabling it changes per-seed numbers and
    /// is part of the fingerprint.
    pub counts: bool,
}

/// One expanded grid cell — the unit of sharded execution. Everything a
/// worker needs to run the cell's trials is a pure function of this
/// struct plus the sweep seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Position in the expanded grid (also the shard id).
    pub index: usize,
    /// Topology.
    pub topology: TopologySpec,
    /// Requested density (the axis value; the realised `d = n/A` follows
    /// from `num_agents`).
    pub density: f64,
    /// Agents placed (`n + 1` in paper convention).
    pub num_agents: usize,
    /// Rounds per trial.
    pub rounds: u64,
    /// Concrete estimator (relfreq share already resolved to agents).
    pub estimator: EstimatorSpec,
    /// Movement model.
    pub movement: MovementModel,
    /// Collision-sensing noise (`None` = perfect).
    pub noise: Option<NoiseSpec>,
}

impl Cell {
    /// Realised paper-convention density `d = n/A`.
    pub fn true_density(&self) -> f64 {
        (self.num_agents as f64 - 1.0) / self.topology.num_nodes() as f64
    }

    /// Noise axis token for reports (`none` for perfect sensing).
    pub fn noise_label(&self) -> String {
        match &self.noise {
            None => "none".to_string(),
            Some(n) => n.to_string(),
        }
    }
}

/// A grid combination that was dropped at expansion, with the reason.
#[derive(Debug, Clone, PartialEq)]
pub struct SkippedCell {
    /// Human-readable cell label (axis tokens).
    pub label: String,
    /// Why it cannot run.
    pub reason: String,
}

/// One checkpoint of a [`ShardTap`]: the fused pass snapshots the tap's
/// estimator after `rounds` rounds and fans the outcome out to `cells`.
#[derive(Debug, Clone, PartialEq)]
pub struct TapCheckpoint {
    /// Rounds at which the snapshot is taken.
    pub rounds: u64,
    /// Member cells reported at this checkpoint (more than one only when
    /// the grid contains duplicate axis values).
    pub cells: Vec<usize>,
}

/// One estimator tapping a fused shard's shared event stream, with its
/// checkpoint schedule mapped back to grid cells.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardTap {
    /// The estimator (resolved form).
    pub estimator: EstimatorSpec,
    /// Snapshot checkpoints, ascending in rounds.
    pub checkpoints: Vec<TapCheckpoint>,
}

impl ShardTap {
    /// The tap's checkpoint rounds as a [`Schedule`].
    pub fn schedule(&self) -> Schedule {
        Schedule::new(self.checkpoints.iter().map(|c| c.rounds).collect())
            .expect("taps have at least one positive checkpoint")
    }
}

/// One fused shard — the unit of sharded execution since the observer
/// pipeline landed. Member cells are identical up to estimator and
/// rounds and share one simulation family
/// ([`antdensity_engine::SimFamily`]), so each trial is **one**
/// simulation pass of `max_rounds` rounds snapshotted at every member's
/// checkpoint; the per-cell test reference
/// ([`crate::runner::run_shard_unfused`]) runs each member cell
/// separately from the *same* per-(shard, trial) RNG stream and lands on
/// bit-identical aggregates.
#[derive(Debug, Clone, PartialEq)]
pub struct FusedShard {
    /// Shard id (position in the plan; the RNG stream label).
    pub index: usize,
    /// Member cell indices, ascending.
    pub cells: Vec<usize>,
    /// Estimator taps over the shared pass.
    pub taps: Vec<ShardTap>,
}

impl FusedShard {
    /// Rounds the fused pass must execute: the largest checkpoint of any
    /// tap.
    pub fn max_rounds(&self) -> u64 {
        self.taps
            .iter()
            .flat_map(|t| t.checkpoints.iter().map(|c| c.rounds))
            .max()
            .expect("shards have at least one checkpoint")
    }

    /// Total rounds dedicated per-cell runs would execute for the same
    /// snapshots.
    pub fn unfused_rounds(&self) -> u64 {
        self.taps
            .iter()
            .flat_map(|t| t.checkpoints.iter())
            .map(|c| c.rounds * c.cells.len() as u64)
            .sum()
    }
}

/// A fully resolved sweep: effort applied, grid expanded, fingerprinted.
#[derive(Debug, Clone, PartialEq)]
pub struct ResolvedSweep {
    /// Sweep name.
    pub name: String,
    /// Master seed.
    pub seed: u64,
    /// Seeds per cell after effort scaling.
    pub trials: u64,
    /// Relative-error band for the "fraction within" column.
    pub band: f64,
    /// Failure probability for quantile/bound columns.
    pub delta: f64,
    /// `"quick"` or `"full"`.
    pub mode: &'static str,
    /// The expanded grid, in stable order (cell index = grid position).
    pub cells: Vec<Cell>,
    /// The fusion plan: cells grouped into shards that share one
    /// simulation pass. This — not the cell list — is the unit of
    /// execution, checkpoint waves, and RNG stream derivation.
    pub fused: Vec<FusedShard>,
    /// Count-based stepping opt-in (see [`SweepSpec::counts`]).
    pub counts: bool,
    /// Combinations dropped at expansion.
    pub skipped: Vec<SkippedCell>,
    /// Hash of the resolved configuration — checkpoints bind to it, so a
    /// resume against an edited spec (or a different effort mode) is
    /// rejected instead of silently mixing aggregates.
    pub fingerprint: u64,
}

impl SweepSpec {
    /// Parses the spec file format (see module docs).
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending line for syntax errors,
    /// unknown or duplicate keys, bad axis tokens, out-of-range values,
    /// or missing required keys (`name`, `trials`, `topology`,
    /// `density`, `rounds`).
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut name: Option<String> = None;
        let mut seed: Option<u64> = None;
        let mut trials: Option<u64> = None;
        let mut quick_trials: Option<u64> = None;
        let mut quick_max_rounds: Option<u64> = None;
        let mut band: Option<f64> = None;
        let mut delta: Option<f64> = None;
        let mut topologies: Option<Vec<TopologySpec>> = None;
        let mut densities: Option<Vec<f64>> = None;
        let mut rounds: Option<Vec<u64>> = None;
        let mut estimators: Option<Vec<EstimatorAxis>> = None;
        let mut movements: Option<Vec<MovementModel>> = None;
        let mut noises: Option<Vec<Option<NoiseSpec>>> = None;
        let mut counts: Option<bool> = None;

        for (lineno, raw) in text.lines().enumerate() {
            let line = match raw.split_once('#') {
                Some((before, _)) => before.trim(),
                None => raw.trim(),
            };
            if line.is_empty() {
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("line {}: expected `key = value`", lineno + 1))?;
            let (key, value) = (key.trim(), value.trim());
            let dup = |set: bool| -> Result<(), String> {
                if set {
                    Err(format!("line {}: duplicate key `{key}`", lineno + 1))
                } else {
                    Ok(())
                }
            };
            let at = |e: String| format!("line {}: {e}", lineno + 1);
            match key {
                "name" => {
                    dup(name.is_some())?;
                    if value.is_empty()
                        || !value
                            .chars()
                            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
                    {
                        return Err(at(format!(
                            "name `{value}` must be non-empty [A-Za-z0-9_-] (it names output files)"
                        )));
                    }
                    name = Some(value.to_string());
                }
                "seed" => {
                    dup(seed.is_some())?;
                    seed = Some(
                        value
                            .parse()
                            .map_err(|_| at(format!("bad seed `{value}`")))?,
                    );
                }
                "trials" => {
                    dup(trials.is_some())?;
                    let v: u64 = value
                        .parse()
                        .map_err(|_| at(format!("bad trials `{value}`")))?;
                    if v == 0 {
                        return Err(at("trials must be positive".into()));
                    }
                    trials = Some(v);
                }
                "quick_trials" => {
                    dup(quick_trials.is_some())?;
                    let v: u64 = value
                        .parse()
                        .map_err(|_| at(format!("bad quick_trials `{value}`")))?;
                    if v == 0 {
                        return Err(at("quick_trials must be positive".into()));
                    }
                    quick_trials = Some(v);
                }
                "quick_max_rounds" => {
                    dup(quick_max_rounds.is_some())?;
                    quick_max_rounds = Some(
                        value
                            .parse()
                            .map_err(|_| at(format!("bad quick_max_rounds `{value}`")))?,
                    );
                }
                "band" => {
                    dup(band.is_some())?;
                    let v: f64 = value
                        .parse()
                        .map_err(|_| at(format!("bad band `{value}`")))?;
                    if !(v > 0.0 && v.is_finite()) {
                        return Err(at("band must be positive".into()));
                    }
                    band = Some(v);
                }
                "delta" => {
                    dup(delta.is_some())?;
                    let v: f64 = value
                        .parse()
                        .map_err(|_| at(format!("bad delta `{value}`")))?;
                    if !(v > 0.0 && v < 1.0) {
                        return Err(at("delta must lie in (0,1)".into()));
                    }
                    delta = Some(v);
                }
                "topology" => {
                    dup(topologies.is_some())?;
                    topologies = Some(parse_list(value).map_err(at)?);
                }
                "density" => {
                    dup(densities.is_some())?;
                    let ds: Vec<f64> = value
                        .split(',')
                        .map(|v| {
                            v.trim()
                                .parse::<f64>()
                                .map_err(|_| at(format!("bad density `{v}`")))
                        })
                        .collect::<Result<_, _>>()?;
                    if ds.iter().any(|&d| !(d > 0.0 && d <= 1.0)) {
                        return Err(at("densities must lie in (0,1]".into()));
                    }
                    densities = Some(ds);
                }
                "rounds" => {
                    dup(rounds.is_some())?;
                    rounds = Some(parse_rounds(value).map_err(at)?);
                }
                "estimator" => {
                    dup(estimators.is_some())?;
                    estimators = Some(parse_list(value).map_err(at)?);
                }
                "movement" => {
                    dup(movements.is_some())?;
                    movements = Some(parse_list(value).map_err(at)?);
                }
                "noise" => {
                    dup(noises.is_some())?;
                    let ns: Vec<Option<NoiseSpec>> = value
                        .split(',')
                        .map(|v| {
                            let v = v.trim();
                            if v == "none" {
                                Ok(None)
                            } else {
                                v.parse::<NoiseSpec>().map(Some).map_err(&at)
                            }
                        })
                        .collect::<Result<_, _>>()?;
                    noises = Some(ns);
                }
                "counts" => {
                    dup(counts.is_some())?;
                    counts = Some(match value {
                        "on" => true,
                        "off" => false,
                        other => return Err(at(format!("counts must be on|off, got `{other}`"))),
                    });
                }
                other => return Err(at(format!("unknown key `{other}`"))),
            }
        }

        let missing = |what: &str| format!("missing required key `{what}`");
        Ok(Self {
            name: name.ok_or_else(|| missing("name"))?,
            seed: seed.unwrap_or(20_160_725),
            trials: trials.ok_or_else(|| missing("trials"))?,
            quick_trials,
            quick_max_rounds,
            band: band.unwrap_or(0.2),
            delta: delta.unwrap_or(0.1),
            topologies: topologies.ok_or_else(|| missing("topology"))?,
            densities: densities.ok_or_else(|| missing("density"))?,
            rounds: rounds.ok_or_else(|| missing("rounds"))?,
            estimators: estimators.unwrap_or_else(|| vec![EstimatorAxis::Algorithm1]),
            movements: movements.unwrap_or_else(|| vec![MovementModel::Pure]),
            noises: noises.unwrap_or_else(|| vec![None]),
            counts: counts.unwrap_or(false),
        })
    }

    /// Applies the effort mode and expands the grid into shard-ordered
    /// cells. Cell order is the nested axis order (topology, density,
    /// estimator, movement, noise, rounds) and is part of the
    /// determinism contract: shard `i` always describes the same cell
    /// for a given resolved spec.
    ///
    /// Invalid combinations are dropped with a recorded reason:
    /// Algorithm 4 off the 2-d torus or with `rounds ≥ side` (Theorem
    /// 32's precondition), and Algorithm 4 paired with any movement
    /// other than the first axis entry (it fixes its own
    /// stationary/drift split, so extra movement values would duplicate
    /// work).
    ///
    /// # Errors
    ///
    /// Returns an error naming the token if a `csr:*` topology's
    /// generator cannot build it, or if quick filtering empties the
    /// rounds axis.
    pub fn resolve(&self, quick: bool) -> Result<ResolvedSweep, String> {
        let trials = if quick {
            self.quick_trials
                .unwrap_or_else(|| (self.trials / 4).max(1))
        } else {
            self.trials
        };
        let rounds: Vec<u64> = match (quick, self.quick_max_rounds) {
            (true, Some(cap)) => {
                let kept: Vec<u64> = self.rounds.iter().copied().filter(|&r| r <= cap).collect();
                if kept.is_empty() {
                    return Err(format!("quick_max_rounds = {cap} drops every rounds entry"));
                }
                kept
            }
            _ => self.rounds.clone(),
        };

        let mut cells = Vec::new();
        let mut skipped = Vec::new();
        for &topology in &self.topologies {
            topology
                .try_build()
                .map_err(|e| format!("topology `{topology}`: {e}"))?;
            let a = topology.num_nodes();
            for &density in &self.densities {
                let num_agents = ((density * a as f64).round() as usize).max(2) + 1;
                for estimator in &self.estimators {
                    for (mi, movement) in self.movements.iter().enumerate() {
                        for noise in &self.noises {
                            for &r in &rounds {
                                let label = format!(
                                    "{topology} d={density} {estimator} {movement} {} t={r}",
                                    noise.map_or("none".to_string(), |n| n.to_string()),
                                );
                                let skip = |reason: &str, skipped: &mut Vec<SkippedCell>| {
                                    skipped.push(SkippedCell {
                                        label: label.clone(),
                                        reason: reason.to_string(),
                                    });
                                };
                                let resolved_estimator = match estimator {
                                    EstimatorAxis::Algorithm1 => EstimatorSpec::Algorithm1,
                                    EstimatorAxis::Algorithm4 => {
                                        if mi != 0 {
                                            skip(
                                                "alg4 fixes its own movement; kept for the first \
                                                 movement axis entry only",
                                                &mut skipped,
                                            );
                                            continue;
                                        }
                                        match topology {
                                            TopologySpec::Torus2d { side } if r < side => {
                                                EstimatorSpec::Algorithm4
                                            }
                                            TopologySpec::Torus2d { side } => {
                                                skip(
                                                    &format!(
                                                        "alg4 requires rounds < side (= {side}), \
                                                         Theorem 32"
                                                    ),
                                                    &mut skipped,
                                                );
                                                continue;
                                            }
                                            _ => {
                                                skip(
                                                    "alg4 is analysed on the 2-d torus only",
                                                    &mut skipped,
                                                );
                                                continue;
                                            }
                                        }
                                    }
                                    EstimatorAxis::Quorum { threshold } => EstimatorSpec::Quorum {
                                        threshold: *threshold,
                                    },
                                    EstimatorAxis::RelFreq { share } => {
                                        let property_agents = ((share * num_agents as f64).round()
                                            as usize)
                                            .clamp(1, num_agents);
                                        EstimatorSpec::RelativeFrequency { property_agents }
                                    }
                                };
                                cells.push(Cell {
                                    index: cells.len(),
                                    topology,
                                    density,
                                    num_agents,
                                    rounds: r,
                                    estimator: resolved_estimator,
                                    movement: movement.clone(),
                                    noise: *noise,
                                });
                            }
                        }
                    }
                }
            }
        }

        let fused = plan_fusion(&cells);
        let mut resolved = ResolvedSweep {
            name: self.name.clone(),
            seed: self.seed,
            trials,
            band: self.band,
            delta: self.delta,
            mode: if quick { "quick" } else { "full" },
            cells,
            fused,
            counts: self.counts,
            skipped,
            fingerprint: 0,
        };
        resolved.fingerprint = resolved.compute_fingerprint();
        Ok(resolved)
    }
}

/// Groups cells into fused shards: first-fit over the stable cell order,
/// matching on everything but estimator and rounds, with
/// [`SimFamily::fuse`] arbitrating estimator compatibility (Algorithm 4
/// never joins the standard family; relative-frequency taps must agree
/// on the property-group size). Deterministic — shard order and
/// membership are pure functions of the cell list, and part of the
/// resolved fingerprint.
fn plan_fusion(cells: &[Cell]) -> Vec<FusedShard> {
    let mut groups: Vec<(SimFamily, FusedShard)> = Vec::new();
    for cell in cells {
        let family = cell.estimator.sim_family();
        let pos = groups.iter().position(|(f, shard)| {
            let base = &cells[shard.cells[0]];
            base.topology == cell.topology
                && base.num_agents == cell.num_agents
                && base.movement == cell.movement
                && base.noise == cell.noise
                && f.fuse(family).is_some()
        });
        match pos {
            Some(i) => {
                let (f, shard) = &mut groups[i];
                *f = f.fuse(family).expect("checked by position predicate");
                shard.cells.push(cell.index);
                add_tap(shard, cell);
            }
            None => {
                let mut shard = FusedShard {
                    index: groups.len(),
                    cells: vec![cell.index],
                    taps: Vec::new(),
                };
                add_tap(&mut shard, cell);
                groups.push((family, shard));
            }
        }
    }
    groups.into_iter().map(|(_, shard)| shard).collect()
}

/// Registers `cell` on its shard's tap for the cell's estimator,
/// inserting the rounds checkpoint in sorted position.
fn add_tap(shard: &mut FusedShard, cell: &Cell) {
    let tap = match shard
        .taps
        .iter()
        .position(|t| t.estimator == cell.estimator)
    {
        Some(i) => &mut shard.taps[i],
        None => {
            shard.taps.push(ShardTap {
                estimator: cell.estimator.clone(),
                checkpoints: Vec::new(),
            });
            shard.taps.last_mut().expect("just pushed")
        }
    };
    match tap
        .checkpoints
        .binary_search_by_key(&cell.rounds, |c| c.rounds)
    {
        Ok(i) => tap.checkpoints[i].cells.push(cell.index),
        Err(i) => tap.checkpoints.insert(
            i,
            TapCheckpoint {
                rounds: cell.rounds,
                cells: vec![cell.index],
            },
        ),
    }
}

/// Splits a comma-separated axis list and parses each token.
fn parse_list<T: std::str::FromStr<Err = String>>(value: &str) -> Result<Vec<T>, String> {
    value.split(',').map(|v| v.trim().parse()).collect()
}

/// Parses the rounds axis: a comma-separated list of round counts, or
/// `log:<lo>:<hi>:<per-doubling>` — geometric checkpoints via
/// [`Schedule::log_spaced`], the natural dense abscissae for
/// accuracy-vs-rounds curves under the fused observer pipeline.
fn parse_rounds(value: &str) -> Result<Vec<u64>, String> {
    if let Some(rest) = value.strip_prefix("log:") {
        let bad = || format!("rounds `{value}`: expected log:<lo>:<hi>:<points-per-doubling>");
        let parts: Vec<&str> = rest.split(':').collect();
        if parts.len() != 3 {
            return Err(bad());
        }
        let lo: u64 = parts[0].trim().parse().map_err(|_| bad())?;
        let hi: u64 = parts[1].trim().parse().map_err(|_| bad())?;
        let per_doubling: u32 = parts[2].trim().parse().map_err(|_| bad())?;
        if lo == 0 || per_doubling == 0 {
            return Err(format!(
                "rounds `{value}`: bounds and density must be positive"
            ));
        }
        if lo > hi {
            return Err(format!("rounds `{value}`: lo exceeds hi"));
        }
        return Ok(Schedule::log_spaced(lo, hi, per_doubling).points().to_vec());
    }
    let rs: Vec<u64> = value
        .split(',')
        .map(|v| {
            v.trim()
                .parse::<u64>()
                .map_err(|_| format!("bad rounds `{v}`"))
        })
        .collect::<Result<_, _>>()?;
    if rs.contains(&0) {
        return Err("rounds must be positive".into());
    }
    Ok(rs)
}

impl ResolvedSweep {
    /// Total simulation passes per full execution: fused vs unfused.
    /// Fused, each shard runs one pass per trial; unfused, each *cell*
    /// does.
    pub fn simulation_counts(&self) -> (u64, u64) {
        (
            self.fused.len() as u64 * self.trials,
            self.cells.len() as u64 * self.trials,
        )
    }

    /// Total simulated rounds per full execution: fused vs unfused (the
    /// work the observer pipeline saves).
    pub fn simulated_round_counts(&self) -> (u64, u64) {
        let fused: u64 = self.fused.iter().map(FusedShard::max_rounds).sum();
        let unfused: u64 = self.fused.iter().map(FusedShard::unfused_rounds).sum();
        (fused * self.trials, unfused * self.trials)
    }

    /// Canonical description of everything that determines results: the
    /// fingerprint input. The `v2` tag marks the observer-pipeline
    /// sharding scheme — shard = fused cell group, RNG streams derived
    /// per (fused shard, trial) — so pre-fusion checkpoints can never be
    /// resumed into a fused run.
    fn canonical(&self) -> String {
        let mut s = format!(
            "{} {} seed {} trials {} band {} delta {} mode {}\n",
            crate::schema::FINGERPRINT_CANONICAL,
            self.name,
            self.seed,
            self.trials,
            self.band,
            self.delta,
            self.mode
        );
        for c in &self.cells {
            s.push_str(&format!(
                "cell {} {} agents {} rounds {} {} {} {}\n",
                c.index,
                c.topology,
                c.num_agents,
                c.rounds,
                c.estimator,
                c.movement,
                c.noise_label(),
            ));
        }
        for shard in &self.fused {
            s.push_str(&format!(
                "shard {} cells {:?} taps",
                shard.index, shard.cells
            ));
            for tap in &shard.taps {
                s.push_str(&format!(" {}@{}", tap.estimator, tap.schedule()));
            }
            s.push('\n');
        }
        // Appended only when enabled: every pre-existing spec (counts
        // off) keeps its fingerprint byte-for-byte, so old checkpoints
        // stay resumable. The counts sampler's version rides along, so
        // checkpoints and cached shards of an older counts kernel (whose
        // trajectories differ bit for bit) never mix with new ones.
        if self.counts {
            s.push_str(&format!("counts v{COUNTS_SAMPLER_VERSION}\n"));
        }
        s
    }

    /// SplitMix64-chained hash of [`Self::canonical`].
    fn compute_fingerprint(&self) -> u64 {
        hash_canonical(&self.canonical())
    }
}

/// The fingerprint hash: SplitMix64 chained over the canonical text.
fn hash_canonical(canonical: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in canonical.bytes() {
        h = splitmix64(h ^ u64::from(b));
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = "
        # demo sweep
        name    = demo
        seed    = 7
        trials  = 4
        quick_trials = 2
        quick_max_rounds = 16

        topology  = torus2d:8, ring:64   # two stages
        density   = 0.05, 0.2
        rounds    = 8, 16, 32
        estimator = alg1, quorum:0.1
        movement  = pure
        noise     = none, sense:0.8:0.05
    ";

    #[test]
    fn parses_and_expands_full_grid() {
        let spec = SweepSpec::parse(SPEC).unwrap();
        assert_eq!(spec.name, "demo");
        assert_eq!(spec.trials, 4);
        let full = spec.resolve(false).unwrap();
        assert_eq!(full.mode, "full");
        // 2 topo × 2 density × 2 estimator × 1 movement × 2 noise × 3 rounds
        assert_eq!(full.cells.len(), 48);
        assert!(full.skipped.is_empty());
        // stable shard order: index field matches position
        for (i, c) in full.cells.iter().enumerate() {
            assert_eq!(c.index, i);
        }
    }

    #[test]
    fn quick_mode_scales_trials_and_rounds() {
        let spec = SweepSpec::parse(SPEC).unwrap();
        let quick = spec.resolve(true).unwrap();
        assert_eq!(quick.mode, "quick");
        assert_eq!(quick.trials, 2);
        assert!(quick.cells.iter().all(|c| c.rounds <= 16));
        assert_eq!(quick.cells.len(), 32);
        // effort is part of the fingerprint: quick never resumes full
        let full = spec.resolve(false).unwrap();
        assert_ne!(quick.fingerprint, full.fingerprint);
    }

    #[test]
    fn fingerprint_is_stable_and_spec_sensitive() {
        let spec = SweepSpec::parse(SPEC).unwrap();
        let a = spec.resolve(false).unwrap();
        let b = spec.resolve(false).unwrap();
        assert_eq!(a.fingerprint, b.fingerprint);
        let mut edited = spec.clone();
        edited.seed += 1;
        assert_ne!(
            edited.resolve(false).unwrap().fingerprint,
            a.fingerprint,
            "seed must change the fingerprint"
        );
    }

    #[test]
    fn counts_key_parses_and_gates_the_fingerprint() {
        let spec = SweepSpec::parse(SPEC).unwrap();
        assert!(!spec.counts, "counts defaults to off");
        let baseline = spec.resolve(false).unwrap();

        // `counts = off` is byte-identical to the key being absent —
        // fingerprints (and thus old checkpoints) stay valid.
        let off = SweepSpec::parse(&format!("{SPEC}\ncounts = off")).unwrap();
        assert!(!off.counts);
        assert_eq!(
            off.resolve(false).unwrap().fingerprint,
            baseline.fingerprint,
            "counts = off must not move the fingerprint"
        );

        // `counts = on` changes results (different sampling path), so it
        // must change the fingerprint.
        let on = SweepSpec::parse(&format!("{SPEC}\ncounts = on")).unwrap();
        assert!(on.counts);
        let resolved_on = on.resolve(false).unwrap();
        assert!(resolved_on.counts);
        assert_ne!(
            resolved_on.fingerprint, baseline.fingerprint,
            "counts = on must move the fingerprint"
        );
        // ...and the sampler version is part of it: a counts-on
        // checkpoint or cached shard of the version-1 sampler (whose
        // canonical line was `counts on`) no longer matches.
        let canonical = resolved_on.canonical();
        assert!(canonical.ends_with(&format!("counts v{COUNTS_SAMPLER_VERSION}\n")));
        assert_eq!(COUNTS_SAMPLER_VERSION, 2);
        let mut v1 = resolved_on.clone();
        v1.counts = false;
        assert_eq!(hash_canonical(&v1.canonical()), baseline.fingerprint);
        assert_ne!(
            resolved_on.fingerprint,
            hash_canonical(&format!("{}counts on\n", v1.canonical())),
            "version-1 counts fingerprints are orphaned"
        );

        let err = SweepSpec::parse(&format!("{SPEC}\ncounts = maybe")).unwrap_err();
        assert!(err.contains("on|off"), "bad value reported: {err}");
        let err = SweepSpec::parse(&format!("{SPEC}\ncounts = on\ncounts = on")).unwrap_err();
        assert!(err.contains("duplicate"), "duplicate reported: {err}");
    }

    #[test]
    fn alg4_cells_filtered_with_reasons() {
        let text = "
            name = a4
            trials = 2
            topology = torus2d:16, ring:64
            density = 0.1
            rounds = 8, 32
            estimator = alg4
            movement = pure, lazy:0.5
        ";
        let resolved = SweepSpec::parse(text).unwrap().resolve(false).unwrap();
        // torus2d:16 keeps t=8 only (t=32 ≥ side); ring drops both; the
        // lazy movement duplicates drop too.
        assert_eq!(resolved.cells.len(), 1);
        let c = &resolved.cells[0];
        assert_eq!(c.rounds, 8);
        assert_eq!(c.estimator, EstimatorSpec::Algorithm4);
        assert_eq!(resolved.skipped.len(), 7);
        assert!(resolved
            .skipped
            .iter()
            .any(|s| s.reason.contains("Theorem 32")));
        assert!(resolved
            .skipped
            .iter()
            .any(|s| s.reason.contains("2-d torus only")));
        assert!(resolved
            .skipped
            .iter()
            .any(|s| s.reason.contains("fixes its own movement")));
    }

    #[test]
    fn relfreq_share_resolves_per_cell() {
        let text = "
            name = rf
            trials = 1
            topology = complete:100
            density = 0.1, 0.5
            rounds = 8
            estimator = relfreq:0.25
        ";
        let resolved = SweepSpec::parse(text).unwrap().resolve(false).unwrap();
        assert_eq!(resolved.cells.len(), 2);
        // d=0.1 → 11 agents → 3 property; d=0.5 → 51 agents → 13
        match resolved.cells[0].estimator {
            EstimatorSpec::RelativeFrequency { property_agents } => assert_eq!(property_agents, 3),
            ref other => panic!("unexpected estimator {other:?}"),
        }
        match resolved.cells[1].estimator {
            EstimatorSpec::RelativeFrequency { property_agents } => assert_eq!(property_agents, 13),
            ref other => panic!("unexpected estimator {other:?}"),
        }
    }

    #[test]
    fn rejects_malformed_specs() {
        for (text, needle) in [
            ("trials = 2\ntopology = ring:8\ndensity = 0.1\nrounds = 4", "missing required key `name`"),
            ("name = x\ntrials = 2\ntopology = ring:8\ndensity = 0.1\nrounds = 4\nname = y", "duplicate"),
            ("name = x\ntrials = 2\ntopology = ring:8\ndensity = 0.1\nrounds = 4\nfoo = 1", "unknown key"),
            ("name = x\ntrials = 2\ntopology = klein:8\ndensity = 0.1\nrounds = 4", "unknown topology"),
            ("name = x\ntrials = 2\ntopology = ring:8\ndensity = 1.5\nrounds = 4", "densities"),
            ("name = x\ntrials = 0\ntopology = ring:8\ndensity = 0.1\nrounds = 4", "trials must be positive"),
            ("name = bad name\ntrials = 2\ntopology = ring:8\ndensity = 0.1\nrounds = 4", "name"),
            ("name = x\ntrials = 2\ntopology = ring:8\ndensity = 0.1\nrounds = 4\nestimator = relfreq:1.5", "share"),
            ("name = x\ntrials = 2\ntopology = ring:8\ndensity = 0.1\nrounds = log:16:512", "points-per-doubling"),
            ("name = x\ntrials = 2\ntopology = ring:8\ndensity = 0.1\nrounds = log:64:16:2", "lo exceeds hi"),
            ("name = x\ntrials = 2\ntopology = ring:8\ndensity = 0.1\nrounds = log:0:16:2", "positive"),
        ] {
            let err = SweepSpec::parse(text).unwrap_err();
            assert!(err.contains(needle), "`{err}` should mention `{needle}`");
        }
    }

    #[test]
    fn fusion_plan_fuses_estimators_and_rounds() {
        let full = SweepSpec::parse(SPEC).unwrap().resolve(false).unwrap();
        // 48 cells; alg1 + quorum fuse and the 3 rounds collapse into a
        // schedule → one shard per (topology, density, noise) = 8.
        assert_eq!(full.cells.len(), 48);
        assert_eq!(full.fused.len(), 8);
        let mut seen = vec![false; full.cells.len()];
        for shard in &full.fused {
            assert_eq!(shard.cells.len(), 6);
            assert_eq!(shard.taps.len(), 2, "alg1 + quorum taps");
            assert_eq!(shard.max_rounds(), 32);
            assert_eq!(shard.unfused_rounds(), 2 * (8 + 16 + 32));
            for tap in &shard.taps {
                assert_eq!(tap.schedule().points(), &[8, 16, 32]);
                for cp in &tap.checkpoints {
                    for &c in &cp.cells {
                        assert!(!seen[c], "cell {c} planned twice");
                        seen[c] = true;
                        assert_eq!(full.cells[c].rounds, cp.rounds);
                        assert_eq!(full.cells[c].estimator, tap.estimator);
                    }
                }
            }
        }
        assert!(seen.iter().all(|&s| s), "every cell must be planned");
        let (fused_sims, unfused_sims) = full.simulation_counts();
        assert_eq!((fused_sims, unfused_sims), (8 * 4, 48 * 4));
        let (fused_rounds, unfused_rounds) = full.simulated_round_counts();
        assert_eq!(fused_rounds, 8 * 32 * 4);
        assert_eq!(unfused_rounds, 8 * 2 * (8 + 16 + 32) * 4);
    }

    #[test]
    fn alg4_gets_its_own_shards() {
        let text = "
            name = fam
            trials = 1
            topology = torus2d:64
            density = 0.1
            rounds = 8, 16
            estimator = alg1, alg4, relfreq:0.25
        ";
        let resolved = SweepSpec::parse(text).unwrap().resolve(false).unwrap();
        assert_eq!(resolved.cells.len(), 6);
        // alg1 + relfreq share the standard family; alg4 is its own shard
        assert_eq!(resolved.fused.len(), 2);
        let std_shard = &resolved.fused[0];
        assert_eq!(std_shard.taps.len(), 2);
        let alg4_shard = &resolved.fused[1];
        assert_eq!(alg4_shard.taps.len(), 1);
        assert_eq!(
            alg4_shard.taps[0].estimator,
            crate::spec::EstimatorSpec::Algorithm4
        );
        assert_eq!(alg4_shard.max_rounds(), 16);
    }

    #[test]
    fn log_rounds_axis_expands_geometrically() {
        let text = "
            name = logr
            trials = 1
            topology = ring:64
            density = 0.1
            rounds = log:16:128:1
        ";
        let spec = SweepSpec::parse(text).unwrap();
        assert_eq!(spec.rounds, vec![16, 32, 64, 128]);
        // the committed alg1_accuracy axis spelled as a log token
        let dense = SweepSpec::parse(&text.replace("log:16:128:1", "log:16:512:3")).unwrap();
        assert_eq!(
            dense.rounds,
            vec![16, 20, 25, 32, 40, 51, 64, 81, 102, 128, 161, 203, 256, 323, 406, 512]
        );
    }

    #[test]
    fn unbuildable_csr_topology_is_a_resolve_error() {
        // Parses, but a 2x2 grid with 90% holes keeps no two adjacent
        // cells: resolving names the token instead of panicking.
        let text = "
            name = x
            trials = 2
            topology = torus2d:8, csr:grid-holes:2:1:0.9
            density = 0.1
            rounds = 4
        ";
        let spec = SweepSpec::parse(text).unwrap();
        for quick in [false, true] {
            let err = spec.resolve(quick).unwrap_err();
            assert!(err.contains("csr:grid-holes:2:1:0.9"), "{err}");
            assert!(err.contains("no connected component"), "{err}");
        }
    }

    #[test]
    fn quick_cap_below_all_rounds_errors() {
        let text = "
            name = x
            trials = 2
            quick_max_rounds = 2
            topology = ring:8
            density = 0.1
            rounds = 4, 8
        ";
        let spec = SweepSpec::parse(text).unwrap();
        assert!(spec.resolve(true).unwrap_err().contains("drops every"));
        assert!(spec.resolve(false).is_ok());
    }
}
