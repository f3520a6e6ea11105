//! Bit-exact sweep checkpoints.
//!
//! A checkpoint records every completed shard's [`CellAggregate`] with
//! all floating-point state serialized as raw IEEE-754 bit patterns
//! (hex `u64`), so `full run` and `run → kill → resume` produce
//! **bit-identical** aggregates — the property
//! `crates/sweep/tests/determinism.rs` pins. Checkpoints bind to the
//! resolved spec's fingerprint; resuming against an edited spec or a
//! different effort mode is rejected.
//!
//! The format is a plain text file:
//!
//! ```text
//! antdensity-sweep-checkpoint v1
//! fingerprint <hex16>
//! cells <total> hist_bins <bins>
//! shard <index> trials <trials> within <count>
//! est <count> <mean> <m2> <min> <max>      # f64s as hex bit patterns
//! err <count> <mean> <m2> <min> <max>
//! aux <count> <mean> <m2> <min> <max>
//! hist <lo> <hi> <underflow> <overflow> <count> <bin0> <bin1> …
//! end
//! ```
//!
//! Writes go through a temp file + rename so a kill mid-write leaves
//! the previous checkpoint intact rather than a torn file.

use crate::aggregate::CellAggregate;
use antdensity_stats::histogram::Histogram;
use antdensity_stats::moments::StreamingMoments;
use antdensity_telemetry as telemetry;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

// Checkpoint latency, split at the durability boundary: `serialize` is
// the in-memory text render, `rename` is the temp-file write plus the
// atomic rename that publishes it.
static CKPT_SERIALIZE: telemetry::SpanMetric =
    telemetry::SpanMetric::new("sweep.checkpoint_serialize");
static CKPT_RENAME: telemetry::SpanMetric = telemetry::SpanMetric::new("sweep.checkpoint_rename");
static CKPT_WRITES: telemetry::LazyCounter = telemetry::LazyCounter::new("sweep.checkpoint_writes");
static CKPT_BYTES: telemetry::LazyCounter = telemetry::LazyCounter::new("sweep.checkpoint_bytes");

/// Exclusive-writer guard for a checkpoint file.
///
/// Two coordinators pointed at the same checkpoint would interleave
/// tmp+rename writes and silently lose shards; the lock makes the
/// second one **fail loudly** instead. Implementation: a `<path>.lock`
/// sibling created with `create_new` (atomic on every platform we
/// target) holding the owner's PID. A lock whose owner is no longer
/// running (e.g. the sweep was `kill -9`ed, so [`Drop`] never ran) is
/// stale and silently stolen — that keeps the kill/resume workflow
/// lock-free for the user.
#[derive(Debug)]
pub struct CheckpointLock {
    path: PathBuf,
}

#[cfg(target_os = "linux")]
fn pid_alive(pid: u32) -> bool {
    Path::new(&format!("/proc/{pid}")).exists()
}

#[cfg(not(target_os = "linux"))]
fn pid_alive(_pid: u32) -> bool {
    // No cheap liveness probe: treat every holder as alive. Stale
    // locks then need a manual `rm`, which the error message explains.
    true
}

impl CheckpointLock {
    /// Acquires the exclusive writer lock for `checkpoint_path`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the holder PID and the lock file when
    /// another *running* process holds the lock, or the underlying I/O
    /// error.
    pub fn acquire(checkpoint_path: &Path) -> Result<Self, String> {
        let mut path = checkpoint_path.as_os_str().to_owned();
        path.push(".lock");
        let path = PathBuf::from(path);
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)
                    .map_err(|e| format!("cannot create checkpoint directory: {e}"))?;
            }
        }
        // Bounded retry: stealing a stale lock races other stealers,
        // but at most once per dead former holder.
        for _ in 0..5 {
            match std::fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&path)
            {
                Ok(mut f) => {
                    use std::io::Write as _;
                    let _ = write!(f, "{}", std::process::id());
                    return Ok(Self { path });
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    let holder = std::fs::read_to_string(&path)
                        .ok()
                        .and_then(|s| s.trim().parse::<u32>().ok());
                    match holder {
                        Some(pid) if pid != std::process::id() && !pid_alive(pid) => {
                            // Dead holder (e.g. kill -9): steal.
                            let _ = std::fs::remove_file(&path);
                            continue;
                        }
                        Some(pid) => {
                            return Err(format!(
                                "checkpoint {} is locked by running process {pid} \
                                 (lock file {}) — refusing to run a second coordinator \
                                 against the same checkpoint",
                                checkpoint_path.display(),
                                path.display()
                            ));
                        }
                        None => {
                            return Err(format!(
                                "checkpoint {} has an unreadable lock file {} — \
                                 remove it if no sweep is running",
                                checkpoint_path.display(),
                                path.display()
                            ));
                        }
                    }
                }
                Err(e) => {
                    return Err(format!(
                        "cannot create checkpoint lock {}: {e}",
                        path.display()
                    ))
                }
            }
        }
        Err(format!(
            "could not acquire checkpoint lock {} (lost the stale-lock race repeatedly)",
            path.display()
        ))
    }
}

impl Drop for CheckpointLock {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Completed-shard state for one sweep run.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Fingerprint of the resolved spec this checkpoint belongs to.
    pub fingerprint: u64,
    /// Total shard count of the sweep (for sanity checks on resume).
    pub cells: usize,
    /// Aggregates of completed shards, keyed by shard index.
    pub shards: BTreeMap<usize, CellAggregate>,
}

const MAGIC: &str = crate::schema::CHECKPOINT_MAGIC;

fn f64_hex(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

fn parse_f64(tok: &str) -> Result<f64, String> {
    u64::from_str_radix(tok, 16)
        .map(f64::from_bits)
        .map_err(|_| format!("bad f64 bit pattern `{tok}`"))
}

fn parse_int<T: std::str::FromStr>(tok: &str) -> Result<T, String> {
    tok.parse().map_err(|_| format!("bad integer `{tok}`"))
}

fn moments_line(label: &str, m: &StreamingMoments) -> String {
    let (count, mean, m2, min, max) = m.raw_parts();
    format!(
        "{label} {count} {} {} {} {}\n",
        f64_hex(mean),
        f64_hex(m2),
        f64_hex(min),
        f64_hex(max)
    )
}

fn parse_moments(label: &str, line: &str) -> Result<StreamingMoments, String> {
    let toks: Vec<&str> = line.split_whitespace().collect();
    if toks.len() != 6 || toks[0] != label {
        return Err(format!("expected `{label} …` line, got `{line}`"));
    }
    StreamingMoments::from_raw(
        parse_int(toks[1])?,
        parse_f64(toks[2])?,
        parse_f64(toks[3])?,
        parse_f64(toks[4])?,
        parse_f64(toks[5])?,
    )
    .map_err(|e| format!("`{label}` line: {e}"))
}

/// Renders the checkpoint text for a borrowed shard map — the runner
/// serializes its live state every wave without cloning aggregates.
fn render_text(fingerprint: u64, cells: usize, shards: &BTreeMap<usize, CellAggregate>) -> String {
    let hist_bins = shards
        .values()
        .next()
        .map_or(crate::aggregate::HIST_BINS, |a| a.err_hist.num_bins());
    let mut out =
        format!("{MAGIC}\nfingerprint {fingerprint:016x}\ncells {cells} hist_bins {hist_bins}\n");
    for (&idx, agg) in shards {
        out.push_str(&format!(
            "shard {idx} trials {} within {}\n",
            agg.trials, agg.within
        ));
        out.push_str(&moments_line("est", &agg.est));
        out.push_str(&moments_line("err", &agg.err));
        out.push_str(&moments_line("aux", &agg.aux));
        let (lo, hi, bins, under, over, count) = agg.err_hist.raw_parts();
        out.push_str(&format!(
            "hist {} {} {under} {over} {count}",
            f64_hex(lo),
            f64_hex(hi)
        ));
        for b in bins {
            out.push_str(&format!(" {b}"));
        }
        out.push_str("\nend\n");
    }
    out
}

/// Atomically writes a checkpoint (temp file + rename) straight from a
/// borrowed shard map.
///
/// # Errors
///
/// Returns any I/O error from creating the parent directory, the temp
/// file, or the rename.
pub fn save_shards(
    path: &Path,
    fingerprint: u64,
    cells: usize,
    shards: &BTreeMap<usize, CellAggregate>,
) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let text = {
        let _span = CKPT_SERIALIZE.start();
        render_text(fingerprint, cells, shards)
    };
    let _span = CKPT_RENAME.start();
    let tmp = path.with_extension("ckpt.tmp");
    std::fs::write(&tmp, &text)?;
    std::fs::rename(&tmp, path)?;
    CKPT_WRITES.add(1);
    CKPT_BYTES.add(text.len() as u64);
    Ok(())
}

impl Checkpoint {
    /// An empty checkpoint for a sweep with `cells` shards.
    pub fn new(fingerprint: u64, cells: usize) -> Self {
        Self {
            fingerprint,
            cells,
            shards: BTreeMap::new(),
        }
    }

    /// Serializes to the checkpoint text format.
    pub fn to_text(&self) -> String {
        render_text(self.fingerprint, self.cells, &self.shards)
    }

    /// Parses the checkpoint text format.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first structural problem (bad
    /// magic, malformed line, truncated shard block, duplicate or
    /// out-of-range shard index, or accumulator state no real aggregate
    /// can hold: NaN moments, histogram counts that do not add up, a
    /// histogram total that differs from the error sample count, more
    /// in-band errors than error samples).
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut lines = text.lines();
        if lines.next() != Some(MAGIC) {
            return Err("not a sweep checkpoint (bad magic line)".into());
        }
        let fp_line = lines.next().ok_or("missing fingerprint line")?;
        let fingerprint = match fp_line.split_whitespace().collect::<Vec<_>>()[..] {
            ["fingerprint", hex] => {
                u64::from_str_radix(hex, 16).map_err(|_| format!("bad fingerprint `{hex}`"))?
            }
            _ => return Err(format!("expected `fingerprint <hex>`, got `{fp_line}`")),
        };
        let cells_line = lines.next().ok_or("missing cells line")?;
        let (cells, hist_bins) = match cells_line.split_whitespace().collect::<Vec<_>>()[..] {
            ["cells", c, "hist_bins", b] => (parse_int::<usize>(c)?, parse_int::<usize>(b)?),
            _ => {
                return Err(format!(
                    "expected `cells <n> hist_bins <b>`, got `{cells_line}`"
                ))
            }
        };

        let mut shards = BTreeMap::new();
        while let Some(header) = lines.next() {
            if header.trim().is_empty() {
                continue;
            }
            let (idx, trials, within) = match header.split_whitespace().collect::<Vec<_>>()[..] {
                ["shard", i, "trials", t, "within", w] => (
                    parse_int::<usize>(i)?,
                    parse_int::<u64>(t)?,
                    parse_int::<u64>(w)?,
                ),
                _ => return Err(format!("expected `shard …` header, got `{header}`")),
            };
            if idx >= cells {
                return Err(format!("shard index {idx} out of range (cells = {cells})"));
            }
            let est = parse_moments("est", lines.next().ok_or("truncated shard block")?)?;
            let err = parse_moments("err", lines.next().ok_or("truncated shard block")?)?;
            if within > err.count() {
                return Err(format!(
                    "shard {idx}: within {within} exceeds its {} error samples",
                    err.count()
                ));
            }
            let aux = parse_moments("aux", lines.next().ok_or("truncated shard block")?)?;
            let hist_line = lines.next().ok_or("truncated shard block")?;
            let toks: Vec<&str> = hist_line.split_whitespace().collect();
            if Some(toks.len()) != hist_bins.checked_add(6) || toks[0] != "hist" {
                return Err(format!(
                    "expected `hist` line with {hist_bins} bins, got `{hist_line}`"
                ));
            }
            let lo = parse_f64(toks[1])?;
            let hi = parse_f64(toks[2])?;
            let under: u64 = parse_int(toks[3])?;
            let over: u64 = parse_int(toks[4])?;
            let count: u64 = parse_int(toks[5])?;
            let bins: Vec<u64> = toks[6..]
                .iter()
                .map(|t| parse_int(t))
                .collect::<Result<_, _>>()?;
            let err_hist = Histogram::from_parts(lo, hi, bins, under, over, count)
                .map_err(|e| format!("shard {idx}: {e}"))?;
            // Every error sample lands in both accumulators.
            if count != err.count() {
                return Err(format!(
                    "shard {idx}: histogram total {count} differs from its {} error samples",
                    err.count()
                ));
            }
            if lines.next() != Some("end") {
                return Err(format!("shard {idx}: missing `end` terminator"));
            }
            let agg = CellAggregate {
                trials,
                est,
                err,
                err_hist,
                within,
                aux,
            };
            if shards.insert(idx, agg).is_some() {
                return Err(format!("duplicate shard {idx}"));
            }
        }
        Ok(Self {
            fingerprint,
            cells,
            shards,
        })
    }

    /// Writes the checkpoint atomically (temp file + rename).
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating the parent directory, the
    /// temp file, or the rename.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        save_shards(path, self.fingerprint, self.cells, &self.shards)
    }

    /// Loads and parses a checkpoint file.
    ///
    /// # Errors
    ///
    /// Returns the I/O error message for unreadable files or the parse
    /// error for malformed content.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read checkpoint {}: {e}", path.display()))?;
        Self::parse(&text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_aggregate(salt: u64) -> CellAggregate {
        let mut agg = CellAggregate::new();
        agg.trials = 3;
        for i in 0..40 {
            let x = ((i + salt) as f64 * 0.77).sin().abs();
            agg.est.push(x);
            agg.err.push(x * 0.5);
            agg.err_hist.push(x * 0.5);
            if x * 0.5 <= 0.2 {
                agg.within += 1;
            }
        }
        agg
    }

    #[test]
    fn text_round_trip_is_bit_exact() {
        let mut ck = Checkpoint::new(0xDEAD_BEEF_1234_5678, 10);
        ck.shards.insert(0, demo_aggregate(1));
        ck.shards.insert(7, demo_aggregate(2));
        let parsed = Checkpoint::parse(&ck.to_text()).unwrap();
        assert_eq!(parsed, ck);
        // continuing a restored accumulator matches the original bit for bit
        let mut orig = ck.shards[&7].clone();
        let mut restored = parsed.shards[&7].clone();
        orig.est.push(0.123456789);
        restored.est.push(0.123456789);
        assert_eq!(orig.est, restored.est);
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join(format!("antdensity_ckpt_{}", std::process::id()));
        let path = dir.join("demo.ckpt");
        let mut ck = Checkpoint::new(42, 3);
        ck.shards.insert(2, demo_aggregate(5));
        ck.save(&path).unwrap();
        assert_eq!(Checkpoint::load(&path).unwrap(), ck);
        // overwrite is atomic-ish: no .tmp left behind
        ck.shards.insert(0, demo_aggregate(6));
        ck.save(&path).unwrap();
        assert_eq!(Checkpoint::load(&path).unwrap().shards.len(), 2);
        assert!(!path.with_extension("ckpt.tmp").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// `text` with the tokens of its first line that starts with
    /// `label` rewritten by `edit`.
    fn edit_line(text: &str, label: &str, edit: impl Fn(&mut Vec<String>)) -> String {
        let mut done = false;
        let mut out = String::new();
        for line in text.lines() {
            let mut toks: Vec<String> = line.split_whitespace().map(String::from).collect();
            if !done && toks.first().map(String::as_str) == Some(label) {
                edit(&mut toks);
                done = true;
                out.push_str(&toks.join(" "));
            } else {
                out.push_str(line);
            }
            out.push('\n');
        }
        assert!(done, "no `{label}` line");
        out
    }

    #[test]
    fn rejects_corrupt_inputs() {
        let mut ck = Checkpoint::new(1, 4);
        ck.shards.insert(1, demo_aggregate(0));
        let good = ck.to_text();
        for (mutation, needle) in [
            (good.replace(MAGIC, "something else"), "bad magic"),
            (good.replace("shard 1", "shard 9"), "out of range"),
            (good.replace("est ", "wat "), "expected `est"),
            (good.replace("\nend\n", "\n"), "end"),
            (
                edit_line(&good, "hist", |t| {
                    t[6] = (t[6].parse::<u64>().unwrap() + 1).to_string();
                }),
                "do not sum",
            ),
            (
                edit_line(&good, "est", |t| t[2] = "7ff8000000000000".into()),
                "NaN",
            ),
            (
                edit_line(&good, "shard", |t| t[5] = "41".into()),
                "exceeds its 40 error samples",
            ),
            (
                edit_line(&good, "hist", |t| {
                    for i in [5, 6] {
                        t[i] = (t[i].parse::<u64>().unwrap() + 1).to_string();
                    }
                }),
                "shard 1: histogram total 41 differs from its 40 error samples",
            ),
            (
                edit_line(
                    &edit_line(&good, "cells", |t| t[3] = usize::MAX.to_string()),
                    "hist",
                    |t| t.truncate(5),
                ),
                "expected `hist` line",
            ),
        ] {
            let err = Checkpoint::parse(&mutation).unwrap_err();
            assert!(err.contains(needle), "`{err}` should mention `{needle}`");
        }
    }

    #[test]
    fn empty_checkpoint_round_trips() {
        let ck = Checkpoint::new(9, 100);
        assert_eq!(Checkpoint::parse(&ck.to_text()).unwrap(), ck);
    }

    #[test]
    fn lock_excludes_second_holder_and_releases_on_drop() {
        let dir = std::env::temp_dir().join(format!("antdensity_lock_{}", std::process::id()));
        let ckpt = dir.join("sweep.ckpt");
        let lock = CheckpointLock::acquire(&ckpt).unwrap();
        let err = CheckpointLock::acquire(&ckpt).unwrap_err();
        assert!(err.contains("locked by running process"), "{err}");
        assert!(
            err.contains(&std::process::id().to_string()),
            "names the holder: {err}"
        );
        drop(lock);
        let relock = CheckpointLock::acquire(&ckpt).unwrap();
        drop(relock);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn stale_lock_from_dead_process_is_stolen() {
        let dir = std::env::temp_dir().join(format!("antdensity_stale_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt = dir.join("sweep.ckpt");
        // A PID beyond the kernel's pid_max (2^22) cannot be running.
        std::fs::write(dir.join("sweep.ckpt.lock"), "4000000000").unwrap();
        let lock =
            CheckpointLock::acquire(&ckpt).expect("a lock whose holder is gone must be stealable");
        drop(lock);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unreadable_lock_fails_loudly() {
        let dir = std::env::temp_dir().join(format!("antdensity_badlock_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt = dir.join("sweep.ckpt");
        std::fs::write(dir.join("sweep.ckpt.lock"), "not a pid").unwrap();
        let err = CheckpointLock::acquire(&ckpt).unwrap_err();
        assert!(err.contains("unreadable lock file"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
