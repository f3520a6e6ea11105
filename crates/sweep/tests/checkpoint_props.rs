//! Property tests of the checkpoint text format. The same parser reads
//! checkpoints on `--resume`, dist RESULT blobs and shard-cache hits,
//! so it must turn any damaged text into an `Err`, never a panic.
//!
//! * `parse(to_text(x)) == x` for random multi-shard checkpoints;
//! * a shard whose histogram total differs from its error sample count
//!   is an `Err` naming that shard;
//! * every single-token replacement, every dropped line and every
//!   truncation of a valid multi-shard checkpoint parses to `Ok` or
//!   `Err` without panicking.
//!
//! The vendored proptest seeds each property from its name, so every
//! run checks the same cases.

use antdensity_stats::histogram::Histogram;
use antdensity_sweep::{CellAggregate, Checkpoint};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// One shard's raw material: trial count and error samples. Samples
/// below 0 and at or above the histogram's upper bound 4 land in the
/// under- and overflow counters.
type ShardInput = (u64, Vec<f64>);

fn shard_inputs() -> impl Strategy<Value = Vec<ShardInput>> {
    prop::collection::vec((0u64..6, prop::collection::vec(-1.0f64..6.0, 0..40)), 2..5)
}

/// A checkpoint holding one aggregate per input, at shard indices
/// `0, stride, 2·stride, …`, every histogram with `bins` bins.
fn checkpoint(fingerprint: u64, bins: usize, stride: usize, shards: &[ShardInput]) -> Checkpoint {
    let mut ck = Checkpoint::new(fingerprint, stride * shards.len());
    for (i, (trials, samples)) in shards.iter().enumerate() {
        let mut agg = CellAggregate {
            trials: *trials,
            err_hist: Histogram::new(0.0, 4.0, bins),
            ..CellAggregate::new()
        };
        for &x in samples {
            agg.est.push(x);
            agg.err.push(x.abs());
            agg.err_hist.push(x);
            agg.within += u64::from(x.abs() <= 0.5);
            if x > 3.0 {
                agg.aux.push(x);
            }
        }
        ck.shards.insert(i * stride, agg);
    }
    ck
}

/// Parses `text`, failing the case (instead of the whole test binary's
/// report) if the parser panics.
fn parse_without_panic(text: &str, what: &str) -> Result<(), TestCaseError> {
    match catch_unwind(AssertUnwindSafe(|| Checkpoint::parse(text))) {
        Ok(_) => Ok(()),
        Err(_) => Err(TestCaseError::fail(format!(
            "parse panicked after {what}:\n{text}"
        ))),
    }
}

/// Replacement tokens: numeric edge values, bit patterns of NaN and
/// −∞, non-numbers, and the original value ± 1 when it is an integer.
fn replacements(tok: &str) -> Vec<String> {
    let mut out: Vec<String> = [
        "0",
        "1",
        "18446744073709551615",
        "7ff8000000000000",
        "fff0000000000000",
        "-1",
        "x",
        "",
    ]
    .map(String::from)
    .to_vec();
    if let Ok(v) = tok.parse::<u64>() {
        out.push(v.wrapping_add(1).to_string());
        out.push(v.wrapping_sub(1).to_string());
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn text_round_trips(
        fingerprint in any::<u64>(),
        bins in 1usize..12,
        stride in 1usize..4,
        shards in shard_inputs(),
    ) {
        let ck = checkpoint(fingerprint, bins, stride, &shards);
        prop_assert_eq!(Checkpoint::parse(&ck.to_text()), Ok(ck));
    }

    #[test]
    fn histogram_total_must_match_error_samples(
        fingerprint in any::<u64>(),
        bins in 1usize..12,
        shards in shard_inputs(),
        which in 0usize..5,
        extra_in_hist in prop::bool::ANY,
    ) {
        // One extra sample in only one of the two accumulators; the
        // histogram's bins, under- and overflow still sum to its total.
        let mut ck = checkpoint(fingerprint, bins, 1, &shards);
        let idx = which % shards.len();
        let agg = ck.shards.get_mut(&idx).expect("shard present");
        if extra_in_hist {
            agg.err_hist.push(1.0);
        } else {
            agg.err.push(1.0);
        }
        let err = Checkpoint::parse(&ck.to_text()).expect_err("mismatched totals must not parse");
        prop_assert!(
            err.contains(&format!("shard {idx}: histogram total")),
            "unexpected error: {}",
            err
        );
    }

    #[test]
    fn corrupt_text_is_an_error_not_a_panic(
        fingerprint in any::<u64>(),
        bins in 1usize..12,
        shards in shard_inputs(),
    ) {
        let text = checkpoint(fingerprint, bins, 1, &shards).to_text();
        let lines: Vec<&str> = text.lines().collect();
        for (i, line) in lines.iter().enumerate() {
            let mut dropped = lines.clone();
            dropped.remove(i);
            parse_without_panic(&(dropped.join("\n") + "\n"), &format!("dropping line {i}"))?;
            let toks: Vec<&str> = line.split_whitespace().collect();
            for (j, tok) in toks.iter().enumerate() {
                for with in replacements(tok) {
                    let mut edited_line = toks.clone();
                    edited_line[j] = &with;
                    let mut edited = lines.clone();
                    let joined = edited_line.join(" ");
                    edited[i] = &joined;
                    parse_without_panic(
                        &(edited.join("\n") + "\n"),
                        &format!("line {i} token {j} `{tok}` -> `{with}`"),
                    )?;
                }
            }
        }
        for (at, _) in text.char_indices() {
            parse_without_panic(&text[..at], &format!("truncating at byte {at}"))?;
        }
    }
}
