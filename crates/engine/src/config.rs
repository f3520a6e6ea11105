//! The engine's determinism granularity.
//!
//! [`STREAM_BLOCK`] is part of the engine's reproducibility contract
//! (seeds recorded by older runs replay bit-for-bit), so it is a
//! constant, not a knob.

/// Agents per RNG stream block: the fixed determinism granularity of
/// [`Engine::step_round`](crate::Engine::step_round).
/// Block `b` of round `r` draws from `seeds.subsequence(r).rng(b)`,
/// whichever kernel steps the block.
pub const STREAM_BLOCK: usize = 256;
