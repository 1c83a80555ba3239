//! A sequential SplitMix64 generator for the fuzzer and the socket tests,
//! which want a stream of draws rather than the keyed random access of
//! `bq_core::rng`. It is built on that module's finalizer, so its output
//! is the reference SplitMix64 sequence (the first output of `new(0)` is
//! `0xE220_A839_7B1D_CDAF`).

// Shared by the fuzzer and the socket tests; each uses part of it.
#![allow(dead_code)]

use bq_core::rng::{mix, GOLDEN_GAMMA};

/// A SplitMix64 stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Start a stream at `seed`.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Start a salted sub-stream: same seed with a different salt yields a
    /// statistically independent sequence (`salt` is mixed, not added, so
    /// salts need not be spaced).
    pub fn with_salt(seed: u64, salt: u64) -> Self {
        Self::new(seed ^ mix(salt))
    }

    /// Next 64 uniformly mixed bits.
    pub fn next_u64(&mut self) -> u64 {
        let out = mix(self.state);
        self.state = self.state.wrapping_add(GOLDEN_GAMMA);
        out
    }
}
