//! The one blessed home of seeded randomness.
//!
//! Every stochastic choice in the stack — shard placement, admission and
//! transit jitter, fault schedules, recovery backoff — must be a pure
//! function of the episode seed, or replays diverge. Before this module the
//! SplitMix64 finalizer was re-implemented inline in half a dozen crates;
//! now the constants live here once, and the `unseeded-rng` lint rule
//! (`bq-lint`) flags any copy that reappears elsewhere.
//!
//! Two layers, lowest first:
//!
//! * [`mix`] — the raw SplitMix64 finalizer: 64 bits in, 64 well-mixed bits
//!   out. Equivalent to the first output of a SplitMix64 generator seeded
//!   with the input. The hash router draws its shard placements from it,
//!   and the wire tests build their sequential SplitMix64 stream on it and
//!   [`GOLDEN_GAMMA`].
//! * [`unit()`] / [`stream_unit`] — one uniform `f64` draw in `[0, 1)` from a
//!   mixed key. `unit` keys the adapter's dispatch jitter; `stream_unit`
//!   builds the key from the `(seed, salt, index, lane)` convention of the
//!   wire's transit jitter, the chaos transport's truncation draws and the
//!   session's recovery backoff.
//!
//! Byte-compatibility matters more than elegance here: the goldens pin
//! replay output, so [`mix`] and [`unit()`] are the exact functions previously
//! known as `bq_core::splitmix64` / `bq_core::seeded_unit`, and the tests
//! below pin their outputs to literal known-answer values.

/// Weyl-sequence increment of SplitMix64 (the fractional part of the golden
/// ratio in 64-bit fixed point). Public so a sequential stream can step by
/// the canonical constant instead of re-typing it.
pub const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The stride every keyed jitter stream applies to its event index before
/// xoring into the seed (see [`stream_unit`]). An arbitrary odd 64-bit
/// constant — shared so the adapter, wire, and chaos streams stay mutually
/// decorrelated by *salt*, not by drifting index arithmetic.
pub const INDEX_MIX: u64 = 0x9E6C_63D0_876A_9A69;

/// SplitMix64 finalizer — the deterministic 64-bit mix behind every seeded
/// stream in the scheduling stack (shard selection, admission jitter in
/// `bq-adapter`, transport latency in `bq-wire`, fault draws in `bq-chaos`).
/// One definition, so the replay-determinism guarantees of every consumer
/// can never silently diverge.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(GOLDEN_GAMMA);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One deterministic uniform draw in `[0, 1)` from a mixed key: the 53
/// mantissa bits of [`mix`]'s output. The shared primitive behind every
/// seeded latency-jitter stream (`bq-adapter` admissions, `bq-wire`
/// transits, `bq-chaos` fault schedules), so a precision change can never
/// silently diverge between them.
pub fn unit(key: u64) -> f64 {
    (mix(key) >> 11) as f64 / (1u64 << 53) as f64
}

/// One keyed draw from the `(seed, salt, index, lane)` convention used by
/// every event-indexed jitter stream: `salt` names the stream (one constant
/// per purpose), `index` is the event counter (strided by [`INDEX_MIX`] so
/// neighboring events decorrelate), and `lane` sub-divides a stream (e.g.
/// per-connection). Same inputs, same draw — on any platform, forever.
pub fn stream_unit(seed: u64, salt: u64, index: u64, lane: u64) -> f64 {
    unit(seed ^ salt ^ index.wrapping_mul(INDEX_MIX) ^ lane)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The finalizer is pinned to literal known-answer values (the reference
    /// SplitMix64 sequence seeded with 0): editing the constants or the
    /// shift structure breaks replays, and this test, first.
    #[test]
    fn mix_matches_reference_known_answers() {
        assert_eq!(mix(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(mix(GOLDEN_GAMMA), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(mix(0xDEAD_BEEF), 0x4ADF_B90F_68C9_EB9B);
    }

    #[test]
    fn unit_is_pinned_and_in_range() {
        assert_eq!(unit(42), 0.741_564_878_771_823_3);
        for key in 0..1000u64 {
            let u = unit(key);
            assert!((0.0..1.0).contains(&u), "unit({key}) = {u}");
        }
    }

    #[test]
    fn stream_unit_is_the_documented_key_derivation() {
        let (seed, salt, index, lane) = (0xFEED, 0xBEEF, 17u64, 3u64);
        let expected = unit(seed ^ salt ^ index.wrapping_mul(INDEX_MIX) ^ lane);
        assert_eq!(stream_unit(seed, salt, index, lane), expected);
    }
}
