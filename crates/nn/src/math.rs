//! `f32` `tanh`, `exp` and `ln`, built from IEEE basic operations only.
//!
//! std's `f32::{tanh, exp, ln}` call the platform's libm, and std documents
//! their precision as varying by platform and Rust version. Every learned
//! value of this workspace passes through these three functions: the
//! `tanh` of the `(σ·Linear)^m` heads, the `exp` of every softmax and the
//! `ln` of every log-probability. So they are owned here, and every `f32`
//! evaluation in the learning crates calls them.
//!
//! Each function widens its argument to `f64`, evaluates with additions,
//! multiplications, at most one division, comparisons and bit casts, and
//! rounds once to `f32`. Before that rounding the relative error is below
//! 2^-31, far under half an `f32` ulp (2^-24), so every result is within
//! 1 ulp of the correctly rounded value. There is
//! one code path: no `mul_add`, no `std::arch`, no target-feature branch
//! and no `unsafe`. The bodies have no branch: clamps and special values
//! are selects, so loops such as [`crate::Tensor::map`] can vectorize.
//!
//! Special values are exact:
//!
//! - `tanh(±0) = ±0`, and `tanh` is exactly ±1 from |x| ≈ 9.01 on;
//! - `exp(x) = +0` for x ≤ −104 (so a logit at a mask value keeps
//!   probability exactly 0), `+∞` from 88.72284 on, and the subnormal
//!   results in between are rounded like any other;
//! - `ln(1) = +0`, `ln(±0) = −∞`, `ln(+∞) = +∞` and `ln(x < 0)` is NaN;
//! - a NaN argument is returned unchanged, bit for bit.
//!
//! The tests pin input → output bit patterns, and sweep each function's
//! domain against std's `f64` result rounded to `f32`.

use std::f64::consts::{FRAC_1_SQRT_2, LN_2, LOG2_E};

/// 1.5 · 2^52. Adding it to an `f64` of magnitude below 2^51 rounds the
/// value to the nearest integer (ties to even) and leaves that integer in
/// the low bits of the sum.
const SHIFT: f64 = 6_755_399_441_055_744.0;

/// Coefficients of `2^r − 1 ≈ r·(P1 + r·(P2 + … + r·P7))` on
/// r ∈ [−0.5, 0.5]: a Chebyshev fit of `(2^r − 1)/r` of degree 6, with a
/// relative error below 3e-10. The fit's constant term rounds to `ln 2`.
const P1: f64 = LN_2;
const P2: f64 = 0.240_226_509_222_887_57;
const P3: f64 = 0.055_504_108_839_096_185;
const P4: f64 = 0.009_618_056_678_524_637;
const P5: f64 = 0.001_333_350_238_616_277;
const P6: f64 = 0.000_154_614_446_985_691_3;
const P7: f64 = 0.000_015_297_323_760_701_075;

/// `2^z` as `(2^n, 2^r − 1)` with `n = round(z)` and `r = z − n`, so that
/// `2^z = 2^n · (1 + (2^r − 1))`. Keeping `2^r − 1` apart keeps its
/// relative precision for small `z`, which `tanh` needs. `|z|` must stay
/// below 1022, so that `2^n` is a normal `f64`.
#[inline(always)]
fn exp2_split(z: f64) -> (f64, f64) {
    let shifted = z + SHIFT;
    let n = shifted - SHIFT;
    let r = z - n;
    // The low bits of `shifted` hold n: n + 1023 is the biased exponent.
    let scale = f64::from_bits(shifted.to_bits().wrapping_add(1023) << 52);
    let p = r * (P1 + r * (P2 + r * (P3 + r * (P4 + r * (P5 + r * (P6 + r * P7))))));
    (scale, p)
}

/// Hyperbolic tangent, within 1 ulp of the correctly rounded result.
///
/// `tanh|x| = (e^{2|x|} − 1) / (e^{2|x|} + 1)`, with `e^{2|x|} − 1`
/// carried at full relative precision, so one formula serves every |x|.
/// Above |x| ≈ 9.01 the result rounds to 1 in `f32`; clamping |x| at 10
/// keeps it there and keeps `2^n` small.
#[inline]
pub fn tanh(x: f32) -> f32 {
    let a = f64::from(x.abs());
    let a = if a < 10.0 { a } else { 10.0 };
    let (scale, p) = exp2_split(a * (2.0 * LOG2_E));
    let em1 = scale * p + (scale - 1.0);
    let t = (em1 / (em1 + 2.0)) as f32;
    if x.is_nan() {
        x
    } else {
        t.copysign(x)
    }
}

/// Exponential, within 1 ulp of the correctly rounded result.
///
/// The argument is clamped to [−150, 100]: below −104 the result rounds
/// to +0 and from 88.72284 on to +∞ either way, and the clamp keeps `2^n`
/// normal. The final rounding to `f32` produces the subnormal results.
#[inline]
pub fn exp(x: f32) -> f32 {
    let xd = f64::from(x);
    let xd = if xd > -150.0 { xd } else { -150.0 };
    let xd = if xd < 100.0 { xd } else { 100.0 };
    let (scale, p) = exp2_split(xd * LOG2_E);
    let y = (scale * (1.0 + p)) as f32;
    if x.is_nan() {
        x
    } else {
        y
    }
}

/// The bits of √½, the lower end of `ln`'s reduced range.
const SQRT_HALF_BITS: u64 = FRAC_1_SQRT_2.to_bits();

/// Natural logarithm, within 1 ulp of the correctly rounded result.
///
/// `x = 2^k · z` with `z ∈ [√½, √2)`, and `ln z = 2·atanh(s)` with
/// `s = (z − 1)/(z + 1)`, |s| ≤ 0.172, summed to the `s^11` term.
/// A subnormal `x` is a normal `f64`, so it takes the same path.
#[inline]
pub fn ln(x: f32) -> f32 {
    let bits = f64::from(x).to_bits();
    let offset = bits.wrapping_sub(SQRT_HALF_BITS);
    // The exponent field of x/√½, as a signed k; z is x with k taken out.
    let k = f64::from(((offset as i64) >> 52) as i32);
    let z = f64::from_bits(bits.wrapping_sub(offset & (0xfff << 52)));
    let f = z - 1.0;
    let s = f / (2.0 + f);
    let s2 = s * s;
    let w = s2 * (1.0 / 3.0 + s2 * (1.0 / 5.0 + s2 * (1.0 / 7.0 + s2 * (1.0 / 9.0 + s2 / 11.0))));
    let y = (k * LN_2 + (2.0 * s + 2.0 * s * w)) as f32;
    let y = if x == f32::INFINITY { x } else { y };
    let y = if x == 0.0 { f32::NEG_INFINITY } else { y };
    let y = if x < 0.0 { f32::NAN } else { y };
    if x.is_nan() {
        x
    } else {
        y
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A monotone integer image of an `f32`: neighbouring floats differ
    /// by 1, and ±0 map to 0.
    fn ordinal(x: f32) -> i64 {
        let bits = x.to_bits();
        let magnitude = i64::from(bits & 0x7fff_ffff);
        if bits >> 31 == 1 {
            -magnitude
        } else {
            magnitude
        }
    }

    fn ulps(a: f32, b: f32) -> i64 {
        (ordinal(a) - ordinal(b)).abs()
    }

    /// Every `stride`-th bit pattern from `lo` to `hi` (inclusive of `lo`),
    /// plus `hi` itself.
    fn patterns(lo: u32, hi: u32, stride: u32) -> impl Iterator<Item = f32> {
        (lo..hi)
            .step_by(stride as usize)
            .chain(std::iter::once(hi))
            .map(f32::from_bits)
    }

    /// Assert `ours` is within 1 ulp of std's `f64` evaluation rounded to
    /// `f32` on every sampled input, NaN exactly where the reference is
    /// NaN. Returns the number of inputs checked.
    fn sweep(
        ours: fn(f32) -> f32,
        reference: fn(f64) -> f64,
        inputs: impl Iterator<Item = f32>,
    ) -> usize {
        let mut checked = 0;
        for x in inputs {
            let (got, want) = (ours(x), reference(f64::from(x)) as f32);
            if want.is_nan() {
                assert!(got.is_nan(), "f({x:e}) = {got:e}, want NaN");
            } else {
                assert!(
                    ulps(got, want) <= 1,
                    "f({x:e} = {:#010x}) = {got:e}, want {want:e}",
                    x.to_bits()
                );
            }
            checked += 1;
        }
        checked
    }

    /// A prime stride visits every exponent and a spread of mantissas.
    const STRIDE: u32 = 4093;

    #[test]
    fn tanh_is_within_one_ulp_over_every_sign_and_exponent() {
        let inputs =
            patterns(0, 0x7f80_0000, STRIDE).chain(patterns(0x8000_0000, 0xff80_0000, STRIDE));
        assert!(sweep(tanh, f64::tanh, inputs) > 1_000_000);
        // The non-saturated range, densely.
        let dense =
            patterns(0x3c00_0000, 0x4110_0000, 97).chain(patterns(0xbc00_0000, 0xc110_0000, 97));
        assert!(sweep(tanh, f64::tanh, dense) > 1_000_000);
    }

    #[test]
    fn exp_is_within_one_ulp_over_every_sign_and_exponent() {
        let inputs =
            patterns(0, 0x7f80_0000, STRIDE).chain(patterns(0x8000_0000, 0xff80_0000, STRIDE));
        assert!(sweep(exp, f64::exp, inputs) > 1_000_000);
        // [−104, 89], the range with finite non-zero results, densely.
        let dense =
            patterns(0x3c00_0000, 0x42b2_0000, 97).chain(patterns(0xbc00_0000, 0xc2d0_0000, 97));
        assert!(sweep(exp, f64::exp, dense) > 1_000_000);
    }

    #[test]
    fn ln_is_within_one_ulp_over_its_domain() {
        let positive = patterns(1, 0x7f80_0000, STRIDE / 2);
        assert!(sweep(ln, f64::ln, positive) > 1_000_000);
        // (0.5, 2), around the zero at 1, densely.
        assert!(sweep(ln, f64::ln, patterns(0x3f00_0000, 0x4000_0000, 7)) > 1_000_000);
        let negative = patterns(0x8000_0001, 0xff80_0000, STRIDE);
        assert!(negative.map(ln).all(f32::is_nan));
    }

    /// `f` gives each pinned `(input bits, output bits)` pair to the bit,
    /// and every pinned output is within 1 ulp of the reference.
    fn assert_pinned(
        name: &str,
        f: fn(f32) -> f32,
        reference: fn(f64) -> f64,
        table: &[(u32, u32)],
    ) {
        let inputs = table.iter().map(|&(x, _)| f32::from_bits(x));
        assert_eq!(sweep(f, reference, inputs), table.len());
        for &(x, want) in table {
            let got = f(f32::from_bits(x)).to_bits();
            assert_eq!(
                got,
                want,
                "{name}({:e} = {x:#010x}) = {got:#010x}, pinned {want:#010x}",
                f32::from_bits(x)
            );
        }
    }

    #[test]
    fn tanh_bits_are_pinned() {
        assert_pinned("tanh", tanh, f64::tanh, TANH_BITS);
    }

    #[test]
    fn exp_bits_are_pinned() {
        assert_pinned("exp", exp, f64::exp, EXP_BITS);
    }

    #[test]
    fn ln_bits_are_pinned() {
        assert_pinned("ln", ln, f64::ln, LN_BITS);
    }

    #[test]
    fn special_values_are_exact() {
        assert_eq!(tanh(0.0).to_bits(), 0.0f32.to_bits());
        assert_eq!(tanh(-0.0).to_bits(), (-0.0f32).to_bits());
        for x in [9.1f32, 10.0, 1e3, f32::MAX, f32::INFINITY] {
            assert_eq!((tanh(x), tanh(-x)), (1.0, -1.0), "tanh(±{x})");
        }
        for x in [
            -104.0f32,
            -150.0,
            -1e8,
            -1e8 - 40.0,
            f32::MIN,
            f32::NEG_INFINITY,
        ] {
            assert_eq!(exp(x).to_bits(), 0, "exp({x})");
        }
        assert_eq!(exp(0.0), 1.0);
        assert_eq!(exp(88.722_84), f32::INFINITY);
        assert!(exp(88.722_83).is_finite());
        assert_eq!(exp(f32::INFINITY), f32::INFINITY);
        assert_eq!(ln(1.0).to_bits(), 0);
        assert_eq!((ln(0.0), ln(-0.0)), (f32::NEG_INFINITY, f32::NEG_INFINITY));
        assert_eq!(ln(f32::INFINITY), f32::INFINITY);
        assert!(ln(-1.0).is_nan() && ln(f32::NEG_INFINITY).is_nan());
        for nan in [0x7fc0_0000u32, 0xffc0_0001, 0x7fa0_0000] {
            for f in [tanh, exp, ln] {
                assert_eq!(f(f32::from_bits(nan)).to_bits(), nan);
            }
        }
    }

    const TANH_BITS: &[(u32, u32)] = &[
        (0x00000000, 0x00000000), // +0
        (0x80000000, 0x80000000), // -0
        (0x00000001, 0x00000001), // smallest subnormal
        (0x00400000, 0x00400000), // subnormal
        (0x00800000, 0x00800000), // smallest normal
        (0x1e3ce508, 0x1e3ce508), // 1e-20
        (0x39800000, 0x39800000), // 2^-12
        (0xba83126f, 0xba83126c), // -1e-3
        (0x3dcccccd, 0x3dcc1ebc), // 0.1
        (0x3e317217, 0x3e2fb0cc), // below |x| = ln2/4, where n = round(2|x|·log2 e) turns 1
        (0x3e317218, 0x3e2fb0cd), // above it
        (0x3e800000, 0x3e7acbf5), // 0.25
        (0x3f000000, 0x3eec9a9f), // 0.5
        (0xbf0ccccd, 0xbf002218), // -0.55
        (0x3f400000, 0x3f22991f), // 0.75
        (0x3f800000, 0x3f42f7d6), // 1
        (0xbf800000, 0xbf42f7d6), // -1
        (0x3fc00000, 0x3f67b7cc), // 1.5
        (0x40000000, 0x3f76ca83), // 2
        (0xc0400000, 0xbf7ebbe9), // -3
        (0x40800000, 0x3f7fd40c), // 4
        (0x40a00000, 0x3f7ffa0d), // 5
        (0x41000000, 0x3f7ffffc), // 8
        (0x41100000, 0x3f7fffff), // 9
        (0x41102cb3, 0x3f7fffff), // last value below 1
        (0x41102cb4, 0x3f800000), // first saturated value
        (0x41200000, 0x3f800000), // 10, the clamp
        (0xc1a00000, 0xbf800000), // -20
        (0x7f7fffff, 0x3f800000), // f32::MAX
        (0x7f800000, 0x3f800000), // +inf
        (0xff800000, 0xbf800000), // -inf
        (0x7fc00000, 0x7fc00000), // NaN, returned unchanged
    ];
    const EXP_BITS: &[(u32, u32)] = &[
        (0x00000000, 0x3f800000), // +0
        (0x80000000, 0x3f800000), // -0
        (0x00000001, 0x3f800000), // smallest subnormal
        (0x2edbe6ff, 0x3f800000), // 1e-10
        (0xaedbe6ff, 0x3f800000), // -1e-10
        (0x3f000000, 0x3fd3094c), // 0.5
        (0x3f800000, 0x402df854), // 1
        (0xbf800000, 0x3ebc5ab2), // -1
        (0x3f317218, 0x40000000), // ln 2
        (0x40000000, 0x40ec7326), // 2
        (0x41200000, 0x46ac14ee), // 10
        (0xc1200000, 0x383e6bce), // -10
        (0x42480000, 0x638c881f), // 50
        (0xc2480000, 0x1b692beb), // -50
        (0x42b00000, 0x7ef882b7), // 88
        (0x42b17217, 0x7f7fff84), // largest argument with a finite result
        (0x42b17218, 0x7f800000), // first overflow
        (0x42c80000, 0x7f800000), // 100, the clamp
        (0x7f800000, 0x7f800000), // +inf
        (0xc2ae0000, 0x00b33687), // -87, last normal results
        (0xc2b00000, 0x0041edc4), // -88, subnormal
        (0xc2c80000, 0x0000001b), // -100, subnormal
        (0xc2cff1b4, 0x00000001), // smallest non-zero result
        (0xc2cff1b5, 0x00000000), // first zero result
        (0xc2d00000, 0x00000000), // -104
        (0xc3160000, 0x00000000), // -150, the clamp
        (0xccbebc20, 0x00000000), // MASK_VALUE
        (0xccbebc22, 0x00000000), // MASK_VALUE - m
        (0xff7fffff, 0x00000000), // f32::MIN
        (0xff800000, 0x00000000), // -inf
        (0x7fc00000, 0x7fc00000), // NaN, returned unchanged
    ];
    const LN_BITS: &[(u32, u32)] = &[
        (0x3f800000, 0x00000000), // 1
        (0x3f7fffff, 0xb3800000), // 1 - ulp
        (0x3f800001, 0x33ffffff), // 1 + ulp
        (0x3f7fbe77, 0xba8322ca), // 0.999
        (0x3f8020c5, 0x3a83033b), // 1.001
        (0x40000000, 0x3f317218), // 2
        (0x3f000000, 0xbf317218), // 0.5
        (0x402df854, 0x3f7fffff), // e
        (0x41200000, 0x40135d8e), // 10
        (0x3dcccccd, 0xc0135d8e), // 0.1
        (0x42c80000, 0x40935d8e), // 100
        (0x3f3504f3, 0xbeb17219), // just below sqrt(1/2), where k turns -1
        (0x3f3504f4, 0xbeb17216), // just above it
        (0x3fb504f3, 0x3eb17217), // just below sqrt(2), where k turns 1
        (0x3fb504f4, 0x3eb1721a), // just above it
        (0x47800000, 0x41317218), // 2^16
        (0x501502f9, 0x41b834f1), // 1e10
        (0x322bcc77, 0xc1935d8e), // 1e-8, the trainer's floor
        (0x2b8cbccc, 0xc1dd0c55), // 1e-12, the agent's floor
        (0x00800000, 0xc2aeac50), // smallest normal
        (0x00400000, 0xc2b00f34), // subnormal
        (0x00000001, 0xc2ce8ed0), // smallest subnormal
        (0x7f7fffff, 0x42b17218), // f32::MAX
        (0x7f800000, 0x7f800000), // +inf
        (0x00000000, 0xff800000), // +0
        (0x80000000, 0xff800000), // -0
        (0xbf800000, 0x7fc00000), // -1
        (0x80000001, 0x7fc00000), // negative subnormal
        (0xff800000, 0x7fc00000), // -inf
        (0x7fc00000, 0x7fc00000), // NaN, returned unchanged
    ];
}
