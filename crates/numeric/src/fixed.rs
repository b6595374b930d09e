//! Fixed-point encoding of model weights into the wrapping `u64` ring.
//!
//! Secure aggregation (paper Sect. IV-A1) cancels pairwise masks by *exact*
//! addition: user A adds `m_ab` and user B subtracts the same `m_ab`. With
//! IEEE floats this cancellation is approximate and, worse, the masks must
//! be enormous to hide the weights, which destroys float precision
//! entirely. The standard fix — used by every practical secure-aggregation
//! deployment — is to quantize weights into a finite ring and let the masks
//! be uniform ring elements.
//!
//! [`FixedCodec`] maps `f64` weights to `u64` ring elements as two's
//! complement fixed-point numbers with a configurable number of fractional
//! bits. All ring arithmetic is wrapping, so `encode(w) + mask - mask`
//! recovers `encode(w)` bit-for-bit regardless of the mask value.
//!
//! # Aggregation head-room
//!
//! Summing `n` encoded values only decodes correctly while the true sum of
//! the underlying reals stays inside the representable range
//! `±2^(63 - frac_bits)`. With the default 24 fractional bits that range is
//! ±2^39 ≈ ±5.5·10^11 — vastly more than any weight-vector sum in the
//! paper's experiments (9 owners, logistic-regression weights in ±10).
//! Nothing in the ring notices a sum that leaves it: it wraps. So an
//! honest owner clamps each weight to [`FixedCodec::summand_limit`] of
//! its round's largest group before encoding, and a configuration whose
//! clamp would fall below 1 is rejected (`fedchain`'s `FlConfig`).

use std::fmt;

/// Default number of fractional bits: enough precision for gradient-scale
/// values (~6·10⁻⁸ resolution) with huge integer head-room.
pub const DEFAULT_FRAC_BITS: u32 = 24;

/// Encoder/decoder between `f64` values and the wrapping `u64` ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FixedCodec {
    frac_bits: u32,
}

impl Default for FixedCodec {
    fn default() -> Self {
        Self::new(DEFAULT_FRAC_BITS)
    }
}

impl FixedCodec {
    /// The fractional-bit counts a codec accepts: beyond 52 the `f64`
    /// mantissa can no longer provide new fractional information.
    pub const FRAC_BITS: std::ops::RangeInclusive<u32> = 1..=52;

    /// Creates a codec with `frac_bits` fractional bits.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= frac_bits <= 52` (beyond 52 the `f64` mantissa
    /// can no longer provide new fractional information).
    pub fn new(frac_bits: u32) -> Self {
        assert!(
            Self::FRAC_BITS.contains(&frac_bits),
            "frac_bits must be in 1..=52, got {frac_bits}"
        );
        Self { frac_bits }
    }

    /// Number of fractional bits.
    pub fn frac_bits(&self) -> u32 {
        self.frac_bits
    }

    /// Smallest representable positive step.
    pub fn resolution(&self) -> f64 {
        2f64.powi(-(self.frac_bits as i32))
    }

    /// Encodes a single value, saturating at the representable range.
    ///
    /// NaN encodes as zero (a NaN weight is a training bug, but the codec
    /// must stay total for the protocol to remain deterministic).
    pub fn encode(&self, v: f64) -> u64 {
        if v.is_nan() {
            return 0;
        }
        let scaled = v * (1u64 << self.frac_bits) as f64;
        let clamped = scaled.clamp(i64::MIN as f64, i64::MAX as f64);
        (clamped.round() as i64) as u64
    }

    /// The weight clamp that keeps a ring sum of `summands` encodings
    /// exact: `±2^(63 − frac_bits) / summands`, rounded down so that
    /// `summands` encodings of weights in `[−L, L]` add up to at most
    /// `i64::MAX` in magnitude and never wrap. (The saturation in
    /// [`FixedCodec::encode`] bounds one encoding, not a sum of them.)
    pub fn summand_limit(&self, summands: usize) -> f64 {
        let per = i64::MAX as u64 / summands.max(1) as u64;
        // The largest f64 ≤ `per`: an integer, so rounding a scaled
        // weight in [−L, L] cannot leave [−per, per].
        let mut scaled = per as f64;
        if scaled as u64 > per {
            scaled = f64::from_bits(scaled.to_bits() - 1);
        }
        scaled / (1u64 << self.frac_bits) as f64
    }

    /// Decodes a single ring element back to `f64`.
    pub fn decode(&self, r: u64) -> f64 {
        (r as i64) as f64 / (1u64 << self.frac_bits) as f64
    }

    /// Encodes a slice of weights.
    pub fn encode_vec(&self, vs: &[f64]) -> Vec<u64> {
        vs.iter().map(|&v| self.encode(v)).collect()
    }

    /// Decodes a slice of ring elements.
    pub fn decode_vec(&self, rs: &[u64]) -> Vec<f64> {
        rs.iter().map(|&r| self.decode(r)).collect()
    }

    /// Decodes the ring sum of `n` contributions as their *average*.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn decode_avg(&self, r: u64, n: usize) -> f64 {
        assert!(n > 0, "cannot average zero contributions");
        self.decode(r) / n as f64
    }

    /// Element-wise wrapping sum of ring vectors.
    ///
    /// # Panics
    ///
    /// Panics if vectors have mismatched lengths.
    pub fn ring_sum(vectors: &[Vec<u64>]) -> Vec<u64> {
        let Some(first) = vectors.first() else {
            return Vec::new();
        };
        let len = first.len();
        let mut acc = vec![0u64; len];
        for v in vectors {
            assert_eq!(v.len(), len, "ring vectors must share a length");
            for (a, &x) in acc.iter_mut().zip(v) {
                *a = a.wrapping_add(x);
            }
        }
        acc
    }

    /// Element-wise wrapping add in place.
    pub fn ring_add_assign(acc: &mut [u64], rhs: &[u64]) {
        assert_eq!(acc.len(), rhs.len(), "ring vectors must share a length");
        for (a, &x) in acc.iter_mut().zip(rhs) {
            *a = a.wrapping_add(x);
        }
    }

    /// Element-wise wrapping subtract in place.
    pub fn ring_sub_assign(acc: &mut [u64], rhs: &[u64]) {
        assert_eq!(acc.len(), rhs.len(), "ring vectors must share a length");
        for (a, &x) in acc.iter_mut().zip(rhs) {
            *a = a.wrapping_sub(x);
        }
    }
}

impl fmt::Display for FixedCodec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FixedCodec(Q{}.{})", 64 - self.frac_bits, self.frac_bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn summand_limit_sums_never_wrap() {
        for frac_bits in [1, 24, 52] {
            let c = FixedCodec::new(frac_bits);
            for g in [1usize, 2, 3, 7, 200, 1023, 2048, 1 << 20] {
                let limit = c.summand_limit(g);
                // Within an ulp-scale margin of 2^(63 − f) / g, never above.
                let ideal = 2f64.powi(63 - frac_bits as i32) / g as f64;
                assert!(
                    limit <= ideal && limit >= ideal * (1.0 - 1e-12),
                    "{frac_bits} {g}"
                );
                for w in [limit, -limit] {
                    let e = c.encode(w) as i64 as i128;
                    let sum = e * g as i128;
                    assert!(sum.abs() <= i64::MAX as i128, "{frac_bits} {g} {w}");
                    if g <= 4096 {
                        let ring = (0..g).fold(0u64, |acc, _| acc.wrapping_add(e as u64));
                        assert_eq!(ring as i64 as i128, sum);
                    }
                }
            }
        }
        // The shape the clamp was found on: 200 owners in one group at
        // 52 fractional bits may add weights of ±10.24, not ±2048.
        let limit = FixedCodec::new(52).summand_limit(200);
        assert!(limit > 10.0 && limit < 10.25, "{limit}");
    }

    #[test]
    fn encode_decode_identity_on_grid() {
        let c = FixedCodec::default();
        for v in [-2.5, -1.0, 0.0, 0.5, 1.0, 3.25, 1000.0] {
            assert_eq!(c.decode(c.encode(v)), v, "grid value {v} must be exact");
        }
    }

    #[test]
    fn rounding_error_bounded_by_half_step() {
        let c = FixedCodec::default();
        let step = c.resolution();
        for v in [0.1, -0.7, 2.7181, -123.456] {
            let err = (c.decode(c.encode(v)) - v).abs();
            assert!(
                err <= step / 2.0 + f64::EPSILON,
                "err {err} > {}",
                step / 2.0
            );
        }
    }

    #[test]
    fn nan_encodes_to_zero() {
        let c = FixedCodec::default();
        assert_eq!(c.encode(f64::NAN), 0);
    }

    #[test]
    fn saturation_at_extremes() {
        let c = FixedCodec::new(24);
        let huge = 1e300;
        let enc = c.encode(huge);
        assert_eq!(enc as i64, i64::MAX);
        let enc_neg = c.encode(-huge);
        assert_eq!(enc_neg as i64, i64::MIN);
    }

    #[test]
    #[should_panic(expected = "frac_bits")]
    fn invalid_frac_bits_rejected() {
        let _ = FixedCodec::new(0);
    }

    #[test]
    fn mask_cancellation_is_exact() {
        let c = FixedCodec::default();
        let w = c.encode(0.12345);
        let mask = 0xdead_beef_cafe_babe_u64;
        let masked = w.wrapping_add(mask);
        assert_eq!(masked.wrapping_sub(mask), w);
    }

    #[test]
    fn ring_sum_of_three_masked_parties_cancels() {
        // Miniature of the paper's A/B/C example.
        let c = FixedCodec::default();
        let (wa, wb, wc) = (c.encode(1.5), c.encode(-0.25), c.encode(2.0));
        let (mab, mbc, mac) = (0x1111, 0x2222, 0x3333u64);
        let a = wa.wrapping_add(mab).wrapping_sub(mac);
        let b = wb.wrapping_add(mbc).wrapping_sub(mab);
        let cc = wc.wrapping_add(mac).wrapping_sub(mbc);
        let sum = a.wrapping_add(b).wrapping_add(cc);
        assert_eq!(c.decode(sum), 1.5 - 0.25 + 2.0);
    }

    #[test]
    fn ring_sum_empty_and_mismatched() {
        assert!(FixedCodec::ring_sum(&[]).is_empty());
        let ok = FixedCodec::ring_sum(&[vec![1, 2], vec![3, 4]]);
        assert_eq!(ok, vec![4, 6]);
    }

    #[test]
    #[should_panic(expected = "share a length")]
    fn ring_sum_length_mismatch_panics() {
        let _ = FixedCodec::ring_sum(&[vec![1], vec![1, 2]]);
    }

    #[test]
    fn decode_avg_divides() {
        let c = FixedCodec::default();
        let sum = c.encode(6.0);
        assert_eq!(c.decode_avg(sum, 3), 2.0);
    }

    #[test]
    #[should_panic(expected = "zero contributions")]
    fn decode_avg_zero_panics() {
        FixedCodec::default().decode_avg(0, 0);
    }

    #[test]
    fn display_shows_q_format() {
        assert_eq!(FixedCodec::new(24).to_string(), "FixedCodec(Q40.24)");
    }

    proptest! {
        #[test]
        fn prop_round_trip_error_bounded(v in -1e6f64..1e6) {
            let c = FixedCodec::default();
            let err = (c.decode(c.encode(v)) - v).abs();
            prop_assert!(err <= c.resolution() / 2.0 + 1e-12);
        }

        #[test]
        fn prop_masking_cancels_for_any_mask(
            v in -1e6f64..1e6, mask in any::<u64>()
        ) {
            let c = FixedCodec::default();
            let w = c.encode(v);
            prop_assert_eq!(w.wrapping_add(mask).wrapping_sub(mask), w);
        }

        #[test]
        fn prop_sum_then_decode_matches_decode_then_sum(
            vals in proptest::collection::vec(-1e3f64..1e3, 1..20)
        ) {
            let c = FixedCodec::default();
            let encoded: Vec<Vec<u64>> =
                vals.iter().map(|&v| vec![c.encode(v)]).collect();
            let ring = FixedCodec::ring_sum(&encoded)[0];
            let direct: f64 = vals.iter().map(|&v| c.decode(c.encode(v))).sum();
            prop_assert!((c.decode(ring) - direct).abs() < 1e-9);
        }

        #[test]
        fn prop_add_sub_assign_inverse(
            a in proptest::collection::vec(any::<u64>(), 1..16),
            b in proptest::collection::vec(any::<u64>(), 1..16),
        ) {
            let n = a.len().min(b.len());
            let (a, b) = (&a[..n], &b[..n]);
            let mut acc = a.to_vec();
            FixedCodec::ring_add_assign(&mut acc, b);
            FixedCodec::ring_sub_assign(&mut acc, b);
            prop_assert_eq!(acc.as_slice(), a);
        }
    }
}
