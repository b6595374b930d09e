//! The three transcendental functions the protocol's bits depend on —
//! [`exp`], [`ln`] and [`cos_2pi`] — written once, in IEEE-exact
//! operations only.
//!
//! Every generated data set (Box–Muller), every softmax pass of local
//! training and through them every masked submission depends on these
//! three functions, and verification by re-execution only works if every
//! party computes the same bits. The platform's libm promises an error
//! bound, not a bit pattern — two glibc versions, or glibc and musl, may
//! round the last place differently — so the repository owns the
//! functions: each is straight-line binary64 code over `+ − × ÷ sqrt`,
//! comparisons-as-selects and bit operations, all of which IEEE 754
//! defines exactly. The result is therefore the same bits on every
//! IEEE-754 target, at any optimisation level (a NaN result is a NaN
//! everywhere; its sign and payload are the one thing the standard
//! leaves open, and nothing reads them).
//!
//! # Shape of each function
//!
//! * **One reduction, one polynomial, one order.** [`exp`] reduces
//!   `x = k·ln 2 + r`, `|r| ≤ ½ ln 2`, by Cody–Waite (`ln 2` in a
//!   32-bit head, so `k·head` is exact, and a tail) and evaluates
//!   fdlibm's degree-5 rational form in `r²` by Horner; `2^k` is applied
//!   as two exact power-of-two factors, so results round once, subnormal
//!   ones included. [`ln`] splits `x = 2^k·m`, `m ∈ [√½, √2)`, by integer
//!   arithmetic on the bits (subnormals scaled up by `2⁵⁴` first) and
//!   evaluates fdlibm's degree-7 polynomial in `s²`, `s = f / (2 + f)`,
//!   `f = m − 1`, even and odd powers separately. [`cos_2pi`] takes
//!   `q = round(4u)` and `r = u − q/4` — exact, so there is no large-
//!   argument path to get wrong — evaluates fdlibm's sine and cosine
//!   kernels on `a = 2π·r ∈ [−π/4, π/4]`, and picks one and its sign from
//!   the two low bits of `q` with masks. The expressions below are the
//!   specification: reordering one changes bits.
//! * **No fused multiply-add.** `mul_add` rounds once where `a * b + c`
//!   rounds twice; it is a different function, and whether hardware has
//!   it varies. The source never spells it and Rust never contracts.
//! * **No table.** A table-driven `exp` is faster per scalar call, but a
//!   gather does not vectorise without AVX2 and the table is one more
//!   thing to pin; a polynomial is the same code in every lane.
//! * **No data-dependent branch.** Range ends (`exp` overflow and
//!   underflow, `ln` of zero, negatives, subnormals, infinities, NaN)
//!   are clamps and selects on the straight path, so a slice pass
//!   compiles to full-width vector code.
//!
//! # Accuracy
//!
//! [`exp`] and [`ln`] are within 1 ulp of the true value (fdlibm's
//! bounds), and the sine and cosine kernels are within 1 ulp on the
//! reduced argument. The unit tests hold each to the platform's
//! `f64` method at that tolerance over generated inputs and across every
//! reduction boundary — the only tolerance oracle in the workspace, so
//! it is doubled by a bit pin: `numeric/tests/math_vectors.rs` holds a
//! committed table of input bits → output bits for each function, which
//! no change to this file can move silently.
//!
//! # Slice passes
//!
//! [`exp_slice`], [`softmax_columns`] and [`box_muller`] run the same
//! scalar bodies over whole slices, compiled again with AVX and with
//! AVX-512F, the widest the CPU has running (the [`crate::isa`]
//! dispatch, shared with the GEMM kernel in [`crate::linalg`]). Lanes never interact, so every element
//! equals the scalar function bit for bit — pinned for every length and
//! alignment in every instantiation. The AVX-512F one is compiled with
//! `fma` implied; the bodies hold no `mul_add` and rustc does not
//! contract, so it computes the same two-rounding expressions
//! (`scripts/no_fma.sh` checks both).

use crate::isa::{Isa, Kernel};

/// `ln 2`, head: the high 32 significant bits, so `k · LN2_HI` is exact
/// for every `|k| < 2²¹`.
const LN2_HI: f64 = f64::from_bits(0x3fe6_2e42_fee0_0000);
/// `ln 2 − LN2_HI`.
const LN2_LO: f64 = f64::from_bits(0x3dea_39ef_3579_3c76);
/// `1 / ln 2`.
const INV_LN2: f64 = f64::from_bits(0x3ff7_1547_652b_82fe);
/// `1.5 · 2⁵²`: adding it rounds a small value to the nearest integer
/// (ties to even) and leaves that integer, in two's complement, in the
/// low mantissa bits.
const ROUND: f64 = 6_755_399_441_055_744.0;
/// [`ROUND`] plus the exponent bias: the low 11 bits of `n + ROUND_BIASED`
/// are the exponent field of `2ⁿ`.
const ROUND_BIASED: f64 = ROUND + 1023.0;

// fdlibm e_exp.c: `r·coth(r/2) ≈ 2 + P1·r² + … + P5·r¹⁰` on |r| ≤ ½ ln 2.
const P1: f64 = f64::from_bits(0x3fc5_5555_5555_553e);
const P2: f64 = f64::from_bits(0xbf66_c16c_16be_bd93);
const P3: f64 = f64::from_bits(0x3f11_566a_af25_de2c);
const P4: f64 = f64::from_bits(0xbebb_bd41_c5d2_6bf1);
const P5: f64 = f64::from_bits(0x3e66_3769_72be_a4d0);

/// Arguments above this overflow (`exp(709.79) = ∞`) and are clamped to
/// it, so `k` stays a small integer for any input.
const EXP_MAX_ARG: f64 = 710.0;
/// Arguments below this underflow to `0.0` (`exp(−745.14)` is below half
/// the smallest subnormal) and are clamped to it.
const EXP_MIN_ARG: f64 = -746.0;

/// `eˣ`.
///
/// Within 1 ulp; `exp(0) = 1` exactly; `+∞` above `709.78…`, `0` below
/// `−745.13…`, subnormal results rounded once; NaN in, NaN out.
pub fn exp(x: f64) -> f64 {
    exp_lane(x)
}

#[inline(always)]
fn exp_lane(x: f64) -> f64 {
    // Written as selects, not `min` / `max`, so that a NaN stays a NaN.
    let x = if x > EXP_MAX_ARG { EXP_MAX_ARG } else { x };
    let x = if x < EXP_MIN_ARG { EXP_MIN_ARG } else { x };
    // x = k ln 2 + r.
    let k = (x * INV_LN2 + ROUND) - ROUND;
    let hi = x - k * LN2_HI;
    let lo = k * LN2_LO;
    let r = hi - lo;
    // eʳ = 1 + r + r·c / (2 − c), c = r − r²·P(r²).
    let z = r * r;
    let c = r - z * (P1 + z * (P2 + z * (P3 + z * (P4 + z * P5))));
    let y = 1.0 - ((lo - (r * c) / (2.0 - c)) - hi);
    // 2ᵏ = 2^k₁ · 2^k₂ with k₁ = round(k / 2): both factors are normal
    // for every k in −1076 ..= 1024, y · 2^k₁ is exact, and the second
    // product rounds once — to a subnormal, to zero or to ∞ when it must.
    let t1 = k * 0.5 + ROUND_BIASED;
    let t2 = (k - (t1 - ROUND_BIASED)) + ROUND_BIASED;
    y * f64::from_bits(t1.to_bits() << 52) * f64::from_bits(t2.to_bits() << 52)
}

/// Elements per block of [`exp_slice`] (and columns per block of
/// [`softmax_columns`]): one 8-lane AVX-512F vector, two 4-lane AVX
/// ones, four 2-lane baseline ones. The pass walks whole
/// blocks and runs what is left through one more block, padded on the
/// stack, so that every element goes through the vector code — a 2 × 4
/// logits matrix is one block, not eight scalar calls. 16 read the same
/// on a 500 × 10 softmax and slower on 2 × 4 (a second, padding-only
/// vector).
const BLOCK: usize = 8;

/// `eˣ` over a slice, in place; every element equals [`exp`] bit for bit.
pub fn exp_slice(xs: &mut [f64]) {
    exp_slice_on(Isa::detect(), xs);
}

fn exp_slice_on(isa: Isa, xs: &mut [f64]) {
    struct ExpSlice<'a>(&'a mut [f64]);
    impl Kernel for ExpSlice<'_> {
        #[inline(always)]
        fn run<const LANES: usize>(self) {
            let (blocks, tail) = self.0.as_chunks_mut::<BLOCK>();
            for block in blocks {
                for x in block {
                    *x = exp_lane(*x);
                }
            }
            if !tail.is_empty() {
                let mut padded = [0.0; BLOCK];
                padded[..tail.len()].copy_from_slice(tail);
                for x in &mut padded {
                    *x = exp_lane(*x);
                }
                tail.copy_from_slice(&padded[..tail.len()]);
            }
        }
    }
    isa.run(ExpSlice(xs));
}

/// Bits of `1.0`.
const ONE_BITS: u64 = 0x3ff0_0000_0000_0000;
/// Bits of the mantissa cut: the high word of `√½`, low word zero. A
/// mantissa at or above it reads as `m ∈ [√½, 1)` with the exponent one
/// up, below it as `m ∈ [1, √2)`.
const SQRT_HALF_BITS: u64 = 0x3fe6_a09e_0000_0000;
const MANTISSA_MASK: u64 = 0x000f_ffff_ffff_ffff;
/// `2⁵²`: or-ing a small non-negative integer into its mantissa gives
/// `2⁵² + n` exactly, an integer-to-double conversion in one bit
/// operation.
const TWO_52: f64 = 4_503_599_627_370_496.0;
/// `2⁵⁴`, the subnormal scale-up.
const TWO_54: f64 = 18_014_398_509_481_984.0;

// fdlibm e_log.c: `ln(1 + f) = 2s + s·R(s²)`, `s = f / (2 + f)`,
// `R(z) ≈ LG1·z + LG2·z² + … + LG7·z⁷`.
const LG1: f64 = f64::from_bits(0x3fe5_5555_5555_5593);
const LG2: f64 = f64::from_bits(0x3fd9_9999_9997_fa04);
const LG3: f64 = f64::from_bits(0x3fd2_4924_9422_9359);
const LG4: f64 = f64::from_bits(0x3fcc_71c5_1d8e_78af);
const LG5: f64 = f64::from_bits(0x3fc7_4664_96cb_03de);
const LG6: f64 = f64::from_bits(0x3fc3_9a09_d078_c69f);
const LG7: f64 = f64::from_bits(0x3fc2_f112_df3e_5244);

/// Natural logarithm.
///
/// Within 1 ulp; `ln(1) = 0` exactly; `ln(±0) = −∞`, `ln(x < 0)` is NaN,
/// `ln(+∞) = +∞`, subnormal arguments are held to the same bound; NaN
/// in, NaN out.
pub fn ln(x: f64) -> f64 {
    ln_lane(x)
}

#[inline(always)]
fn ln_lane(x: f64) -> f64 {
    // x = 2ᵏ · m with m ∈ [√½, √2): add the distance from the cut to 1.0
    // to the bits, so the exponent field steps exactly at the cut.
    let tiny = x < f64::MIN_POSITIVE;
    let scaled = if tiny { x * TWO_54 } else { x };
    let bias = if tiny { 1023.0 + 54.0 } else { 1023.0 };
    let ix = scaled.to_bits().wrapping_add(ONE_BITS - SQRT_HALF_BITS);
    let k = (f64::from_bits((ix >> 52) | TWO_52.to_bits()) - TWO_52) - bias;
    let m = f64::from_bits((ix & MANTISSA_MASK) + SQRT_HALF_BITS);
    let f = m - 1.0;
    let hfsq = 0.5 * f * f;
    let s = f / (2.0 + f);
    let z = s * s;
    let w = z * z;
    let even = w * (LG2 + w * (LG4 + w * LG6));
    let odd = z * (LG1 + w * (LG3 + w * (LG5 + w * LG7)));
    let r = odd + even;
    let y = s * (hfsq + r) + k * LN2_LO - hfsq + f + k * LN2_HI;
    // The ends, as selects: +∞ and NaN pass through, negatives have no
    // logarithm, zero of either sign is the pole.
    let y = if x < f64::INFINITY { y } else { x };
    let y = if x < 0.0 { f64::NAN } else { y };
    if x == 0.0 {
        f64::NEG_INFINITY
    } else {
        y
    }
}

// fdlibm k_sin.c: `sin a ≈ a + S1·a³ + … + S6·a¹³` on |a| ≤ π/4.
const S1: f64 = f64::from_bits(0xbfc5_5555_5555_5549);
const S2: f64 = f64::from_bits(0x3f81_1111_1110_f8a6);
const S3: f64 = f64::from_bits(0xbf2a_01a0_19c1_61d5);
const S4: f64 = f64::from_bits(0x3ec7_1de3_57b1_fe7d);
const S5: f64 = f64::from_bits(0xbe5a_e5e6_8a2b_9ceb);
const S6: f64 = f64::from_bits(0x3de5_d93a_5acf_d57c);

// fdlibm k_cos.c: `cos a ≈ 1 − a²/2 + C1·a⁴ + … + C6·a¹⁴` on |a| ≤ π/4.
const C1: f64 = f64::from_bits(0x3fa5_5555_5555_554c);
const C2: f64 = f64::from_bits(0xbf56_c16c_16c1_5177);
const C3: f64 = f64::from_bits(0x3efa_01a0_19cb_1590);
const C4: f64 = f64::from_bits(0xbe92_7e4f_809c_52ad);
const C5: f64 = f64::from_bits(0x3e21_ee9e_bdb4_b1c4);
const C6: f64 = f64::from_bits(0xbda8_fae9_be88_38d4);

/// The sine kernel: `sin a` for `|a| ≤ π/4`, within 1 ulp.
#[inline(always)]
fn sin_kernel(a: f64) -> f64 {
    let z = a * a;
    let w = z * z;
    let r = S2 + z * (S3 + z * S4) + z * w * (S5 + z * S6);
    let v = z * a;
    a + v * (S1 + z * r)
}

/// The cosine kernel: `cos a` for `|a| ≤ π/4`, within 1 ulp. `1 − a²/2`
/// is taken with its rounding error carried (`(1 − w) − hz` is exact).
#[inline(always)]
fn cos_kernel(a: f64) -> f64 {
    let z = a * a;
    let w = z * z;
    let r = z * (C1 + z * (C2 + z * C3)) + (w * w) * (C4 + z * (C5 + z * C6));
    let hz = 0.5 * z;
    let w = 1.0 - hz;
    w + (((1.0 - w) - hz) + z * r)
}

/// `cos(2πu)` for `u ∈ [0, 1)` — the angle Box–Muller asks for, taken in
/// turns so that its reduction is exact.
///
/// `q = round(4u)` and `r = u − q/4` (exact, `|r| ≤ ⅛`) place the angle
/// in a quadrant; the kernels run on `a = 2π·r`, the one rounded step of
/// the reduction, and `cos(a + q·π/2)` is `cos a`, `−sin a`, `−cos a` or
/// `sin a` by `q mod 4`. Consequently `cos_2pi(0) = 1`,
/// `cos_2pi(u + ½) = −cos_2pi(u)` and `cos_2pi(1 − u) = cos_2pi(u)` hold
/// bit for bit wherever `u + ½` and `1 − u` are exact (the zeros at the
/// quarter turns may differ in sign). The function is periodic as
/// written for any `|u| < 2⁴⁹`; NaN and ±∞ give NaN.
pub fn cos_2pi(u: f64) -> f64 {
    cos_2pi_lane(u)
}

#[inline(always)]
fn cos_2pi_lane(u: f64) -> f64 {
    let t = 4.0 * u + ROUND;
    let r = u - 0.25 * (t - ROUND);
    let a = std::f64::consts::TAU * r;
    let sin = sin_kernel(a).to_bits();
    let cos = cos_kernel(a).to_bits();
    // q sits in the low bits of t: odd q takes the sine, q ≡ 1, 2 (mod 4)
    // the negative sign.
    let q = t.to_bits();
    let odd = 0u64.wrapping_sub(q & 1);
    let sign = (q.wrapping_add(1) & 2) << 62;
    f64::from_bits(((sin & odd) | (cos & !odd)) ^ sign)
}

/// One Box–Muller pass: `out[i] = sqrt(−2·ln u1[i]) · cos_2pi(u2[i])`, a
/// standard normal sample for uniform `u1[i] ∈ (0, 1)`, `u2[i] ∈ [0, 1)`;
/// every element equals that expression over [`ln`] and [`cos_2pi`] bit
/// for bit.
///
/// # Panics
///
/// Panics unless the three slices have one length.
pub fn box_muller(u1: &[f64], u2: &[f64], out: &mut [f64]) {
    box_muller_on(Isa::detect(), u1, u2, out);
}

fn box_muller_on(isa: Isa, u1: &[f64], u2: &[f64], out: &mut [f64]) {
    struct BoxMuller<'a>(&'a [f64], &'a [f64], &'a mut [f64]);
    impl Kernel for BoxMuller<'_> {
        #[inline(always)]
        fn run<const LANES: usize>(self) {
            for ((o, &u1), &u2) in self.2.iter_mut().zip(self.0).zip(self.1) {
                *o = (-2.0 * ln_lane(u1)).sqrt() * cos_2pi_lane(u2);
            }
        }
    }
    assert!(
        u1.len() == out.len() && u2.len() == out.len(),
        "box_muller length mismatch: u1 {}, u2 {}, out {}",
        u1.len(),
        u2.len(),
        out.len()
    );
    isa.run(BoxMuller(u1, u2, out));
}

/// Softmax down the columns of a row-major `rows × cols` block, in
/// place: column `j` becomes `exp(v − max) / sum`, its maximum folded
/// from `−∞` and its sum of exponentials from `0.0`, both in row order
/// — every element equals that expression over [`exp`], spelled out one
/// column at a time, bit for bit. The class-major trainer's softmax:
/// one row per class, one column per example.
///
/// The columns go eight at a time — the last block padded on the
/// stack, as in [`exp_slice`] — through three passes over the block's
/// rows (maximum; exponential and sum; division), so each column's fold
/// is one lane of vector code and a block's rows stay in L1.
///
/// # Panics
///
/// Panics unless the block is `rows × cols` for some `rows` (an empty
/// block is any width).
pub fn softmax_columns(block: &mut [f64], cols: usize) {
    softmax_columns_on(Isa::detect(), block, cols);
}

fn softmax_columns_on(isa: Isa, block: &mut [f64], cols: usize) {
    struct SoftmaxColumns<'a> {
        block: &'a mut [f64],
        cols: usize,
    }
    impl Kernel for SoftmaxColumns<'_> {
        #[inline(always)]
        fn run<const LANES: usize>(self) {
            let SoftmaxColumns { block, cols } = self;
            let full = cols / BLOCK * BLOCK;
            for j in (0..full).step_by(BLOCK) {
                softmax_column_block(block, cols, j, BLOCK);
            }
            if full < cols {
                softmax_column_block(block, cols, full, cols - full);
            }
        }
    }
    if block.is_empty() {
        return;
    }
    assert!(
        block.len().is_multiple_of(cols),
        "softmax_columns: {} elements are no whole rows of {cols}",
        block.len()
    );
    isa.run(SoftmaxColumns { block, cols });
}

/// Columns `j..j + w` (`w ≤ BLOCK`) of [`softmax_columns`]: each row's
/// segment is staged through a `BLOCK`-wide array, padded with `0.0`
/// past `w`, whose lanes never reach the block.
#[inline(always)]
fn softmax_column_block(block: &mut [f64], cols: usize, j: usize, w: usize) {
    let rows = block.len() / cols;
    let segment = |r: usize| r * cols + j..r * cols + j + w;
    let load = |block: &[f64], r: usize| {
        let segment = &block[segment(r)];
        let lanes: [f64; BLOCK] = std::array::from_fn(|t| segment.get(t).copied().unwrap_or(0.0));
        lanes
    };
    // Lane by lane: a `copy_from_slice` of `w` elements compiles to a
    // `memcpy` call, which made a 2 × 4 block three times slower.
    let store = |block: &mut [f64], r: usize, lanes: [f64; BLOCK]| {
        for (v, lane) in block[segment(r)].iter_mut().zip(lanes) {
            *v = lane;
        }
    };
    let mut max = [f64::NEG_INFINITY; BLOCK];
    for r in 0..rows {
        let lanes = load(block, r);
        for t in 0..BLOCK {
            max[t] = max[t].max(lanes[t]);
        }
    }
    let mut sum = [0.0; BLOCK];
    for r in 0..rows {
        let mut lanes = load(block, r);
        for t in 0..BLOCK {
            lanes[t] = exp_lane(lanes[t] - max[t]);
            sum[t] += lanes[t];
        }
        store(block, r, lanes);
    }
    for r in 0..rows {
        let mut lanes = load(block, r);
        for t in 0..BLOCK {
            lanes[t] /= sum[t];
        }
        store(block, r, lanes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Distance in representable doubles (0 for equal values, either
    /// zero included); `u64::MAX` if exactly one side is NaN.
    fn ulps_apart(a: f64, b: f64) -> u64 {
        if a.is_nan() || b.is_nan() {
            return if a.is_nan() && b.is_nan() {
                0
            } else {
                u64::MAX
            };
        }
        // Map the sign-magnitude bits onto a line.
        let key = |v: f64| {
            let bits = v.to_bits() as i64;
            if bits < 0 {
                i64::MIN - bits
            } else {
                bits
            }
        };
        key(a).abs_diff(key(b))
    }

    /// Same bits, or both NaN (IEEE 754 leaves a NaN's sign and payload
    /// to the implementation; no caller reads them).
    fn same(a: f64, b: f64) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    /// splitmix64: the tests' own input stream.
    struct Stream(u64);

    impl Stream {
        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform in `[0, 1)`.
        fn unit(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }

        fn between(&mut self, lo: f64, hi: f64) -> f64 {
            lo + (hi - lo) * self.unit()
        }
    }

    /// `x` and its `reach` neighbours on either side.
    fn neighbourhood(x: f64, reach: i64) -> impl Iterator<Item = f64> {
        (-reach..=reach).map(move |d| f64::from_bits((x.to_bits() as i64 + d) as u64))
    }

    fn assert_exp_close(x: f64) {
        let d = ulps_apart(exp(x), x.exp());
        assert!(
            d <= 1,
            "exp({x:e}) = {:e}, std {:e}: {d} ulp",
            exp(x),
            x.exp()
        );
    }

    fn assert_ln_close(x: f64) {
        let d = ulps_apart(ln(x), x.ln());
        assert!(d <= 1, "ln({x:e}) = {:e}, std {:e}: {d} ulp", ln(x), x.ln());
    }

    #[test]
    fn exp_within_one_ulp_of_std_over_generated_inputs() {
        let mut s = Stream(1);
        for _ in 0..200_000 {
            // The softmax range, the whole finite range, and near zero.
            assert_exp_close(s.between(-40.0, 0.0));
            assert_exp_close(s.between(-750.0, 712.0));
            assert_exp_close(s.between(-1.0, 1.0) * 2f64.powi(-((s.next_u64() % 60) as i32)));
        }
    }

    #[test]
    fn exp_within_one_ulp_of_std_across_every_reduction_boundary() {
        // k steps where x / ln 2 crosses a half-integer: odd multiples of
        // ln 2 / 2, for every k a finite or subnormal result can have.
        for odd in (-2153i32..=2049).step_by(2) {
            let boundary = f64::from(odd) * (std::f64::consts::LN_2 / 2.0);
            for x in neighbourhood(boundary, 24) {
                assert_exp_close(x);
            }
        }
    }

    #[test]
    fn exp_ends() {
        assert_eq!(exp(0.0).to_bits(), 1.0f64.to_bits());
        assert_eq!(exp(-0.0).to_bits(), 1.0f64.to_bits());
        assert!(exp(f64::NAN).is_nan());
        // Overflow: the last finite result, then +∞ all the way up.
        assert!(exp(709.78).is_finite());
        for x in [709.79, 710.0, 711.0, 1e3, 1e300, f64::MAX, f64::INFINITY] {
            assert_eq!(exp(x), f64::INFINITY, "exp({x:e})");
        }
        // Underflow: subnormal results down to the smallest one, then +0.
        assert_eq!(exp(-745.0).to_bits(), 1, "the smallest subnormal");
        assert!(exp(-708.5) < f64::MIN_POSITIVE && exp(-708.5) > 0.0);
        for x in [-745.2, -746.0, -747.0, -1e3, -1e300, f64::MIN] {
            assert_eq!(exp(x).to_bits(), 0, "exp({x:e})");
        }
        assert_eq!(exp(f64::NEG_INFINITY).to_bits(), 0);
    }

    #[test]
    fn exp_monotone_on_the_softmax_range() {
        // Non-decreasing over a 1/64 grid of [−745, 0] and over the
        // adjacent doubles around every reduction boundary in it.
        let mut prev = 0.0;
        for i in (0..=745 * 64).rev() {
            let y = exp(-f64::from(i) / 64.0);
            assert!(y >= prev, "exp decreased at {}", -f64::from(i) / 64.0);
            prev = y;
        }
        assert_eq!(prev, 1.0);
        for odd in (-2149i32..0).step_by(2) {
            let boundary = f64::from(odd) * (std::f64::consts::LN_2 / 2.0);
            // Negative arguments: a larger bit pattern is a smaller value.
            let ys: Vec<f64> = neighbourhood(boundary, 24).map(exp).collect();
            assert!(
                ys.windows(2).all(|w| w[0] >= w[1]),
                "exp not monotone around {boundary}"
            );
        }
    }

    #[test]
    fn ln_within_one_ulp_of_std_over_generated_inputs() {
        let mut s = Stream(2);
        for _ in 0..200_000 {
            // Box–Muller's (0, 1), around 1 where the series cancels,
            // and every exponent (subnormal patterns included).
            assert_ln_close(s.unit().max(f64::MIN_POSITIVE));
            assert_ln_close(s.between(0.5, 2.0));
            assert_ln_close(f64::from_bits(
                (s.next_u64() >> 1).clamp(1, f64::MAX.to_bits()),
            ));
        }
    }

    #[test]
    fn ln_within_one_ulp_of_std_across_every_reduction_boundary() {
        // The mantissa cut at √½ / √2 in every binade, the binade edges
        // themselves, and the subnormal scale-up.
        let cut = f64::from_bits(SQRT_HALF_BITS);
        for e in -1074i32..=1023 {
            let scale = |m: f64| {
                // m · 2ᵉ in two exact steps (2ᵉ alone may be subnormal).
                m * 2f64.powi(e / 2) * 2f64.powi(e - e / 2)
            };
            for x in neighbourhood(scale(cut), 24).chain(neighbourhood(scale(1.0), 24)) {
                if x > 0.0 && x.is_finite() {
                    assert_ln_close(x);
                }
            }
        }
        for x in neighbourhood(f64::MIN_POSITIVE, 64) {
            assert_ln_close(x);
        }
    }

    #[test]
    fn ln_ends() {
        assert_eq!(ln(1.0).to_bits(), 0.0f64.to_bits());
        assert_eq!(ln(0.0), f64::NEG_INFINITY);
        assert_eq!(ln(-0.0), f64::NEG_INFINITY);
        for x in [-5e-324, -1.0, -f64::MAX, f64::NEG_INFINITY] {
            assert!(ln(x).is_nan(), "ln({x:e})");
        }
        assert!(ln(f64::NAN).is_nan());
        assert_eq!(ln(f64::INFINITY), f64::INFINITY);
        // Box–Muller's nudge, and below it.
        assert_ln_close(f64::MIN_POSITIVE);
        assert!((ln(f64::MIN_POSITIVE) + 708.396_418_532_264_1).abs() < 1e-12);
        assert_ln_close(5e-324);
        assert!((ln(5e-324) + 744.440_071_921_381_2).abs() < 1e-12);
        assert_ln_close(f64::MAX);
    }

    #[test]
    fn sin_and_cos_kernels_within_one_ulp_of_std_on_the_reduced_argument() {
        let mut s = Stream(3);
        let check = |a: f64| {
            let (ds, dc) = (
                ulps_apart(sin_kernel(a), a.sin()),
                ulps_apart(cos_kernel(a), a.cos()),
            );
            assert!(ds <= 1, "sin kernel at {a:e}: {ds} ulp");
            assert!(dc <= 1, "cos kernel at {a:e}: {dc} ulp");
        };
        for _ in 0..200_000 {
            // The argument cos_2pi hands the kernels: 2π · r, |r| ≤ ⅛.
            check(std::f64::consts::TAU * s.between(-0.125, 0.125));
            check(s.between(-0.78, 0.78) * 2f64.powi(-((s.next_u64() % 60) as i32)));
        }
        for a in neighbourhood(std::f64::consts::FRAC_PI_4, 64) {
            check(a.min(std::f64::consts::TAU * 0.125));
            check(-a.min(std::f64::consts::TAU * 0.125));
        }
        check(0.0);
    }

    #[test]
    fn cos_2pi_quadrants_are_exact() {
        assert_eq!(cos_2pi(0.0).to_bits(), 1.0f64.to_bits());
        assert_eq!(cos_2pi(0.5).to_bits(), (-1.0f64).to_bits());
        assert_eq!(cos_2pi(0.25), 0.0);
        assert_eq!(cos_2pi(0.75), 0.0);
        assert!(cos_2pi(f64::NAN).is_nan());
        assert!(cos_2pi(f64::INFINITY).is_nan());
        // Each quadrant is the right kernel with the right sign on the
        // exactly reduced argument.
        let mut s = Stream(4);
        for _ in 0..100_000 {
            let u = s.unit();
            let q = (4.0 * u).round_ties_even();
            let a = std::f64::consts::TAU * (u - q / 4.0);
            let expected = match q as u8 {
                0 | 4 => cos_kernel(a),
                1 => -sin_kernel(a),
                2 => -cos_kernel(a),
                _ => sin_kernel(a),
            };
            assert_eq!(cos_2pi(u).to_bits(), expected.to_bits(), "u = {u:e}");
            assert!((cos_2pi(u) - (std::f64::consts::TAU * u).cos()).abs() < 1e-15);
        }
    }

    #[test]
    fn cos_2pi_symmetries_hold_bitwise_where_the_argument_arithmetic_is_exact() {
        let mut s = Stream(5);
        let mut inputs: Vec<f64> = vec![0.0, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875];
        // Multiples of 2⁻⁵³ — what `next_f64` draws — so u + ½ and 1 − u
        // are exact.
        inputs.extend((0..100_000).map(|_| s.unit()));
        // `==` on values: equal doubles are equal bits, except that the
        // two zeros at the quarter turns may differ in sign.
        for u in inputs {
            if u < 0.5 {
                assert_eq!(cos_2pi(u + 0.5), -cos_2pi(u), "half turn at {u:e}");
            }
            if u > 0.0 {
                assert_eq!(cos_2pi(1.0 - u), cos_2pi(u), "reflection at {u:e}");
            }
        }
        // Periodic as written, where u + n is exact.
        for eighth in 0..8 {
            let u = f64::from(eighth) / 8.0 + 2f64.powi(-40);
            assert_eq!(cos_2pi(u + 1.0), cos_2pi(u));
            assert_eq!(cos_2pi(u - 3.0), cos_2pi(u));
        }
    }

    /// Inputs that reach every select of the three bodies.
    fn mixed_inputs(len: usize, salt: u64) -> Vec<f64> {
        let mut s = Stream(salt);
        let ends = [
            0.0,
            -0.0,
            1.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            5e-324,
            -745.0,
            709.9,
            0.25,
        ];
        (0..len)
            .map(|i| match s.next_u64() % 4 {
                0 => ends[i % ends.len()],
                1 => s.unit(),
                2 => s.between(-750.0, 720.0),
                _ => f64::from_bits(s.next_u64()),
            })
            .collect()
    }

    #[test]
    fn exp_slice_equals_exp_elementwise_at_every_length_and_alignment() {
        for isa in Isa::each() {
            for len in 0..=40 {
                for offset in [0, 1] {
                    let xs = mixed_inputs(offset + len, 7 + len as u64);
                    let mut got = xs.clone();
                    exp_slice_on(isa, &mut got[offset..]);
                    for (i, (&g, &x)) in got.iter().zip(&xs).enumerate() {
                        let want = if i < offset { x } else { exp(x) };
                        assert!(same(g, want), "{isa:?} len {len} [{i}]: {g:e} vs {want:e}");
                    }
                }
            }
        }
    }

    #[test]
    fn box_muller_equals_the_scalar_expression_at_every_length_and_alignment() {
        for isa in Isa::each() {
            for len in 0..=40 {
                for offset in [0, 1] {
                    let u1 = mixed_inputs(offset + len, 11 + len as u64);
                    let u2 = mixed_inputs(offset + len, 13 + len as u64);
                    let mut got = vec![-7.0; offset + len];
                    box_muller_on(isa, &u1[offset..], &u2[offset..], &mut got[offset..]);
                    for i in 0..offset + len {
                        let want = if i < offset {
                            -7.0
                        } else {
                            (-2.0 * ln(u1[i])).sqrt() * cos_2pi(u2[i])
                        };
                        let g = got[i];
                        assert!(same(g, want), "{isa:?} len {len} [{i}]: {g:e} vs {want:e}");
                    }
                }
            }
        }
    }

    #[test]
    fn softmax_columns_equals_the_per_column_expression_in_every_instantiation() {
        // Every tail width (cols 0..=40 crosses five blocks) at one row
        // (a lone maximum: every element `exp(0) / 1`) up to eleven.
        for isa in Isa::each() {
            for rows in [1, 2, 4, 10, 11] {
                for cols in 0..=40 {
                    let mut s = Stream(rows as u64 * 64 + cols as u64);
                    let block: Vec<f64> = (0..rows * cols)
                        .map(|i| match i % 7 {
                            0 => -0.0,
                            1 => 0.0,
                            2 => s.between(-700.0, 700.0),
                            _ => s.between(-20.0, 20.0),
                        })
                        .collect();
                    let mut got = block.clone();
                    softmax_columns_on(isa, &mut got, cols);
                    for j in 0..cols {
                        let column: Vec<f64> = (0..rows).map(|r| block[r * cols + j]).collect();
                        let max = column.iter().fold(f64::NEG_INFINITY, |m, &v| m.max(v));
                        let exps: Vec<f64> = column.iter().map(|&v| exp(v - max)).collect();
                        let sum = exps.iter().fold(0.0, |acc, e| acc + e);
                        for (r, e) in exps.iter().enumerate() {
                            let (g, want) = (got[r * cols + j], e / sum);
                            assert!(
                                same(g, want),
                                "{isa:?} {rows}x{cols} [{r}][{j}]: {g:e} vs {want:e}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "no whole rows")]
    fn softmax_columns_ragged_block_panics() {
        softmax_columns(&mut [0.0; 5], 2);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn box_muller_length_mismatch_panics() {
        box_muller(&[0.5, 0.5], &[0.5], &mut [0.0, 0.0]);
    }
}
