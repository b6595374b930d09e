//! Fixed-width unsigned big integers.
//!
//! The Diffie–Hellman key agreement in `fl-crypto` needs modular
//! exponentiation over primes larger than 128 bits. The offline dependency
//! set carries no bigint crate, so this module implements a small,
//! well-tested fixed-width integer: [`Uint<LIMBS>`] with 64-bit limbs in
//! little-endian order, plus the modular kernels ([`Uint::mod_mul`],
//! [`Uint::mod_pow`]) that DH requires.
//!
//! Design notes:
//!
//! * Widths are const-generic; [`U256`] (the simulation-grade DH group) and
//!   [`U2048`] (RFC 3526 MODP-2048 for a faithful slow path) are the two
//!   instantiations the workspace uses.
//! * Multiplication is schoolbook into a double-width accumulator;
//!   reduction is binary shift-subtract long division. Both are O(w²) in
//!   the word count — entirely adequate for a 256-bit group and usable for
//!   occasional 2048-bit operations.
//! * Hot modular exponentiation goes through the resident
//!   [`MontgomeryCtx`] engine: allocation-free CIOS multiplication over
//!   stack arrays plus fixed-window (w = 4) exponentiation, bit-identical
//!   to the retained [`Uint::mod_pow_naive`] oracle. Build the context
//!   once per modulus; `Uint::mod_pow` remains as the one-shot
//!   convenience that pays setup per call. The same engine carries the
//!   field operations Shamir key escrow runs on (difference, plain ×
//!   resident product, batch inversion); [`Uint::mod_mul`] is left as
//!   what the oracles stand on. A base raised to many exponents (a DH
//!   generator) goes through a [`FixedBaseTable`] of its powers built
//!   on that engine: products only, no squarings.
//! * Arithmetic is *not* constant time. This is a research simulation of
//!   the paper's protocol, not a hardened TLS stack; the crate-level docs
//!   of `fl-crypto` repeat this warning.
//!
//! # Lane exponentiation
//!
//! [`MontgomeryCtx::mod_pow_batch`] raises many bases to one exponent —
//! one owner's private key against its group peers' public keys. For a
//! 4-limb modulus on a CPU that reports AVX-512F and AVX-512 IFMA
//! (`vpmadd52luq` / `vpmadd52huq`: the low and high 52 bits of a 52 × 52
//! bit product added into a 64-bit lane), it runs eight bases abreast,
//! one per 64-bit lane of a `zmm` register:
//!
//! * *Radix.* A residue is five 52-bit limbs (260 bits), so `R = 2²⁶⁰`.
//!   The context holds the modulus in that radix, `−p⁻¹ mod 2⁵²` and
//!   `2⁵²⁰ mod p` (R², the way in), built once in [`MontgomeryCtx::new`].
//! * *Reduction.* Almost-Montgomery multiplication: the full 10-limb
//!   product, then five reduction steps, then one carry pass that
//!   leaves every limb below 2⁵² again (the multiplier reads only those
//!   bits). No conditional subtraction is made inside the ladder: for
//!   operands below `2p` the result `(a·b + q·p) / R` is below
//!   `4p²/R + p`, which is below `2p` because `4p < R` — true for every
//!   modulus below 2²⁵⁶. Converting out (a product with 1) lands in
//!   `[0, p]`, and one subtraction of `p` makes it canonical.
//! * *Ladder.* The same fixed 4-bit window as [`MontgomeryCtx::pow`],
//!   over a 16-entry table whose entries interleave the eight lanes. The
//!   exponent is shared, so every lane reads the same table index: no
//!   gather, no lane-dependent branch.
//!
//! The lanes cannot move a bit. The arithmetic is exact integer
//! arithmetic, lanes never exchange a value, and the output is the
//! canonical residue `base^exp mod p` — the one value the scalar ladder
//! and [`Uint::mod_pow_naive`] return too, whatever the representation
//! on the way. A one-base batch, a zero exponent, another width or a
//! CPU without IFMA take the scalar [`MontgomeryCtx::pow`] per base;
//! which path runs is the platform's, not an option.

// Limb-level arithmetic is written with explicit indices throughout: the
// canonical big-integer algorithms (CIOS, shift-subtract division) are
// specified over index windows, and iterator adaptors obscure the carry
// chains that reviews need to check.
#![allow(clippy::needless_range_loop)]

use std::cmp::Ordering;
use std::fmt;

/// A fixed-width unsigned integer with `LIMBS` 64-bit little-endian limbs.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Uint<const LIMBS: usize> {
    limbs: [u64; LIMBS],
}

/// 256-bit unsigned integer (4 limbs).
pub type U256 = Uint<4>;
/// 2048-bit unsigned integer (32 limbs).
pub type U2048 = Uint<32>;

impl<const LIMBS: usize> Default for Uint<LIMBS> {
    fn default() -> Self {
        Self::ZERO
    }
}

impl<const LIMBS: usize> Uint<LIMBS> {
    /// The additive identity.
    pub const ZERO: Self = Self { limbs: [0; LIMBS] };

    /// The multiplicative identity.
    pub const ONE: Self = {
        let mut limbs = [0u64; LIMBS];
        limbs[0] = 1;
        Self { limbs }
    };

    /// The largest representable value (all bits set).
    pub const MAX: Self = Self {
        limbs: [u64::MAX; LIMBS],
    };

    /// Total width in bits.
    pub const BITS: u32 = 64 * LIMBS as u32;

    /// Builds a value from little-endian limbs.
    pub const fn from_limbs(limbs: [u64; LIMBS]) -> Self {
        Self { limbs }
    }

    /// Returns the little-endian limbs.
    pub const fn limbs(&self) -> &[u64; LIMBS] {
        &self.limbs
    }

    /// Builds a value from a `u64`.
    pub const fn from_u64(v: u64) -> Self {
        let mut limbs = [0u64; LIMBS];
        limbs[0] = v;
        Self { limbs }
    }

    /// Builds a value from a `u128`.
    pub fn from_u128(v: u128) -> Self {
        assert!(LIMBS >= 2, "u128 needs at least two limbs");
        let mut limbs = [0u64; LIMBS];
        limbs[0] = v as u64;
        limbs[1] = (v >> 64) as u64;
        Self { limbs }
    }

    /// Interprets `bytes` as a big-endian integer.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is longer than the width of the integer.
    pub fn from_be_bytes(bytes: &[u8]) -> Self {
        assert!(
            bytes.len() <= LIMBS * 8,
            "{} bytes do not fit in {} limbs",
            bytes.len(),
            LIMBS
        );
        let mut limbs = [0u64; LIMBS];
        for (i, &b) in bytes.iter().rev().enumerate() {
            limbs[i / 8] |= (b as u64) << (8 * (i % 8));
        }
        Self { limbs }
    }

    /// Serializes to big-endian bytes (full width).
    pub fn to_be_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(LIMBS * 8);
        for limb in self.limbs.iter().rev() {
            out.extend_from_slice(&limb.to_be_bytes());
        }
        out
    }

    /// Parses a hexadecimal string (no `0x` prefix required, case
    /// insensitive, whitespace ignored).
    pub fn from_hex(s: &str) -> Result<Self, UintError> {
        let cleaned: String = s
            .trim()
            .trim_start_matches("0x")
            .chars()
            .filter(|c| !c.is_whitespace())
            .collect();
        if cleaned.is_empty() {
            return Err(UintError::Empty);
        }
        if cleaned.len() > LIMBS * 16 {
            return Err(UintError::Overflow);
        }
        let mut out = Self::ZERO;
        for c in cleaned.chars() {
            let d = c.to_digit(16).ok_or(UintError::InvalidDigit(c))? as u64;
            let (shifted, ov) = out.overflowing_shl(4);
            if ov {
                return Err(UintError::Overflow);
            }
            out = shifted;
            out.limbs[0] |= d;
        }
        Ok(out)
    }

    /// Lowercase hexadecimal rendering without leading zeros.
    pub fn to_hex(&self) -> String {
        if self.is_zero() {
            return "0".to_owned();
        }
        let mut s = String::new();
        let mut seen = false;
        for limb in self.limbs.iter().rev() {
            if seen {
                s.push_str(&format!("{limb:016x}"));
            } else if *limb != 0 {
                s.push_str(&format!("{limb:x}"));
                seen = true;
            }
        }
        s
    }

    /// True if the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.iter().all(|&l| l == 0)
    }

    /// True if the lowest bit is zero.
    pub fn is_even(&self) -> bool {
        self.limbs[0] & 1 == 0
    }

    /// Index of the highest set bit, or `None` for zero.
    pub fn highest_bit(&self) -> Option<u32> {
        for (i, &limb) in self.limbs.iter().enumerate().rev() {
            if limb != 0 {
                return Some(i as u32 * 64 + 63 - limb.leading_zeros());
            }
        }
        None
    }

    /// Value of bit `i` (little-endian bit order).
    pub fn bit(&self, i: u32) -> bool {
        if i >= Self::BITS {
            return false;
        }
        (self.limbs[(i / 64) as usize] >> (i % 64)) & 1 == 1
    }

    /// Wrapping addition with carry-out flag.
    pub fn overflowing_add(&self, rhs: &Self) -> (Self, bool) {
        let mut out = [0u64; LIMBS];
        let mut carry = false;
        for i in 0..LIMBS {
            let (s1, c1) = self.limbs[i].overflowing_add(rhs.limbs[i]);
            let (s2, c2) = s1.overflowing_add(carry as u64);
            out[i] = s2;
            carry = c1 | c2;
        }
        (Self { limbs: out }, carry)
    }

    /// Wrapping subtraction with borrow-out flag.
    pub fn overflowing_sub(&self, rhs: &Self) -> (Self, bool) {
        let mut out = [0u64; LIMBS];
        let mut borrow = false;
        for i in 0..LIMBS {
            let (d1, b1) = self.limbs[i].overflowing_sub(rhs.limbs[i]);
            let (d2, b2) = d1.overflowing_sub(borrow as u64);
            out[i] = d2;
            borrow = b1 | b2;
        }
        (Self { limbs: out }, borrow)
    }

    /// Checked addition.
    pub fn checked_add(&self, rhs: &Self) -> Option<Self> {
        let (v, ov) = self.overflowing_add(rhs);
        (!ov).then_some(v)
    }

    /// Checked subtraction.
    pub fn checked_sub(&self, rhs: &Self) -> Option<Self> {
        let (v, ov) = self.overflowing_sub(rhs);
        (!ov).then_some(v)
    }

    /// Wrapping addition.
    pub fn wrapping_add(&self, rhs: &Self) -> Self {
        self.overflowing_add(rhs).0
    }

    /// Wrapping subtraction.
    pub fn wrapping_sub(&self, rhs: &Self) -> Self {
        self.overflowing_sub(rhs).0
    }

    /// Left shift with overflow flag (true if any set bit fell off).
    pub fn overflowing_shl(&self, n: u32) -> (Self, bool) {
        if n == 0 {
            return (*self, false);
        }
        if n >= Self::BITS {
            return (Self::ZERO, !self.is_zero());
        }
        let limb_shift = (n / 64) as usize;
        let bit_shift = n % 64;
        let mut out = [0u64; LIMBS];
        let mut overflow = false;
        for i in (0..LIMBS).rev() {
            let src = i as isize - limb_shift as isize;
            let mut v = 0u64;
            if src >= 0 {
                v = self.limbs[src as usize] << bit_shift;
                if bit_shift > 0 && src >= 1 {
                    v |= self.limbs[src as usize - 1] >> (64 - bit_shift);
                }
            }
            out[i] = v;
        }
        // Detect lost high bits.
        for i in (LIMBS - limb_shift.min(LIMBS))..LIMBS {
            if self.limbs[i] != 0 && (i + limb_shift >= LIMBS) {
                overflow = true;
            }
        }
        if bit_shift > 0 && limb_shift < LIMBS {
            let top = self.limbs[LIMBS - 1 - limb_shift];
            if top >> (64 - bit_shift) != 0 {
                overflow = true;
            }
        }
        (Self { limbs: out }, overflow)
    }

    /// Logical right shift.
    pub fn shr(&self, n: u32) -> Self {
        if n == 0 {
            return *self;
        }
        if n >= Self::BITS {
            return Self::ZERO;
        }
        let limb_shift = (n / 64) as usize;
        let bit_shift = n % 64;
        let mut out = [0u64; LIMBS];
        for i in 0..LIMBS {
            let src = i + limb_shift;
            if src < LIMBS {
                out[i] = self.limbs[src] >> bit_shift;
                if bit_shift > 0 && src + 1 < LIMBS {
                    out[i] |= self.limbs[src + 1] << (64 - bit_shift);
                }
            }
        }
        Self { limbs: out }
    }

    /// Schoolbook multiplication into a double-width little-endian limb
    /// vector of length `2 * LIMBS`.
    fn widening_mul(&self, rhs: &Self) -> Vec<u64> {
        let mut acc = vec![0u64; 2 * LIMBS];
        for i in 0..LIMBS {
            if self.limbs[i] == 0 {
                continue;
            }
            let mut carry = 0u128;
            for j in 0..LIMBS {
                let idx = i + j;
                let prod = self.limbs[i] as u128 * rhs.limbs[j] as u128 + acc[idx] as u128 + carry;
                acc[idx] = prod as u64;
                carry = prod >> 64;
            }
            let mut idx = i + LIMBS;
            while carry > 0 {
                let sum = acc[idx] as u128 + carry;
                acc[idx] = sum as u64;
                carry = sum >> 64;
                idx += 1;
            }
        }
        acc
    }

    /// Checked multiplication (None on overflow).
    pub fn checked_mul(&self, rhs: &Self) -> Option<Self> {
        let wide = self.widening_mul(rhs);
        if wide[LIMBS..].iter().any(|&l| l != 0) {
            return None;
        }
        let mut limbs = [0u64; LIMBS];
        limbs.copy_from_slice(&wide[..LIMBS]);
        Some(Self { limbs })
    }

    /// `self mod modulus` via binary long division on the limb slice.
    ///
    /// # Panics
    ///
    /// Panics if `modulus` is zero.
    pub fn reduce(&self, modulus: &Self) -> Self {
        assert!(!modulus.is_zero(), "division by zero modulus");
        reduce_slice(&self.limbs, modulus)
    }

    /// Modular addition: `(self + rhs) mod modulus`.
    ///
    /// Inputs must already be reduced (`< modulus`).
    pub fn mod_add(&self, rhs: &Self, modulus: &Self) -> Self {
        debug_assert!(self < modulus && rhs < modulus);
        let (sum, carry) = self.overflowing_add(rhs);
        if carry || &sum >= modulus {
            sum.wrapping_sub(modulus)
        } else {
            sum
        }
    }

    /// Modular subtraction: `(self - rhs) mod modulus`.
    ///
    /// Inputs must already be reduced (`< modulus`).
    pub fn mod_sub(&self, rhs: &Self, modulus: &Self) -> Self {
        debug_assert!(self < modulus && rhs < modulus);
        let (diff, borrow) = self.overflowing_sub(rhs);
        if borrow {
            diff.wrapping_add(modulus)
        } else {
            diff
        }
    }

    /// Modular multiplication: `(self * rhs) mod modulus` — a heap
    /// double-width product through the bit-serial `reduce_slice`.
    ///
    /// Oracle duty only: [`Uint::mod_pow_naive`] and the test / bench
    /// references stand on it. Everything that runs per round multiplies
    /// through a resident [`MontgomeryCtx`].
    pub fn mod_mul(&self, rhs: &Self, modulus: &Self) -> Self {
        assert!(!modulus.is_zero(), "division by zero modulus");
        let wide = self.widening_mul(rhs);
        reduce_slice(&wide, modulus)
    }

    /// Modular exponentiation: `self^exp mod modulus`.
    ///
    /// Odd moduli (every prime the crate ships) take the Montgomery (CIOS)
    /// fast path with fixed-window exponentiation; even moduli fall back
    /// to [`Uint::mod_pow_naive`]. Callers that exponentiate repeatedly
    /// over the same odd modulus should build a [`MontgomeryCtx`] once and
    /// use [`MontgomeryCtx::mod_pow`] directly — this convenience method
    /// pays the full context setup (limb inversion + R² derivation) on
    /// every call.
    pub fn mod_pow(&self, exp: &Self, modulus: &Self) -> Self {
        assert!(!modulus.is_zero(), "division by zero modulus");
        if modulus == &Self::ONE {
            return Self::ZERO;
        }
        if let Some(ctx) = MontgomeryCtx::new(modulus) {
            return ctx.mod_pow(self, exp);
        }
        self.mod_pow_naive(exp, modulus)
    }

    /// Modular exponentiation by plain left-to-right square and multiply
    /// over binary-reduction [`Uint::mod_mul`] — no Montgomery form, no
    /// windowing, no precomputation.
    ///
    /// This is the seed-era slow path, kept verbatim as the oracle the
    /// property tests and the `crypto_primitives` seed-vs-opt benches pin
    /// the Montgomery engine against. Every optimized exponentiation in
    /// the workspace must return bit-identical results to this ladder.
    ///
    /// # Panics
    ///
    /// Panics if `modulus` is zero.
    pub fn mod_pow_naive(&self, exp: &Self, modulus: &Self) -> Self {
        assert!(!modulus.is_zero(), "division by zero modulus");
        if modulus == &Self::ONE {
            return Self::ZERO;
        }
        let base = self.reduce(modulus);
        let mut result = Self::ONE;
        let Some(top) = exp.highest_bit() else {
            return result; // exp == 0
        };
        for i in (0..=top).rev() {
            result = result.mod_mul(&result, modulus);
            if exp.bit(i) {
                result = result.mod_mul(&base, modulus);
            }
        }
        result
    }

    /// The `width`-bit window of the exponent starting at bit `width * w`
    /// (little-endian window order). `width` divides 64, so a window
    /// never straddles a limb.
    fn window(&self, w: u32, width: u32) -> usize {
        let bit = width * w;
        if bit >= Self::BITS {
            return 0;
        }
        ((self.limbs[(bit / 64) as usize] >> (bit % 64)) & ((1 << width) - 1)) as usize
    }

    /// The limbs as a 4-limb array — `None` at any other width.
    fn limbs4(&self) -> Option<[u64; 4]> {
        self.limbs[..].try_into().ok()
    }

    /// Modular inverse via Fermat's little theorem (`modulus` must be
    /// prime and `self` nonzero mod it). One-shot: pays a context setup
    /// per call, so it is the reference [`MontgomeryCtx::batch_inv`] and
    /// the retained plain Shamir ladder (tests, `crypto_primitives`
    /// bench) are held to, not a production path.
    pub fn mod_inv_prime(&self, modulus: &Self) -> Option<Self> {
        let reduced = self.reduce(modulus);
        if reduced.is_zero() {
            return None;
        }
        let exp = modulus.wrapping_sub(&Self::from_u64(2));
        Some(reduced.mod_pow(&exp, modulus))
    }
}

/// Reduces an arbitrary-length little-endian limb slice modulo `modulus`.
fn reduce_slice<const LIMBS: usize>(value: &[u64], modulus: &Uint<LIMBS>) -> Uint<LIMBS> {
    // Find the highest set bit of the value.
    let mut top_bit: Option<usize> = None;
    for (i, &limb) in value.iter().enumerate().rev() {
        if limb != 0 {
            top_bit = Some(i * 64 + 63 - limb.leading_zeros() as usize);
            break;
        }
    }
    let Some(top_bit) = top_bit else {
        return Uint::ZERO;
    };

    let mod_bits = modulus
        .highest_bit()
        .expect("modulus checked nonzero by callers") as usize;

    // Remainder accumulator, built bit by bit from the most significant
    // bit downwards: r = r*2 + bit; if r >= m { r -= m }.
    let mut rem = Uint::<LIMBS>::ZERO;
    for i in (0..=top_bit).rev() {
        // rem <<= 1 (rem < m <= 2^BITS - 1; after shift it may reach 2m,
        // but because m's top bit is mod_bits, rem < m means rem's top bit
        // <= mod_bits, so the shift can only overflow if mod_bits is the
        // very top bit — handle with the carry from overflowing_shl).
        let (shifted, carry) = rem.overflowing_shl(1);
        rem = shifted;
        let bit = (value[i / 64] >> (i % 64)) & 1 == 1;
        if bit {
            rem.limbs[0] |= 1;
        }
        if carry || &rem >= modulus {
            rem = rem.wrapping_sub(modulus);
        }
        debug_assert!(&rem < modulus || mod_bits == 0);
    }
    rem
}

/// A group element held in Montgomery form (`a · R mod m` for the context
/// that produced it).
///
/// Elements are only meaningful relative to the [`MontgomeryCtx`] that
/// created them: all arithmetic goes through the context's methods
/// ([`MontgomeryCtx::mul`], [`MontgomeryCtx::pow`]), and
/// [`MontgomeryCtx::retrieve`] converts back to a plain integer. Keeping
/// long-lived values (a DH generator, advertised public keys, a Shamir
/// evaluation point) in this form skips the to-Montgomery conversion on
/// every multiplication.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MontyElem<const LIMBS: usize> {
    hat: Uint<LIMBS>,
}

impl<const LIMBS: usize> MontyElem<LIMBS> {
    /// The raw Montgomery-form representation (`a · R mod m`).
    pub const fn raw(&self) -> &Uint<LIMBS> {
        &self.hat
    }
}

/// Resident Montgomery multiplication engine for an odd modulus.
///
/// Implements the CIOS (coarsely integrated operand scanning) variant of
/// Montgomery reduction over stack arrays — no heap allocation anywhere on
/// the multiplication or exponentiation path — plus fixed-window (w = 4)
/// exponentiation over a 16-entry table of Montgomery-form base powers.
///
/// # Residency contract
///
/// Context construction is the expensive part: a Newton limb inversion
/// plus the `R² mod m` derivation (2·BITS modular doublings — 512
/// `mod_add`s at 4 limbs, 4096 at 32). Build the context **once per
/// modulus** and reuse it for every multiplication and exponentiation;
/// `fl-crypto`'s `DhGroupW` does exactly this, holding the context (and
/// the group generator in Montgomery form) for the lifetime of the group.
/// Its second tenant is `fl-crypto`'s `Shamir`: the key-escrow field is
/// the DH group's prime field, so the scheme copies the group's context
/// instead of deriving its own, and runs on the field operations below —
/// [`MontgomeryCtx::sub`], the mixed product [`MontgomeryCtx::mul_plain`]
/// and [`MontgomeryCtx::batch_inv`] (the last one alone needs the modulus
/// prime; everything else works for any odd one).
///
/// # Determinism contract
///
/// The fixed-window ladder consumes exponent windows MSB-first and is a
/// pure function of `(base, exp, modulus)`: its results are bit-identical
/// to the naive square-and-multiply oracle [`Uint::mod_pow_naive`] for
/// every input (pinned by property tests at 4 and 32 limbs). Windowing is
/// a speed choice, never a numerical one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MontgomeryCtx<const LIMBS: usize> {
    modulus: Uint<LIMBS>,
    /// `-modulus^{-1} mod 2^64`.
    n0_inv: u64,
    /// `R^2 mod modulus` where `R = 2^(64·LIMBS)`.
    r2: Uint<LIMBS>,
    /// `R mod modulus` — the multiplicative identity in Montgomery form.
    one: Uint<LIMBS>,
    /// The lane ladder's constants; `Some` exactly for 4-limb moduli.
    radix52: Option<Radix52>,
}

/// Bits per limb of the lane ladder's radix.
const RADIX_BITS: u32 = 52;
/// The low [`RADIX_BITS`] of a limb.
const MASK52: u64 = (1 << RADIX_BITS) - 1;

/// What the lane ladder needs of a 4-limb modulus `p`, in radix 2⁵² with
/// `R = 2²⁶⁰` (the module docs, "Lane exponentiation").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Radix52 {
    /// `p` in five 52-bit limbs, least significant first.
    p: [u64; 5],
    /// `−p⁻¹ mod 2⁵²`.
    k0: u64,
    /// `R² mod p = 2⁵²⁰ mod p`, five 52-bit limbs.
    r2: [u64; 5],
}

/// A value below 2²⁵⁶ in five 52-bit limbs (the top one holds 48 bits).
fn to_radix52(x: &[u64; 4]) -> [u64; 5] {
    [
        x[0] & MASK52,
        (x[0] >> 52 | x[1] << 12) & MASK52,
        (x[1] >> 40 | x[2] << 24) & MASK52,
        (x[2] >> 28 | x[3] << 36) & MASK52,
        x[3] >> 16,
    ]
}

/// The inverse of [`to_radix52`] for limbs below 2⁵² whose value is below
/// 2²⁵⁶.
fn from_radix52(l: &[u64; 5]) -> [u64; 4] {
    [
        l[0] | l[1] << 52,
        l[1] >> 12 | l[2] << 40,
        l[2] >> 24 | l[3] << 28,
        l[3] >> 36 | l[4] << 16,
    ]
}

impl<const LIMBS: usize> MontgomeryCtx<LIMBS> {
    /// Builds a context. Returns `None` for even or zero moduli, for which
    /// Montgomery reduction is undefined.
    pub fn new(modulus: &Uint<LIMBS>) -> Option<Self> {
        if modulus.is_zero() || modulus.is_even() {
            return None;
        }
        // Newton iteration: x_{k+1} = x_k (2 - m0 x_k) doubles the number
        // of correct low bits each step; 6 steps cover 64 bits.
        let m0 = modulus.limbs[0];
        let mut inv = m0; // correct to 3 bits for odd m0
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(m0.wrapping_mul(inv)));
        }
        debug_assert_eq!(m0.wrapping_mul(inv), 1);
        let n0_inv = inv.wrapping_neg();

        // R^2 mod m by doubling 1 exactly 2·BITS times.
        let one = Uint::<LIMBS>::ONE.reduce(modulus);
        let mut r2 = one;
        for _ in 0..(2 * Uint::<LIMBS>::BITS) {
            r2 = r2.mod_add(&r2, modulus);
        }
        // At 4 limbs the lane ladder's R² = 2⁵²⁰ is eight more doublings
        // of 2⁵¹².
        let mut r2_520 = r2;
        for _ in 0..8 {
            r2_520 = r2_520.mod_add(&r2_520, modulus);
        }
        let radix52 = modulus
            .limbs4()
            .zip(r2_520.limbs4())
            .map(|(p, r2_520)| Radix52 {
                p: to_radix52(&p),
                k0: n0_inv & MASK52,
                r2: to_radix52(&r2_520),
            });
        let mut ctx = Self {
            modulus: *modulus,
            n0_inv,
            r2,
            one,
            radix52,
        };
        // 1 in Montgomery form: R mod m = montmul(1, R²).
        ctx.one = ctx.mont_mul(&Uint::ONE, &ctx.r2);
        Some(ctx)
    }

    /// The modulus this context reduces by.
    pub const fn modulus(&self) -> &Uint<LIMBS> {
        &self.modulus
    }

    /// Montgomery product: `a · b · R^{-1} mod m` (CIOS).
    ///
    /// Entirely on the stack: the `LIMBS + 2`-limb CIOS accumulator is a
    /// `[u64; LIMBS]` array plus two scalar carry limbs (the top limb
    /// `t[LIMBS]` and the one-bit overflow `t[LIMBS + 1]`).
    fn mont_mul(&self, a: &Uint<LIMBS>, b: &Uint<LIMBS>) -> Uint<LIMBS> {
        let m = &self.modulus.limbs;
        let mut t = [0u64; LIMBS];
        let mut t_hi = 0u64; // CIOS t[LIMBS]
        for i in 0..LIMBS {
            // t += a * b[i]
            let bi = b.limbs[i] as u128;
            let mut carry: u128 = 0;
            for j in 0..LIMBS {
                let sum = t[j] as u128 + a.limbs[j] as u128 * bi + carry;
                t[j] = sum as u64;
                carry = sum >> 64;
            }
            let sum = t_hi as u128 + carry;
            t_hi = sum as u64;
            // CIOS t[LIMBS + 1]: always 0 or 1, dead again by iteration end.
            let t_ex = (sum >> 64) as u64;

            // reduce: choose q so the low limb of t + q·m vanishes
            let q = t[0].wrapping_mul(self.n0_inv) as u128;
            let mut carry: u128 = (t[0] as u128 + q * m[0] as u128) >> 64;
            for j in 1..LIMBS {
                let sum = t[j] as u128 + q * m[j] as u128 + carry;
                t[j - 1] = sum as u64;
                carry = sum >> 64;
            }
            let sum = t_hi as u128 + carry;
            t[LIMBS - 1] = sum as u64;
            t_hi = t_ex.wrapping_add((sum >> 64) as u64);
        }
        let mut result = Uint { limbs: t };
        if t_hi != 0 || result >= self.modulus {
            result = result.wrapping_sub(&self.modulus);
        }
        result
    }

    /// `value mod m`; a value already below the modulus (every resident
    /// caller's case) costs one comparison.
    fn reduced(&self, value: &Uint<LIMBS>) -> Uint<LIMBS> {
        if value < &self.modulus {
            *value
        } else {
            value.reduce(&self.modulus)
        }
    }

    /// Converts a plain integer into Montgomery form (reducing first if
    /// necessary).
    pub fn to_elem(&self, value: &Uint<LIMBS>) -> MontyElem<LIMBS> {
        MontyElem {
            hat: self.mont_mul(&self.reduced(value), &self.r2),
        }
    }

    /// Converts a Montgomery-form element back to a plain integer.
    pub fn retrieve(&self, elem: &MontyElem<LIMBS>) -> Uint<LIMBS> {
        self.mont_mul(&elem.hat, &Uint::ONE)
    }

    /// The multiplicative identity in Montgomery form.
    pub const fn one_elem(&self) -> MontyElem<LIMBS> {
        MontyElem { hat: self.one }
    }

    /// Montgomery-form product of two elements.
    pub fn mul(&self, a: &MontyElem<LIMBS>, b: &MontyElem<LIMBS>) -> MontyElem<LIMBS> {
        MontyElem {
            hat: self.mont_mul(&a.hat, &b.hat),
        }
    }

    /// Montgomery-form difference `a − b`. The form is linear
    /// (`(a − b)·R = a·R − b·R mod m`), so this is [`Uint::mod_sub`] on
    /// the representatives.
    pub fn sub(&self, a: &MontyElem<LIMBS>, b: &MontyElem<LIMBS>) -> MontyElem<LIMBS> {
        MontyElem {
            hat: a.hat.mod_sub(&b.hat, &self.modulus),
        }
    }

    /// The mixed product: plain residue × Montgomery element = plain
    /// residue. One `mont_mul` — `a · (b·R) · R⁻¹ = a·b mod m` — so a
    /// running value that is read out after every step (a Horner
    /// accumulator, a share value) never needs converting in or out; only
    /// the factor it is repeatedly multiplied by is resident. `a` is
    /// reduced first if necessary.
    pub fn mul_plain(&self, a: &Uint<LIMBS>, b: &MontyElem<LIMBS>) -> Uint<LIMBS> {
        self.mont_mul(&self.reduced(a), &b.hat)
    }

    /// Fermat inverse `a^(m−2)` of a Montgomery-form element — the modulus
    /// must be prime. `None` for zero, which has no inverse.
    fn inv(&self, a: &MontyElem<LIMBS>) -> Option<MontyElem<LIMBS>> {
        if a.hat.is_zero() {
            return None;
        }
        let exp = self.modulus.wrapping_sub(&Uint::from_u64(2));
        Some(self.pow(a, &exp))
    }

    /// Inverts every element of `elems` with **one** exponentiation
    /// (Montgomery's trick): prefix products forward, one Fermat inverse
    /// of the total, then a walk back that peels one factor per step —
    /// `3n` multiplications beside the single `pow`, against `n` `pow`s
    /// element-wise. The modulus must be prime. `None` if any
    /// element is zero (the total product is, and it would otherwise
    /// poison every slot at once).
    pub fn batch_inv(&self, elems: &[MontyElem<LIMBS>]) -> Option<Vec<MontyElem<LIMBS>>> {
        // out[i] = e_0 ⋯ e_{i−1}, acc = e_0 ⋯ e_{n−1}.
        let mut out = Vec::with_capacity(elems.len());
        let mut acc = self.one_elem();
        for e in elems {
            out.push(acc);
            acc = self.mul(&acc, e);
        }
        // Walking back, `inv` is (e_0 ⋯ e_i)⁻¹ on entry to step i.
        let mut inv = self.inv(&acc)?;
        for (slot, e) in out.iter_mut().zip(elems).rev() {
            *slot = self.mul(slot, &inv);
            inv = self.mul(&inv, e);
        }
        Some(out)
    }

    /// Fixed-window (w = 4) exponentiation of a Montgomery-form base.
    ///
    /// Precomputes the 16 Montgomery-form powers `base^0 … base^15`, then
    /// consumes the exponent in 4-bit windows MSB-first: four squarings
    /// per window (skipped for the leading window, where the accumulator
    /// is still 1) and one table multiplication per nonzero window. The
    /// result is bit-identical to bit-at-a-time square-and-multiply.
    pub fn pow(&self, base: &MontyElem<LIMBS>, exp: &Uint<LIMBS>) -> MontyElem<LIMBS> {
        let Some(top) = exp.highest_bit() else {
            return self.one_elem(); // exp == 0
        };
        // table[k] = base^k in Montgomery form.
        let mut table = [self.one; 16];
        table[1] = base.hat;
        for k in 2..16 {
            table[k] = self.mont_mul(&table[k - 1], &base.hat);
        }
        let top_window = top / 4;
        let mut acc = self.one;
        for w in (0..=top_window).rev() {
            if w != top_window {
                for _ in 0..4 {
                    acc = self.mont_mul(&acc, &acc);
                }
            }
            let idx = exp.window(w, 4);
            if idx != 0 {
                acc = self.mont_mul(&acc, &table[idx]);
            }
        }
        MontyElem { hat: acc }
    }

    /// `base^exp mod modulus` over plain integers: convert in, fixed-window
    /// exponentiate, convert out.
    pub fn mod_pow(&self, base: &Uint<LIMBS>, exp: &Uint<LIMBS>) -> Uint<LIMBS> {
        let base_hat = self.to_elem(base);
        self.retrieve(&self.pow(&base_hat, exp))
    }

    /// `[b^exp mod modulus for b in bases]`: one exponent, many bases —
    /// the shape of one owner's key agreements. Equal, base for base, to
    /// [`MontgomeryCtx::mod_pow`]; bases need not be reduced.
    ///
    /// Runs [`MontgomeryCtx::batch_lanes`] bases abreast: eight on the
    /// lane ladder of the module docs ("Lane exponentiation") where this
    /// CPU has it, otherwise one, through the scalar ladder. A lone base
    /// left over always takes the scalar ladder, which is as fast for one
    /// as the lanes are for eight.
    pub fn mod_pow_batch(&self, bases: &[Uint<LIMBS>], exp: &Uint<LIMBS>) -> Vec<Uint<LIMBS>> {
        self.mod_pow_batch_on(PowTier::detect(), bases, exp)
    }

    /// How many bases [`MontgomeryCtx::mod_pow_batch`] raises abreast on
    /// this CPU: eight for a 4-limb modulus where AVX-512F and AVX-512
    /// IFMA are reported, else 1. A caller chunks and prices its
    /// batches by it; no bit of any result depends on it.
    pub fn batch_lanes(&self) -> usize {
        if self.radix52.is_some() && PowTier::detect() == PowTier::Ifma {
            POW_LANES
        } else {
            1
        }
    }

    /// [`MontgomeryCtx::mod_pow_batch`] in `tier` — the tests' way to
    /// hold each tier to the oracle. The IFMA tier checks the CPU again
    /// itself, so asking for it where it is absent runs the scalar one.
    fn mod_pow_batch_on(
        &self,
        tier: PowTier,
        bases: &[Uint<LIMBS>],
        exp: &Uint<LIMBS>,
    ) -> Vec<Uint<LIMBS>> {
        let mut out = Vec::with_capacity(bases.len());
        for chunk in bases.chunks(POW_LANES) {
            let lanes = if tier == PowTier::Ifma && chunk.len() > 1 {
                self.pow_lanes(chunk, exp)
            } else {
                None
            };
            match lanes {
                Some(values) => out.extend(values),
                None => out.extend(chunk.iter().map(|b| self.mod_pow(b, exp))),
            }
        }
        out
    }

    /// Up to [`POW_LANES`] bases through the IFMA ladder, or `None` when
    /// it cannot run (another width, no IFMA, a zero exponent, another
    /// target).
    fn pow_lanes(&self, chunk: &[Uint<LIMBS>], exp: &Uint<LIMBS>) -> Option<Vec<Uint<LIMBS>>> {
        let radix = self.radix52.as_ref()?;
        let exp = U256::from_limbs(exp.limbs4()?);
        let mut bases = [[0u64; 5]; POW_LANES];
        for (lane, base) in bases.iter_mut().zip(chunk) {
            *lane = to_radix52(&self.reduced(base).limbs4()?);
        }
        let raised = ifma::pow(radix, &bases, &exp)?;
        // Each lane is in [0, p]: one subtraction makes it canonical.
        Some(
            raised[..chunk.len()]
                .iter()
                .map(|lane| {
                    let mut limbs = [0u64; LIMBS];
                    limbs.copy_from_slice(&from_radix52(lane));
                    let value = Uint { limbs };
                    if value >= self.modulus {
                        value.wrapping_sub(&self.modulus)
                    } else {
                        value
                    }
                })
                .collect(),
        )
    }
}

/// The most bytes a [`FixedBaseTable`] may hold; its window is the widest
/// that fits.
const FIXED_BASE_BYTES: usize = 1 << 20;

/// The widest of 8, 4, 2 and 1 bits whose [`FixedBaseTable`] at `limbs`
/// limbs fits [`FIXED_BASE_BYTES`]: 8 up to 8 limbs (255 KiB at 4), 2 at
/// 32 (768 KiB; 8 would need 16 MiB). Each divides 64, so a window never
/// straddles a limb.
const fn fixed_base_window(limbs: usize) -> u32 {
    let mut width = 8;
    while width > 1 && (64 * limbs / width) * ((1 << width) - 1) * 8 * limbs > FIXED_BASE_BYTES {
        width /= 2;
    }
    width as u32
}

/// Every power a fixed base is raised to, precomputed: `base^x` is at
/// most `BITS / WINDOW − 1` Montgomery products and no squaring
/// (Brickell–Gordon–McCurley–Wilson, EUROCRYPT '92).
///
/// Position `i` of the exponent, `WINDOW` bits wide, holds
/// `base^(d · 2^(WINDOW·i))` for every nonzero digit `d`, in Montgomery
/// form; `base^x` is the product of the entries `x`'s digits pick. At 4
/// limbs that is 32 positions × 255 entries (255 KiB, 8 160 products to
/// build) and at most 31 products a power, against [`MontgomeryCtx::pow`]'s
/// 252 squarings and up to 64 products. The window is the width's, never
/// an option ([`FixedBaseTable::WINDOW`]).
///
/// The table pays for itself after a handful of powers of one base —
/// the shape of a DH group's generator, raised to every owner's private
/// key. The result is the canonical residue: bit-identical to
/// [`MontgomeryCtx::pow`] and [`Uint::mod_pow_naive`] for every exponent.
#[derive(Clone)]
pub struct FixedBaseTable<const LIMBS: usize> {
    ctx: MontgomeryCtx<LIMBS>,
    /// Row `i` is position `i`: entry `d − 1` is `base^(d · 2^(WINDOW·i))`.
    powers: Vec<Uint<LIMBS>>,
}

impl<const LIMBS: usize> FixedBaseTable<LIMBS> {
    /// Exponent bits per table position.
    pub const WINDOW: u32 = fixed_base_window(LIMBS);
    /// Entries per position: every nonzero digit.
    const ROW: usize = (1 << Self::WINDOW) - 1;

    /// The table of `base`'s powers under `ctx`: `BITS / WINDOW` rows of
    /// `2^WINDOW − 1` products each.
    pub fn new(ctx: &MontgomeryCtx<LIMBS>, base: &MontyElem<LIMBS>) -> Self {
        let rows = (Uint::<LIMBS>::BITS / Self::WINDOW) as usize;
        let mut powers = Vec::with_capacity(rows * Self::ROW);
        // `unit` is base^(2^(WINDOW·i)), row i's first entry; the row's
        // last entry times it is the next row's.
        let mut unit = base.hat;
        for _ in 0..rows {
            let mut entry = unit;
            powers.push(entry);
            for _ in 1..Self::ROW {
                entry = ctx.mont_mul(&entry, &unit);
                powers.push(entry);
            }
            unit = ctx.mont_mul(&entry, &unit);
        }
        Self { ctx: *ctx, powers }
    }

    /// `base^exp` in Montgomery form: the product, lowest position first,
    /// of the entries `exp`'s nonzero digits pick.
    pub fn pow(&self, exp: &Uint<LIMBS>) -> MontyElem<LIMBS> {
        let mut acc: Option<Uint<LIMBS>> = None;
        for (i, row) in (0..).zip(self.powers.chunks_exact(Self::ROW)) {
            let digit = exp.window(i, Self::WINDOW);
            if let Some(entry) = digit.checked_sub(1).and_then(|d| row.get(d)) {
                acc = Some(match acc {
                    Some(acc) => self.ctx.mont_mul(&acc, entry),
                    None => *entry,
                });
            }
        }
        MontyElem {
            hat: acc.unwrap_or(self.ctx.one),
        }
    }
}

impl<const LIMBS: usize> fmt::Debug for FixedBaseTable<LIMBS> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FixedBaseTable")
            .field("window", &Self::WINDOW)
            .field("entries", &self.powers.len())
            .finish()
    }
}

/// Bases the lane ladder raises abreast: the 64-bit lanes of a `zmm`
/// register.
const POW_LANES: usize = 8;

/// Which ladder [`MontgomeryCtx::mod_pow_batch`] runs.
#[derive(Clone, Copy, Debug, PartialEq)]
enum PowTier {
    /// [`MontgomeryCtx::pow`] per base.
    Scalar,
    /// Eight bases abreast on AVX-512 IFMA.
    Ifma,
}

impl PowTier {
    /// The widest tier this CPU runs.
    fn detect() -> PowTier {
        if ifma::available() {
            PowTier::Ifma
        } else {
            PowTier::Scalar
        }
    }

    /// Every tier this CPU runs, the scalar one first.
    #[cfg(test)]
    fn each() -> Vec<PowTier> {
        let mut tiers = vec![PowTier::Scalar];
        if ifma::available() {
            tiers.push(PowTier::Ifma);
        }
        tiers
    }
}

/// The lane ladder on AVX-512 IFMA (the module docs, "Lane
/// exponentiation"). Entering [`ifma::pow8`], a `#[target_feature]`
/// function, is the one `unsafe` step: everything inside it is
/// register arithmetic on `__m512i` values and safe array indexing, with
/// no pointer in sight.
#[cfg(target_arch = "x86_64")]
mod ifma {
    use core::arch::x86_64::{
        __m512i, _mm512_add_epi64, _mm512_alignr_epi64, _mm512_and_si512, _mm512_castsi512_si128,
        _mm512_madd52hi_epu64, _mm512_madd52lo_epu64, _mm512_set1_epi64, _mm512_set_epi64,
        _mm512_setzero_si512, _mm512_srli_epi64, _mm_cvtsi128_si64,
    };
    use std::sync::OnceLock;

    use super::{Radix52, MASK52, POW_LANES, U256};

    /// One 52-bit limb position of eight residues, lane `i` holding
    /// residue `i`'s limb.
    type Lanes = [__m512i; 5];

    /// True when the CPU reports AVX-512F and AVX-512 IFMA (the first
    /// also checks that the OS saves the `zmm` state); asked once.
    pub(super) fn available() -> bool {
        static IFMA: OnceLock<bool> = OnceLock::new();
        *IFMA.get_or_init(|| {
            std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("avx512ifma")
        })
    }

    /// `bases[i]^exp mod p` for the eight radix-2⁵² bases (each below
    /// `p`), each in `[0, p]` — `None`, with nothing computed, when
    /// IFMA is not [`available`] or `exp` is zero.
    pub(super) fn pow(
        radix: &Radix52,
        bases: &[[u64; 5]; POW_LANES],
        exp: &U256,
    ) -> Option<[[u64; 5]; POW_LANES]> {
        let top_window = exp.highest_bit()? / 4;
        if !available() {
            return None;
        }
        // SAFETY: `available` saw `is_x86_feature_detected!` report
        // `avx512f` and `avx512ifma` on this CPU, the two features
        // `pow8` enables (with what rustc implies by them, which every
        // CPU reporting them implements). `pow8` touches memory only
        // through its references and safe array indexing.
        #[allow(unsafe_code)]
        let raised = unsafe { pow8(radix, bases, exp, top_window) };
        Some(raised)
    }

    /// Reduction constants broadcast to every lane.
    struct Consts {
        p: Lanes,
        k0: __m512i,
        mask: __m512i,
    }

    /// The fixed-window ladder of `MontgomeryCtx::pow` over eight lanes:
    /// into Montgomery form, the 16-entry table, windows MSB-first from
    /// `top_window` (the leading one loads its table entry instead of
    /// multiplying 1 by it), out of Montgomery form. Every lane reads
    /// the same window, so table reads are plain indexing.
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn pow8(
        radix: &Radix52,
        bases: &[[u64; 5]; POW_LANES],
        exp: &U256,
        top_window: u32,
    ) -> [[u64; 5]; POW_LANES] {
        let zero = _mm512_setzero_si512();
        let mut k = Consts {
            p: [zero; 5],
            k0: _mm512_set1_epi64(radix.k0 as i64),
            mask: _mm512_set1_epi64(MASK52 as i64),
        };
        let mut r2 = [zero; 5];
        let mut x = [zero; 5];
        for j in 0..5 {
            k.p[j] = _mm512_set1_epi64(radix.p[j] as i64);
            r2[j] = _mm512_set1_epi64(radix.r2[j] as i64);
            x[j] = _mm512_set_epi64(
                bases[7][j] as i64,
                bases[6][j] as i64,
                bases[5][j] as i64,
                bases[4][j] as i64,
                bases[3][j] as i64,
                bases[2][j] as i64,
                bases[1][j] as i64,
                bases[0][j] as i64,
            );
        }
        // x·R mod p (below 2p), then table[i] = x^i in the same form.
        let x = amm(&k, &x, &r2);
        let mut table = [x; 16];
        for i in 2..16 {
            table[i] = amm(&k, &table[i - 1], &x);
        }
        let mut acc = table[exp.window(top_window, 4)];
        for w in (0..top_window).rev() {
            for _ in 0..4 {
                acc = amm(&k, &acc, &acc);
            }
            let idx = exp.window(w, 4);
            if idx != 0 {
                acc = amm(&k, &acc, &table[idx]);
            }
        }
        let mut one = [zero; 5];
        one[0] = _mm512_set1_epi64(1);
        let out = amm(&k, &acc, &one);

        // Lane 0 out of each limb vector, rotating the next lane down.
        let mut raised = [[0u64; 5]; POW_LANES];
        for j in 0..5 {
            let mut v = out[j];
            for lane in raised.iter_mut() {
                lane[j] = _mm_cvtsi128_si64(_mm512_castsi512_si128(v)) as u64;
                v = _mm512_alignr_epi64::<1>(v, v);
            }
        }
        raised
    }

    /// Almost-Montgomery product `a · b · 2⁻²⁶⁰ mod p` of eight pairs:
    /// the 10-limb product, then [`redc`].
    #[target_feature(enable = "avx512f,avx512ifma")]
    #[inline]
    fn amm(k: &Consts, a: &Lanes, b: &Lanes) -> Lanes {
        let mut t = [_mm512_setzero_si512(); 10];
        for i in 0..5 {
            for j in 0..5 {
                t[i + j] = _mm512_madd52lo_epu64(t[i + j], a[j], b[i]);
                t[i + j + 1] = _mm512_madd52hi_epu64(t[i + j + 1], a[j], b[i]);
            }
        }
        redc(k, t)
    }

    /// Montgomery reduction of a 10-limb product `t` of two operands
    /// below `2p`: `(t + q·p) / 2²⁶⁰` for the `q < 2²⁶⁰` that makes the
    /// division exact — below `2p` since `4p < 2²⁶⁰` — with its limbs
    /// normalised below 2⁵². Each 64-bit accumulator takes at most 21
    /// values below 2⁵² plus a carry, so none overflows.
    #[target_feature(enable = "avx512f,avx512ifma")]
    #[inline]
    fn redc(k: &Consts, mut t: [__m512i; 10]) -> Lanes {
        // Step i clears the low 52 bits of t[i] with q·p and carries the
        // rest up; q reads only the low 52 bits of t[i].
        for i in 0..5 {
            let q = _mm512_madd52lo_epu64(_mm512_setzero_si512(), t[i], k.k0);
            for j in 0..5 {
                t[i + j] = _mm512_madd52lo_epu64(t[i + j], k.p[j], q);
                t[i + j + 1] = _mm512_madd52hi_epu64(t[i + j + 1], k.p[j], q);
            }
            t[i + 1] = _mm512_add_epi64(t[i + 1], _mm512_srli_epi64::<52>(t[i]));
        }
        for j in 5..9 {
            t[j + 1] = _mm512_add_epi64(t[j + 1], _mm512_srli_epi64::<52>(t[j]));
            t[j] = _mm512_and_si512(t[j], k.mask);
        }
        [t[5], t[6], t[7], t[8], t[9]]
    }
}

/// Off x86-64 the lane ladder does not exist; the scalar one runs.
#[cfg(not(target_arch = "x86_64"))]
mod ifma {
    use super::{Radix52, POW_LANES, U256};

    pub(super) fn available() -> bool {
        false
    }

    pub(super) fn pow(
        _: &Radix52,
        _: &[[u64; 5]; POW_LANES],
        _: &U256,
    ) -> Option<[[u64; 5]; POW_LANES]> {
        None
    }
}

impl<const LIMBS: usize> PartialOrd for Uint<LIMBS> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<const LIMBS: usize> Ord for Uint<LIMBS> {
    fn cmp(&self, other: &Self) -> Ordering {
        for i in (0..LIMBS).rev() {
            match self.limbs[i].cmp(&other.limbs[i]) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }
}

impl<const LIMBS: usize> fmt::Debug for Uint<LIMBS> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Uint<{LIMBS}>(0x{})", self.to_hex())
    }
}

impl<const LIMBS: usize> fmt::Display for Uint<LIMBS> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{}", self.to_hex())
    }
}

impl<const LIMBS: usize> From<u64> for Uint<LIMBS> {
    fn from(v: u64) -> Self {
        Self::from_u64(v)
    }
}

/// Errors from parsing or constructing a [`Uint`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UintError {
    /// Input string had no digits.
    Empty,
    /// A character was not a hexadecimal digit.
    InvalidDigit(char),
    /// The value does not fit in the target width.
    Overflow,
}

impl fmt::Display for UintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UintError::Empty => write!(f, "empty integer literal"),
            UintError::InvalidDigit(c) => write!(f, "invalid hex digit {c:?}"),
            UintError::Overflow => write!(f, "value does not fit in target width"),
        }
    }
}

impl std::error::Error for UintError {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn u256(v: u128) -> U256 {
        U256::from_u128(v)
    }

    #[test]
    fn zero_and_one_identities() {
        assert!(U256::ZERO.is_zero());
        assert!(!U256::ONE.is_zero());
        assert_eq!(U256::ZERO.wrapping_add(&U256::ONE), U256::ONE);
        assert_eq!(U256::ONE.wrapping_sub(&U256::ONE), U256::ZERO);
    }

    #[test]
    fn add_sub_carry_chain() {
        let max = U256::MAX;
        let (sum, carry) = max.overflowing_add(&U256::ONE);
        assert!(carry);
        assert!(sum.is_zero());
        let (diff, borrow) = U256::ZERO.overflowing_sub(&U256::ONE);
        assert!(borrow);
        assert_eq!(diff, U256::MAX);
    }

    #[test]
    fn mul_small_values() {
        let a = u256(0xdead_beef);
        let b = u256(0x1_0000_0001);
        let prod = a.checked_mul(&b).unwrap();
        assert_eq!(prod, u256(0xdead_beef * 0x1_0000_0001u128));
    }

    #[test]
    fn mul_overflow_detected() {
        assert!(U256::MAX.checked_mul(&u256(2)).is_none());
        assert_eq!(U256::MAX.checked_mul(&U256::ONE), Some(U256::MAX));
    }

    #[test]
    fn hex_round_trip() {
        let v = U256::from_hex("ffffffff00000000ffffffff00000000f").unwrap();
        assert_eq!(U256::from_hex(&v.to_hex()).unwrap(), v);
        assert_eq!(U256::from_hex("0").unwrap(), U256::ZERO);
        assert!(U256::from_hex("").is_err());
        assert!(U256::from_hex("xyz").is_err());
    }

    #[test]
    fn hex_overflow_rejected() {
        let too_long = "f".repeat(65);
        assert!(U256::from_hex(&too_long).is_err());
    }

    #[test]
    fn be_bytes_round_trip() {
        let v = u256(0x0123_4567_89ab_cdef_fedc_ba98_7654_3210);
        let bytes = v.to_be_bytes();
        assert_eq!(bytes.len(), 32);
        assert_eq!(U256::from_be_bytes(&bytes), v);
    }

    #[test]
    fn shifts() {
        let v = u256(1);
        let (shifted, ov) = v.overflowing_shl(255);
        assert!(!ov);
        assert_eq!(shifted.highest_bit(), Some(255));
        let (_, ov) = shifted.overflowing_shl(1);
        assert!(ov);
        assert_eq!(shifted.shr(255), U256::ONE);
        assert_eq!(v.shr(1), U256::ZERO);
    }

    #[test]
    fn reduce_matches_u128() {
        let a = u256(123_456_789_123_456_789);
        let m = u256(1_000_000_007);
        assert_eq!(
            a.reduce(&m),
            u256(123_456_789_123_456_789u128 % 1_000_000_007)
        );
    }

    #[test]
    fn mod_pow_small_prime() {
        // 3^100 mod 1000000007 = 226732710 (checked independently).
        let base = u256(3);
        let exp = u256(100);
        let m = u256(1_000_000_007);
        let expect = {
            let mut r: u128 = 1;
            for _ in 0..100 {
                r = r * 3 % 1_000_000_007;
            }
            u256(r)
        };
        assert_eq!(base.mod_pow(&exp, &m), expect);
    }

    #[test]
    fn mod_pow_edge_cases() {
        let m = u256(97);
        assert_eq!(u256(5).mod_pow(&U256::ZERO, &m), U256::ONE);
        assert_eq!(u256(5).mod_pow(&U256::ONE, &m), u256(5));
        assert_eq!(u256(5).mod_pow(&u256(10), &U256::ONE), U256::ZERO);
    }

    #[test]
    fn fermat_inverse() {
        let p = u256(1_000_000_007);
        let a = u256(123_456);
        let inv = a.mod_inv_prime(&p).unwrap();
        assert_eq!(a.mod_mul(&inv, &p), U256::ONE);
        assert!(U256::ZERO.mod_inv_prime(&p).is_none());
    }

    #[test]
    fn display_formats() {
        assert_eq!(u256(255).to_hex(), "ff");
        assert_eq!(format!("{}", u256(255)), "0xff");
        assert_eq!(U256::ZERO.to_hex(), "0");
    }

    #[test]
    fn ord_is_lexicographic_on_value() {
        assert!(u256(1) < u256(2));
        assert!(U256::MAX > u256(u128::MAX));
        assert_eq!(u256(7).cmp(&u256(7)), Ordering::Equal);
    }

    #[test]
    fn u2048_basic_modexp() {
        // Tiny sanity check in the wide type: 2^10 mod 1000 = 24.
        let base = U2048::from_u64(2);
        let exp = U2048::from_u64(10);
        let m = U2048::from_u64(1000);
        assert_eq!(base.mod_pow(&exp, &m), U2048::from_u64(24));
    }

    #[test]
    fn montgomery_rejects_even_modulus() {
        assert!(MontgomeryCtx::<4>::new(&u256(10)).is_none());
        assert!(MontgomeryCtx::<4>::new(&U256::ZERO).is_none());
        assert!(MontgomeryCtx::<4>::new(&u256(9)).is_some());
    }

    #[test]
    fn montgomery_matches_naive_modpow() {
        // Compare the CIOS path against square-and-multiply with binary
        // reduction across a spread of odd moduli.
        for (base, exp, m) in [
            (3u128, 1000u128, 1_000_000_007u128),
            (2, 5, 7),
            (123_456_789, 987_654_321, 0xffff_ffff_ffff_fff1),
            (5, 0, 97),
            (0, 5, 97),
        ] {
            let ctx = MontgomeryCtx::new(&u256(m)).unwrap();
            let fast = ctx.mod_pow(&u256(base), &u256(exp));
            let naive = u256(base).mod_pow_naive(&u256(exp), &u256(m));
            assert_eq!(fast, naive, "base={base} exp={exp} m={m}");
        }
    }

    #[test]
    fn montgomery_edge_cases_match_oracle() {
        let m = u256(1_000_000_007);
        let ctx = MontgomeryCtx::new(&m).unwrap();
        // exp == 0 => 1 for any base.
        assert_eq!(ctx.mod_pow(&u256(12345), &U256::ZERO,), U256::ONE);
        // base >= modulus reduces first.
        let big_base = U256::MAX;
        assert_eq!(
            ctx.mod_pow(&big_base, &u256(77)),
            big_base.mod_pow_naive(&u256(77), &m)
        );
        // modulus == 1: everything collapses to zero.
        let ctx1 = MontgomeryCtx::new(&U256::ONE).unwrap();
        assert_eq!(ctx1.mod_pow(&u256(5), &u256(10)), U256::ZERO);
        assert_eq!(u256(5).mod_pow_naive(&u256(10), &U256::ONE), U256::ZERO);
        // Maximum exponent: every window of the ladder is exercised.
        assert_eq!(
            ctx.mod_pow(&u256(3), &U256::MAX),
            u256(3).mod_pow_naive(&U256::MAX, &m)
        );
    }

    #[test]
    fn monty_elem_round_trip_and_mul() {
        let m = u256(1_000_000_007);
        let ctx = MontgomeryCtx::new(&m).unwrap();
        let a = u256(123_456_789);
        let b = u256(987_654_321);
        let (ea, eb) = (ctx.to_elem(&a), ctx.to_elem(&b));
        assert_eq!(ctx.retrieve(&ea), a);
        assert_eq!(ctx.retrieve(&ctx.mul(&ea, &eb)), a.mod_mul(&b, &m));
        assert_eq!(ctx.retrieve(&ctx.one_elem()), U256::ONE);
        // pow over a resident element equals the plain-integer entry point.
        assert_eq!(
            ctx.retrieve(&ctx.pow(&ea, &u256(1000))),
            ctx.mod_pow(&a, &u256(1000))
        );
    }

    #[test]
    fn wide_montgomery_matches_oracle() {
        // 32-limb spot check against the naive ladder: a dense odd
        // modulus built from repeating limbs.
        let mut m_limbs = [0u64; 32];
        for (i, l) in m_limbs.iter_mut().enumerate() {
            *l = 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i as u64 + 1);
        }
        m_limbs[0] |= 1; // odd
        let m = U2048::from_limbs(m_limbs);
        let base = U2048::from_u64(0xdead_beef);
        let exp = U2048::from_u128(0x1234_5678_9abc_def0_1122_3344_5566_7788);
        let ctx = MontgomeryCtx::new(&m).unwrap();
        assert_eq!(ctx.mod_pow(&base, &exp), base.mod_pow_naive(&exp, &m));
    }

    fn from_vec<const L: usize>(v: &[u64]) -> Uint<L> {
        let mut limbs = [0u64; L];
        limbs.copy_from_slice(v);
        Uint::from_limbs(limbs)
    }

    /// `2^bits − 1`.
    fn mersenne<const L: usize>(bits: u32) -> Uint<L> {
        Uint::<L>::ONE
            .overflowing_shl(bits)
            .0
            .wrapping_sub(&Uint::ONE)
    }

    /// The prime `2^255 − 19`.
    fn p25519() -> U256 {
        mersenne::<4>(255).wrapping_sub(&u256(18))
    }

    /// `sub` and the mixed product against the plain ladder, for one odd
    /// modulus and two operands of any size.
    fn check_field_ops<const L: usize>(m: Uint<L>, a: Uint<L>, b: Uint<L>) {
        let ctx = MontgomeryCtx::new(&m).unwrap();
        let (ra, rb) = (a.reduce(&m), b.reduce(&m));
        let (ea, eb) = (ctx.to_elem(&a), ctx.to_elem(&b));
        assert_eq!(ctx.retrieve(&ctx.sub(&ea, &eb)), ra.mod_sub(&rb, &m));
        assert_eq!(ctx.retrieve(&ctx.sub(&eb, &ea)), rb.mod_sub(&ra, &m));
        assert_eq!(ctx.retrieve(&ctx.sub(&ea, &ea)), Uint::ZERO);
        // The plain operand goes in as given: reduced inside if need be.
        assert_eq!(ctx.mul_plain(&a, &eb), ra.mod_mul(&rb, &m));
        assert_eq!(ctx.mul_plain(&ra, &eb), ra.mod_mul(&rb, &m));
        assert_eq!(ctx.mul_plain(&a, &ctx.one_elem()), ra);
    }

    /// `inv` element by element against `mod_inv_prime` (a zero residue is
    /// `None` on both sides), and `batch_inv` of the list against the
    /// element-wise inverses — `None` as soon as one of them is.
    fn check_inverses<const L: usize>(p: Uint<L>, values: &[Uint<L>]) {
        let ctx = MontgomeryCtx::new(&p).unwrap();
        let elems: Vec<MontyElem<L>> = values.iter().map(|v| ctx.to_elem(v)).collect();
        let singles: Vec<Option<MontyElem<L>>> = elems.iter().map(|e| ctx.inv(e)).collect();
        for (v, inv) in values.iter().zip(&singles) {
            assert_eq!(inv.map(|i| ctx.retrieve(&i)), v.mod_inv_prime(&p), "{v:?}");
        }
        assert_eq!(
            ctx.batch_inv(&elems),
            singles.into_iter().collect::<Option<Vec<_>>>()
        );
    }

    #[test]
    fn field_ops_edge_rows_match_plain_ladder() {
        let p = p25519();
        let p_minus_1 = p.wrapping_sub(&U256::ONE);
        for (a, b) in [
            (U256::ZERO, U256::ZERO),
            (U256::ZERO, p_minus_1),
            (p_minus_1, p_minus_1),
            (U256::ONE, p_minus_1),
            (p, U256::MAX), // both reduce first
            (U256::MAX, u256(2)),
        ] {
            check_field_ops(p, a, b);
        }
        // A modulus with the top bit set, so sums of representatives carry.
        check_field_ops(
            U256::MAX,
            U256::MAX.wrapping_sub(&U256::ONE),
            U256::MAX.shr(1),
        );
        check_field_ops(
            U2048::MAX,
            U2048::MAX.wrapping_sub(&U2048::ONE),
            U2048::MAX.shr(3),
        );
    }

    #[test]
    fn inverses_match_fermat_oracle() {
        let p = p25519();
        let p_minus_1 = p.wrapping_sub(&U256::ONE);
        let some = [
            U256::ONE,
            u256(2),
            p_minus_1,
            U256::MAX,
            u256(0xdead_beef),
            p.shr(1),
        ];
        check_inverses(p, &some);
        check_inverses(p, &some[..1]);
        check_inverses(p, &[]);
        // A zero anywhere — given as 0 or as p — turns the batch to `None`.
        check_inverses(p, &[U256::ZERO]);
        check_inverses(p, &[u256(5), U256::ZERO, u256(7)]);
        check_inverses(p, &[u256(5), u256(7), p]);
        let ctx = MontgomeryCtx::new(&p).unwrap();
        assert_eq!(ctx.inv(&ctx.to_elem(&U256::ZERO)), None);

        let wide = mersenne::<32>(1279); // a Mersenne prime, 20 limbs
        check_inverses(
            wide,
            &[
                U2048::ONE,
                U2048::MAX,
                wide.wrapping_sub(&U2048::ONE),
                U2048::from_u128(0x1234_5678_9abc_def0_1122_3344_5566_7788),
            ],
        );
        check_inverses(wide, &[U2048::from_u64(3), wide]);
    }

    /// Every tier this CPU runs, with a note (once) when the lane ladder
    /// is not among them: its cases then hold the scalar ladder to itself.
    fn pow_tiers() -> Vec<PowTier> {
        static NOTE: std::sync::Once = std::sync::Once::new();
        let tiers = PowTier::each();
        if !tiers.contains(&PowTier::Ifma) {
            NOTE.call_once(|| {
                eprintln!(
                    "AVX-512 IFMA not detected: the lane ladder's cases ran the scalar ladder"
                )
            });
        }
        tiers
    }

    /// `mod_pow_batch` in every tier, over every prefix of `bases` (one
    /// base, a part-filled chunk, a full one, a full one and a lone
    /// base …), against `want[i] = bases[i]^exp mod m` and the scalar
    /// `mod_pow`.
    fn check_batch(ctx: &MontgomeryCtx<4>, bases: &[U256], exp: &U256, want: &[U256]) {
        for tier in pow_tiers() {
            for n in 1..=bases.len() {
                let got = ctx.mod_pow_batch_on(tier, &bases[..n], exp);
                assert_eq!(got, want[..n], "{tier:?}, {n} bases, exp {exp:?}");
            }
            assert!(ctx.mod_pow_batch_on(tier, &[], exp).is_empty());
        }
        let scalar: Vec<U256> = bases.iter().map(|b| ctx.mod_pow(b, exp)).collect();
        assert_eq!(scalar, want);
    }

    /// The lane ladder's moduli: secp256k1's field prime (the DH group's),
    /// the prime 2²⁵⁶ − 189, a small odd one and one whose top limb is 1.
    fn lane_moduli() -> [U256; 4] {
        [
            U256::from_hex("FFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEFFFFFC2F")
                .unwrap(),
            U256::MAX.wrapping_sub(&u256(188)),
            u256(1_000_000_007),
            U256::from_limbs([0x9e37_79b9_7f4a_7c15, 0xdead_beef, 0x1234_5678, 1]),
        ]
    }

    #[test]
    fn lane_ladder_matches_naive_oracle_on_edge_rows() {
        for m in lane_moduli() {
            let ctx = MontgomeryCtx::new(&m).unwrap();
            assert!(ctx.radix52.is_some());
            let p_minus = |k: u64| m.wrapping_sub(&u256(k as u128));
            // Nine bases, so the last prefixes run a full chunk and a lone
            // base; the last three are ≥ p and reduce first.
            let bases = [
                U256::ZERO,
                U256::ONE,
                u256(2),
                p_minus(2),
                p_minus(1),
                u256(0x0123_4567_89ab_cdef_fedc_ba98_7654_3210),
                m,
                m.wrapping_add(&U256::ONE),
                U256::MAX,
            ];
            let exps = [
                U256::ZERO,
                U256::ONE,
                u256(2),
                p_minus(2),
                U256::ONE.overflowing_shl(255).0,
                U256::MAX,
                // Top windows holding one bit and two bits.
                u256(0x1f),
                U256::from_limbs([0xabc, 2, 0, 0]),
            ];
            for exp in &exps {
                let want: Vec<U256> = bases.iter().map(|b| b.mod_pow_naive(exp, &m)).collect();
                check_batch(&ctx, &bases, exp, &want);
            }
        }
    }

    #[test]
    fn lane_ladder_covers_modulus_one_and_three() {
        for m in [U256::ONE, u256(3)] {
            let ctx = MontgomeryCtx::new(&m).unwrap();
            let bases = [U256::ZERO, U256::ONE, u256(2), U256::MAX];
            for exp in [U256::ZERO, U256::ONE, U256::MAX] {
                let want: Vec<U256> = bases.iter().map(|b| b.mod_pow_naive(&exp, &m)).collect();
                check_batch(&ctx, &bases, &exp, &want);
            }
        }
    }

    #[test]
    fn radix52_round_trips_and_wider_contexts_have_no_lanes() {
        for x in [
            U256::ZERO,
            U256::MAX,
            U256::from_limbs([1 << 63, 1 << 11, 1 << 23, 1 << 35]),
        ] {
            let l = to_radix52(x.limbs());
            assert!(l.iter().all(|&limb| limb <= MASK52));
            assert_eq!(from_radix52(&l), *x.limbs());
        }
        let m = U2048::MAX.shr(1);
        let ctx = MontgomeryCtx::new(&m).unwrap();
        assert_eq!((ctx.radix52, ctx.batch_lanes()), (None, 1));
        let bases = [U2048::from_u64(3), U2048::from_u64(5)];
        assert_eq!(
            ctx.mod_pow_batch(&bases, &U2048::from_u64(77)),
            bases.map(|b| b.mod_pow_naive(&U2048::from_u64(77), &m))
        );
    }

    // A table costs ≈ 8 k products to build (32 × 255 at 4 limbs), and
    // the oracle a bit-serial reduction per exponent bit: few cases, many
    // exponents each.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn prop_fixed_base_matches_ladder_and_naive_4_limbs(
            m in proptest::collection::vec(any::<u64>(), 4),
            base in proptest::collection::vec(any::<u64>(), 4),
            exps in proptest::collection::vec(
                proptest::collection::vec(any::<u64>(), 4), 1..6),
            zeros in any::<u64>(),
        ) {
            let mut m = from_vec::<4>(&m);
            m.limbs[0] |= 1; // odd
            // Each exponent as drawn and with its own bytes cleared.
            let exps: Vec<U256> = (0..)
                .zip(&exps)
                .flat_map(|(i, e)| {
                    let e = from_vec(e);
                    [e, with_zero_bytes(e, zeros.rotate_left(7 * i))]
                })
                .collect();
            check_fixed_base(&m, &from_vec(&base), &exps, 2);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        #[test]
        fn prop_fixed_base_matches_ladder_32_limbs(
            m in proptest::collection::vec(any::<u64>(), 32),
            base in proptest::collection::vec(any::<u64>(), 32),
            exp in proptest::collection::vec(any::<u64>(), 32),
            zeros in any::<u64>(),
            short in any::<u64>(),
        ) {
            // Full-width exponents against the ladder (itself pinned to
            // the oracle at 32 limbs), a short one against the oracle.
            let mut m = from_vec::<32>(&m);
            m.limbs[0] |= 1; // odd
            let exp = from_vec(&exp);
            let exps = [U2048::from_u64(short), exp, with_zero_bytes(exp, zeros)];
            check_fixed_base(&m, &from_vec(&base), &exps, 1);
        }
    }

    /// `exp` with byte `i` cleared wherever bit `i mod 64` of `zeros` is
    /// set — whole zero digits at the positions of an 8-bit window.
    fn with_zero_bytes<const L: usize>(exp: Uint<L>, zeros: u64) -> Uint<L> {
        let mut limbs = *exp.limbs();
        for byte in 0..8 * L {
            if zeros >> (byte % 64) & 1 == 1 {
                limbs[byte / 8] &= !(0xff << (8 * (byte % 8)));
            }
        }
        Uint::from_limbs(limbs)
    }

    /// The fixed-base table's power of `base` against the ladder's for
    /// every exponent, and against the naive oracle's for the first
    /// `naive` (a bit-serial reduction per exponent bit).
    fn check_fixed_base<const L: usize>(
        m: &Uint<L>,
        base: &Uint<L>,
        exps: &[Uint<L>],
        naive: usize,
    ) {
        let ctx = MontgomeryCtx::new(m).unwrap();
        let elem = ctx.to_elem(base);
        let table = FixedBaseTable::new(&ctx, &elem);
        for (i, exp) in exps.iter().enumerate() {
            let got = ctx.retrieve(&table.pow(exp));
            assert_eq!(got, ctx.retrieve(&ctx.pow(&elem, exp)), "exp {exp:?}");
            if i < naive {
                assert_eq!(got, base.mod_pow_naive(exp, m), "exp {exp:?}");
            }
        }
    }

    /// 0, 1, 2, m − 2, m − 1, 2^BITS − 1, one nonzero byte at each end
    /// and in the middle, and alternate bytes cleared.
    fn edge_exponents<const L: usize>(m: &Uint<L>) -> Vec<Uint<L>> {
        let mut top = [0u64; L];
        top[L - 1] = 0xab << 56;
        let mut middle = [0u64; L];
        middle[L / 2] = 0xcd;
        vec![
            Uint::ZERO,
            Uint::ONE,
            Uint::from_u64(2),
            m.wrapping_sub(&Uint::from_u64(2)),
            m.wrapping_sub(&Uint::ONE),
            Uint::MAX,
            Uint::from_u64(0x7f),
            Uint::from_limbs(top),
            Uint::from_limbs(middle),
            with_zero_bytes(Uint::MAX, 0x5555_5555_5555_5555),
            with_zero_bytes(m.wrapping_sub(&Uint::from_u64(2)), 0xaaaa_aaaa_aaaa_aaaa),
        ]
    }

    #[test]
    fn fixed_base_window_follows_the_width() {
        assert_eq!(FixedBaseTable::<4>::WINDOW, 8);
        assert_eq!(FixedBaseTable::<8>::WINDOW, 8);
        assert_eq!(FixedBaseTable::<16>::WINDOW, 4);
        assert_eq!(FixedBaseTable::<32>::WINDOW, 2);
        let ctx = MontgomeryCtx::new(&p25519()).unwrap();
        let table = FixedBaseTable::new(&ctx, &ctx.to_elem(&u256(5)));
        assert_eq!(table.powers.len(), 32 * 255);
        assert!(table.powers.len() * 32 <= FIXED_BASE_BYTES);
    }

    #[test]
    fn fixed_base_matches_ladder_and_naive_at_edge_exponents() {
        let secp =
            U256::from_hex("FFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEFFFFFC2F")
                .unwrap();
        for m in [secp, p25519(), u256(1_000_003)] {
            for base in [u256(5), u256(2), m.wrapping_sub(&U256::ONE), U256::MAX] {
                let exps = edge_exponents(&m);
                check_fixed_base(&m, &base, &exps, exps.len());
            }
        }
    }

    #[test]
    fn fixed_base_matches_ladder_at_32_limbs() {
        // An odd 2048-bit modulus, 2^2048 − 159: every edge exponent
        // against the ladder, the short ones against the naive oracle
        // too (it pays a 2048-bit reduction per exponent bit).
        let m = mersenne::<32>(2048).wrapping_sub(&U2048::from_u64(158));
        let base = U2048::from_u64(2);
        let mut exps = edge_exponents(&m);
        exps.sort_by_key(Uint::highest_bit); // 0, 1, 2, 0x7f first
        check_fixed_base(&m, &base, &exps, 4);
    }

    proptest! {
        #[test]
        fn prop_lane_ladder_matches_scalar_and_naive(
            m in proptest::collection::vec(any::<u64>(), 4),
            exp in proptest::collection::vec(any::<u64>(), 4),
            bases in proptest::collection::vec(
                proptest::collection::vec(any::<u64>(), 4), 1..18),
        ) {
            let mut m = from_vec::<4>(&m);
            m.limbs[0] |= 1; // odd
            let exp = from_vec::<4>(&exp);
            let bases: Vec<U256> = bases.iter().map(|b| from_vec(b)).collect();
            let ctx = MontgomeryCtx::new(&m).unwrap();
            let scalar: Vec<U256> = bases.iter().map(|b| ctx.mod_pow(b, &exp)).collect();
            prop_assert_eq!(scalar[0], bases[0].mod_pow_naive(&exp, &m));
            for tier in pow_tiers() {
                prop_assert_eq!(&ctx.mod_pow_batch_on(tier, &bases, &exp), &scalar);
            }
        }

        #[test]
        fn prop_field_ops_match_plain_ladder_4_limbs(
            m in proptest::collection::vec(any::<u64>(), 4),
            a in proptest::collection::vec(any::<u64>(), 4),
            b in proptest::collection::vec(any::<u64>(), 4),
        ) {
            let mut m = from_vec::<4>(&m);
            m.limbs[0] |= 1; // odd
            check_field_ops(m, from_vec(&a), from_vec(&b));
        }

        #[test]
        fn prop_field_ops_match_plain_ladder_32_limbs(
            m in proptest::collection::vec(any::<u64>(), 32),
            a in proptest::collection::vec(any::<u64>(), 32),
            b in proptest::collection::vec(any::<u64>(), 32),
        ) {
            let mut m = from_vec::<32>(&m);
            m.limbs[0] |= 1; // odd
            check_field_ops(m, from_vec(&a), from_vec(&b));
        }

        #[test]
        fn prop_batch_inverse_matches_elementwise_4_limbs(
            values in proptest::collection::vec(
                proptest::collection::vec(any::<u64>(), 4), 0..12),
        ) {
            let p = p25519();
            let values: Vec<U256> = values.iter().map(|v| from_vec(v)).collect();
            check_inverses(p, &values);
        }

        #[test]
        fn prop_montgomery_matches_naive(
            base in any::<u64>(), exp in 0u64..10_000, m in any::<u64>()
        ) {
            let m = (m | 1).max(3); // odd, >= 3
            let ctx = MontgomeryCtx::new(&u256(m as u128)).unwrap();
            let fast = ctx.mod_pow(&u256(base as u128), &u256(exp as u128));
            // u128 reference implementation
            let mut r: u128 = 1;
            let mut b = base as u128 % m as u128;
            let mut e = exp;
            while e > 0 {
                if e & 1 == 1 {
                    r = r * b % m as u128;
                }
                b = b * b % m as u128;
                e >>= 1;
            }
            prop_assert_eq!(fast, u256(r));
        }

        #[test]
        fn prop_window_modpow_matches_naive_oracle_4_limbs(
            base in proptest::collection::vec(any::<u64>(), 4),
            exp in proptest::collection::vec(any::<u64>(), 4),
            m in proptest::collection::vec(any::<u64>(), 4),
        ) {
            // Full-width random (base, exp, odd modulus) at 4 limbs: the
            // fixed-window Montgomery ladder must be bit-identical to the
            // naive square-and-multiply oracle.
            let mut m_limbs = [0u64; 4];
            m_limbs.copy_from_slice(&m);
            m_limbs[0] |= 1; // odd
            let m = U256::from_limbs(m_limbs);
            let mut b_limbs = [0u64; 4];
            b_limbs.copy_from_slice(&base);
            let base = U256::from_limbs(b_limbs);
            let mut e_limbs = [0u64; 4];
            e_limbs.copy_from_slice(&exp);
            let exp = U256::from_limbs(e_limbs);
            let ctx = MontgomeryCtx::new(&m).unwrap();
            prop_assert_eq!(ctx.mod_pow(&base, &exp), base.mod_pow_naive(&exp, &m));
        }

        #[test]
        fn prop_window_modpow_matches_naive_oracle_32_limbs(
            base in proptest::collection::vec(any::<u64>(), 32),
            m in proptest::collection::vec(any::<u64>(), 32),
            exp in any::<u64>(),
        ) {
            // 32-limb width with a short exponent (the naive oracle costs
            // one 2048-bit binary reduction per exponent bit, so the
            // property stays testable in debug builds).
            let mut m_limbs = [0u64; 32];
            m_limbs.copy_from_slice(&m);
            m_limbs[0] |= 1; // odd
            let m = U2048::from_limbs(m_limbs);
            let mut b_limbs = [0u64; 32];
            b_limbs.copy_from_slice(&base);
            let base = U2048::from_limbs(b_limbs);
            let exp = U2048::from_u64(exp);
            let ctx = MontgomeryCtx::new(&m).unwrap();
            prop_assert_eq!(ctx.mod_pow(&base, &exp), base.mod_pow_naive(&exp, &m));
        }

        #[test]
        fn prop_add_sub_round_trip(a in any::<u128>(), b in any::<u128>()) {
            let (ua, ub) = (u256(a), u256(b));
            let sum = ua.wrapping_add(&ub);
            prop_assert_eq!(sum.wrapping_sub(&ub), ua);
        }

        #[test]
        fn prop_mul_matches_u128(a in any::<u64>(), b in any::<u64>()) {
            let prod = u256(a as u128).checked_mul(&u256(b as u128)).unwrap();
            prop_assert_eq!(prod, u256(a as u128 * b as u128));
        }

        #[test]
        fn prop_reduce_matches_u128(a in any::<u128>(), m in 1u128..=u64::MAX as u128) {
            prop_assert_eq!(u256(a).reduce(&u256(m)), u256(a % m));
        }

        #[test]
        fn prop_mod_add_sub_inverse(
            a in any::<u64>(), b in any::<u64>(), m in 2u64..=u64::MAX
        ) {
            let m256 = u256(m as u128);
            let ua = u256(a as u128).reduce(&m256);
            let ub = u256(b as u128).reduce(&m256);
            let s = ua.mod_add(&ub, &m256);
            prop_assert_eq!(s.mod_sub(&ub, &m256), ua);
        }

        #[test]
        fn prop_mod_pow_mul_law(
            base in 1u64..1000, e1 in 0u64..50, e2 in 0u64..50
        ) {
            // base^(e1+e2) == base^e1 * base^e2 (mod p)
            let p = u256(1_000_000_007);
            let b = u256(base as u128);
            let lhs = b.mod_pow(&u256((e1 + e2) as u128), &p);
            let rhs = b
                .mod_pow(&u256(e1 as u128), &p)
                .mod_mul(&b.mod_pow(&u256(e2 as u128), &p), &p);
            prop_assert_eq!(lhs, rhs);
        }

        #[test]
        fn prop_shl_shr_round_trip(v in any::<u64>(), n in 0u32..190) {
            let val = u256(v as u128);
            let (shifted, ov) = val.overflowing_shl(n);
            prop_assert!(!ov);
            prop_assert_eq!(shifted.shr(n), val);
        }

        #[test]
        fn prop_be_bytes_round_trip(a in any::<u128>(), b in any::<u128>()) {
            let v = U256::from_u128(a).wrapping_add(
                &U256::from_u128(b).overflowing_shl(128).0,
            );
            prop_assert_eq!(U256::from_be_bytes(&v.to_be_bytes()), v);
        }
    }
}
