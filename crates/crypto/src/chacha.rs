//! Deterministic ChaCha20 keystream generator (RFC 8439 block function).
//!
//! This is the `PRNG(·)` of the paper's Sect. IV-A1: given a seed derived
//! from a Diffie–Hellman pair key and a round number, it expands into the
//! mask vector added to (or subtracted from) a user's model update. It must
//! be *deterministic across machines* — every miner re-derives the same
//! masks when re-executing the contract — which is why the workspace does
//! not use `rand`'s unspecified `StdRng` algorithm here.

/// Deterministic ChaCha20-based pseudorandom generator.
#[derive(Clone)]
pub struct ChaChaPrg {
    key: [u32; 8],
    nonce: [u32; 3],
    counter: u32,
    block: [u8; 64],
    offset: usize,
}

const CHACHA_CONST: [u32; 4] = [0x61707865, 0x3320646e, 0x79622d32, 0x6b206574];

impl ChaChaPrg {
    /// Creates a generator from a 32-byte key and a 12-byte nonce.
    pub fn new(key: &[u8; 32], nonce: &[u8; 12]) -> Self {
        let mut k = [0u32; 8];
        for (i, chunk) in key.chunks_exact(4).enumerate() {
            k[i] = u32::from_le_bytes(chunk.try_into().expect("4-byte chunk"));
        }
        let mut n = [0u32; 3];
        for (i, chunk) in nonce.chunks_exact(4).enumerate() {
            n[i] = u32::from_le_bytes(chunk.try_into().expect("4-byte chunk"));
        }
        Self {
            key: k,
            nonce: n,
            counter: 0,
            block: [0u8; 64],
            offset: 64, // force a refill on first use
        }
    }

    /// Creates a generator from a 32-byte seed with a zero nonce.
    pub fn from_seed(seed: &[u8; 32]) -> Self {
        Self::new(seed, &[0u8; 12])
    }

    /// Produces the next pseudorandom `u64`.
    pub fn next_u64(&mut self) -> u64 {
        let mut bytes = [0u8; 8];
        self.fill_bytes(&mut bytes);
        u64::from_le_bytes(bytes)
    }

    /// Fills `out` with keystream bytes.
    ///
    /// Large requests (mask expansion fills `8 · dim` bytes at once) are
    /// served four blocks at a time through an interleaved-lane block
    /// function the compiler auto-vectorizes; the byte stream is
    /// identical to repeated single-block refills.
    pub fn fill_bytes(&mut self, out: &mut [u8]) {
        let mut written = 0;
        while written < out.len() {
            if self.offset == 64 {
                // Batched path: whole blocks straight into the output,
                // skipping the internal block buffer entirely.
                while out.len() - written >= 256 {
                    self.four_blocks(&mut out[written..written + 256]);
                    written += 256;
                }
                if written == out.len() {
                    return;
                }
                self.refill();
            }
            let take = (64 - self.offset).min(out.len() - written);
            out[written..written + take]
                .copy_from_slice(&self.block[self.offset..self.offset + take]);
            self.offset += take;
            written += take;
        }
    }

    /// Produces `n` pseudorandom `u64` values.
    ///
    /// Consumes whole 64-byte keystream blocks — four at a time through
    /// the interleaved block function, with the `u64`s assembled straight
    /// from the keystream words — instead of paying the per-call offset
    /// bookkeeping of `n` separate [`ChaChaPrg::next_u64`] draws; mask
    /// expansion calls this with `n = dim` for every pair every round.
    /// The output is identical to `n` successive `next_u64` calls.
    pub fn gen_u64_vec(&mut self, n: usize) -> Vec<u64> {
        let mut out = vec![0u64; n];
        let mut filled = 0usize;
        // Batched paths (widest first), valid only on a block boundary
        // (nothing buffered to drain first); then the scalar tail.
        if self.offset == 64 {
            filled = self.fill_u64_wide(&mut out, filled);
            while n - filled >= 32 {
                self.four_blocks_u64(&mut out[filled..filled + 32]);
                filled += 32;
            }
        }
        for slot in &mut out[filled..] {
            *slot = self.next_u64();
        }
        out
    }

    /// Uniform `u64` below `bound` via rejection sampling (no modulo bias).
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn next_u64_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        if bound.is_power_of_two() {
            return self.next_u64() & (bound - 1);
        }
        let zone = u64::MAX - (u64::MAX % bound);
        loop {
            let v = self.next_u64();
            if v < zone {
                return v % bound;
            }
        }
    }

    /// Computes keystream blocks `counter .. counter + 4` into `out`
    /// (256 bytes), advancing the counter. All sixteen state words are
    /// kept as 4-wide lanes (one lane per block) so every quarter-round
    /// operation is a 4-element loop the compiler turns into SIMD; the
    /// emitted bytes equal four sequential [`ChaChaPrg::refill`] blocks.
    fn four_blocks(&mut self, out: &mut [u8]) {
        debug_assert_eq!(out.len(), 256);
        let words = self.four_block_words();
        for (lane, block) in out.chunks_exact_mut(64).enumerate() {
            for (slot, word) in block.chunks_exact_mut(4).zip(&words) {
                slot.copy_from_slice(&word[lane].to_le_bytes());
            }
        }
    }

    /// Like [`ChaChaPrg::four_blocks`] but assembles the 256 keystream
    /// bytes directly as 32 little-endian `u64`s, skipping the byte
    /// buffer round trip.
    fn four_blocks_u64(&mut self, out: &mut [u64]) {
        debug_assert_eq!(out.len(), 32);
        let words = self.four_block_words();
        for (lane, block) in out.chunks_exact_mut(8).enumerate() {
            for (i, slot) in block.iter_mut().enumerate() {
                *slot = u64::from(words[2 * i][lane]) | (u64::from(words[2 * i + 1][lane]) << 32);
            }
        }
    }

    /// Computes keystream blocks `counter .. counter + 4` as sixteen
    /// 4-lane words (lane = block index), advancing the counter.
    fn four_block_words(&mut self) -> [[u32; 4]; 16] {
        debug_assert_eq!(self.offset, 64, "no buffered bytes may be skipped");
        let counter_end = self
            .counter
            .checked_add(4)
            .expect("ChaCha20 keystream exhausted (2^38 bytes)");
        let words = simd::block_words4(&self.key, &self.nonce, self.counter);
        self.counter = counter_end;
        words
    }

    /// AVX2 path: keystream blocks `counter .. counter + 8` assembled as
    /// 64 little-endian `u64`s. Only called after
    /// [`simd::wide_available`] returned `true`.
    #[cfg(target_arch = "x86_64")]
    fn eight_blocks_u64(&mut self, out: &mut [u64]) {
        debug_assert_eq!(out.len(), 64);
        debug_assert_eq!(self.offset, 64, "no buffered bytes may be skipped");
        let counter_end = self
            .counter
            .checked_add(8)
            .expect("ChaCha20 keystream exhausted (2^38 bytes)");
        let words = simd::block_words8(&self.key, &self.nonce, self.counter);
        self.counter = counter_end;
        for (lane, block) in out.chunks_exact_mut(8).enumerate() {
            for (i, slot) in block.iter_mut().enumerate() {
                *slot = u64::from(words[2 * i][lane]) | (u64::from(words[2 * i + 1][lane]) << 32);
            }
        }
    }

    /// Drains as many wide (AVX2 eight-block) batches into `out[filled..]`
    /// as fit, returning the new fill mark. No-op off x86-64 or when the
    /// CPU lacks AVX2 — the four-block path picks up from there.
    fn fill_u64_wide(&mut self, out: &mut [u64], filled: usize) -> usize {
        #[cfg(target_arch = "x86_64")]
        {
            let mut filled = filled;
            if simd::wide_available() {
                while out.len() - filled >= 64 {
                    self.eight_blocks_u64(&mut out[filled..filled + 64]);
                    filled += 64;
                }
            }
            filled
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            let _ = out;
            filled
        }
    }

    fn refill(&mut self) {
        let mut state = [0u32; 16];
        state[..4].copy_from_slice(&CHACHA_CONST);
        state[4..12].copy_from_slice(&self.key);
        state[12] = self.counter;
        state[13..16].copy_from_slice(&self.nonce);

        let mut working = state;
        for _ in 0..10 {
            // column rounds
            quarter_round(&mut working, 0, 4, 8, 12);
            quarter_round(&mut working, 1, 5, 9, 13);
            quarter_round(&mut working, 2, 6, 10, 14);
            quarter_round(&mut working, 3, 7, 11, 15);
            // diagonal rounds
            quarter_round(&mut working, 0, 5, 10, 15);
            quarter_round(&mut working, 1, 6, 11, 12);
            quarter_round(&mut working, 2, 7, 8, 13);
            quarter_round(&mut working, 3, 4, 9, 14);
        }
        for (w, s) in working.iter_mut().zip(&state) {
            *w = w.wrapping_add(*s);
        }
        for (i, word) in working.iter().enumerate() {
            self.block[4 * i..4 * i + 4].copy_from_slice(&word.to_le_bytes());
        }
        self.counter = self
            .counter
            .checked_add(1)
            .expect("ChaCha20 keystream exhausted (2^38 bytes)");
        self.offset = 0;
    }
}

/// Multi-block ChaCha20 backends.
///
/// All backends compute the same function — keystream blocks
/// `counter .. counter + LANES` as sixteen LANES-wide words — and the
/// unit tests pin them against the scalar RFC 8439 path, so backend
/// selection can never change a single keystream byte.
mod simd {
    #[cfg(target_arch = "aarch64")]
    pub(super) use neon::block_words4;
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    pub(super) use portable::block_words4;
    #[cfg(target_arch = "x86_64")]
    pub(super) use x86::{block_words4, block_words8, wide_available};

    #[cfg_attr(any(target_arch = "x86_64", target_arch = "aarch64"), allow(dead_code))]
    mod portable {
        use super::super::CHACHA_CONST;

        /// 4-lane rotate-left.
        #[inline(always)]
        fn rotl(v: [u32; 4], n: u32) -> [u32; 4] {
            [
                v[0].rotate_left(n),
                v[1].rotate_left(n),
                v[2].rotate_left(n),
                v[3].rotate_left(n),
            ]
        }

        /// 4-lane wrapping add.
        #[inline(always)]
        fn add(a: [u32; 4], b: [u32; 4]) -> [u32; 4] {
            [
                a[0].wrapping_add(b[0]),
                a[1].wrapping_add(b[1]),
                a[2].wrapping_add(b[2]),
                a[3].wrapping_add(b[3]),
            ]
        }

        /// 4-lane xor.
        #[inline(always)]
        fn xor(a: [u32; 4], b: [u32; 4]) -> [u32; 4] {
            [a[0] ^ b[0], a[1] ^ b[1], a[2] ^ b[2], a[3] ^ b[3]]
        }

        /// Four interleaved blocks with plain array arithmetic; the
        /// sixteen state words are named locals so they stay in
        /// registers across the round loop.
        pub(in super::super) fn block_words4(
            key: &[u32; 8],
            nonce: &[u32; 3],
            counter: u32,
        ) -> [[u32; 4]; 16] {
            macro_rules! init {
                ($($x:ident = $w:expr;)*) => { $(let mut $x = [$w; 4];)* };
            }
            init! {
                x0 = CHACHA_CONST[0]; x1 = CHACHA_CONST[1];
                x2 = CHACHA_CONST[2]; x3 = CHACHA_CONST[3];
                x4 = key[0]; x5 = key[1]; x6 = key[2]; x7 = key[3];
                x8 = key[4]; x9 = key[5]; x10 = key[6]; x11 = key[7];
                x13 = nonce[0]; x14 = nonce[1]; x15 = nonce[2];
            }
            let mut x12 = [counter, counter + 1, counter + 2, counter + 3];
            let init12 = x12;

            macro_rules! quarter {
                ($a:ident, $b:ident, $c:ident, $d:ident) => {
                    $a = add($a, $b);
                    $d = rotl(xor($d, $a), 16);
                    $c = add($c, $d);
                    $b = rotl(xor($b, $c), 12);
                    $a = add($a, $b);
                    $d = rotl(xor($d, $a), 8);
                    $c = add($c, $d);
                    $b = rotl(xor($b, $c), 7);
                };
            }
            for _ in 0..10 {
                // column rounds
                quarter!(x0, x4, x8, x12);
                quarter!(x1, x5, x9, x13);
                quarter!(x2, x6, x10, x14);
                quarter!(x3, x7, x11, x15);
                // diagonal rounds
                quarter!(x0, x5, x10, x15);
                quarter!(x1, x6, x11, x12);
                quarter!(x2, x7, x8, x13);
                quarter!(x3, x4, x9, x14);
            }

            [
                add(x0, [CHACHA_CONST[0]; 4]),
                add(x1, [CHACHA_CONST[1]; 4]),
                add(x2, [CHACHA_CONST[2]; 4]),
                add(x3, [CHACHA_CONST[3]; 4]),
                add(x4, [key[0]; 4]),
                add(x5, [key[1]; 4]),
                add(x6, [key[2]; 4]),
                add(x7, [key[3]; 4]),
                add(x8, [key[4]; 4]),
                add(x9, [key[5]; 4]),
                add(x10, [key[6]; 4]),
                add(x11, [key[7]; 4]),
                add(x12, init12),
                add(x13, [nonce[0]; 4]),
                add(x14, [nonce[1]; 4]),
                add(x15, [nonce[2]; 4]),
            ]
        }
    }

    /// NEON backend: four interleaved blocks over the 128-bit
    /// `uint32x4_t` lanes. NEON (Advanced SIMD) is part of the aarch64
    /// baseline — every AArch64 CPU this code can run on has it — so,
    /// like the SSE2 path on x86-64, no runtime detection is needed. The
    /// backend-equality test below pins it word-for-word against the
    /// portable path, so backend selection can never change a keystream
    /// byte.
    #[cfg(target_arch = "aarch64")]
    #[allow(unsafe_code)]
    mod neon {
        use core::arch::aarch64::{
            uint32x4_t, vaddq_u32, vdupq_n_u32, veorq_u32, vld1q_u32, vorrq_u32, vshlq_n_u32,
            vshrq_n_u32, vst1q_u32,
        };

        use super::super::CHACHA_CONST;

        /// Four interleaved blocks over NEON.
        pub(in super::super) fn block_words4(
            key: &[u32; 8],
            nonce: &[u32; 3],
            counter: u32,
        ) -> [[u32; 4]; 16] {
            // SAFETY: every intrinsic used is Advanced SIMD (NEON),
            // which the aarch64 ABI guarantees on every CPU this code
            // can run on; loads/stores go through `vld1q_u32`/
            // `vst1q_u32` (no alignment requirement) on properly sized
            // `[u32; 4]` arrays.
            unsafe {
                let splat = |w: u32| vdupq_n_u32(w);
                let counters = [counter, counter + 1, counter + 2, counter + 3];
                let mut v: [uint32x4_t; 16] = [
                    splat(CHACHA_CONST[0]),
                    splat(CHACHA_CONST[1]),
                    splat(CHACHA_CONST[2]),
                    splat(CHACHA_CONST[3]),
                    splat(key[0]),
                    splat(key[1]),
                    splat(key[2]),
                    splat(key[3]),
                    splat(key[4]),
                    splat(key[5]),
                    splat(key[6]),
                    splat(key[7]),
                    vld1q_u32(counters.as_ptr()),
                    splat(nonce[0]),
                    splat(nonce[1]),
                    splat(nonce[2]),
                ];
                let init = v;

                macro_rules! rotl {
                    ($x:expr, $n:literal) => {
                        vorrq_u32(vshlq_n_u32::<$n>($x), vshrq_n_u32::<{ 32 - $n }>($x))
                    };
                }
                macro_rules! quarter {
                    ($a:literal, $b:literal, $c:literal, $d:literal) => {
                        v[$a] = vaddq_u32(v[$a], v[$b]);
                        v[$d] = rotl!(veorq_u32(v[$d], v[$a]), 16);
                        v[$c] = vaddq_u32(v[$c], v[$d]);
                        v[$b] = rotl!(veorq_u32(v[$b], v[$c]), 12);
                        v[$a] = vaddq_u32(v[$a], v[$b]);
                        v[$d] = rotl!(veorq_u32(v[$d], v[$a]), 8);
                        v[$c] = vaddq_u32(v[$c], v[$d]);
                        v[$b] = rotl!(veorq_u32(v[$b], v[$c]), 7);
                    };
                }
                for _ in 0..10 {
                    // column rounds
                    quarter!(0, 4, 8, 12);
                    quarter!(1, 5, 9, 13);
                    quarter!(2, 6, 10, 14);
                    quarter!(3, 7, 11, 15);
                    // diagonal rounds
                    quarter!(0, 5, 10, 15);
                    quarter!(1, 6, 11, 12);
                    quarter!(2, 7, 8, 13);
                    quarter!(3, 4, 9, 14);
                }

                let mut out = [[0u32; 4]; 16];
                for i in 0..16 {
                    let word = vaddq_u32(v[i], init[i]);
                    vst1q_u32(out[i].as_mut_ptr(), word);
                }
                out
            }
        }

        #[cfg(test)]
        mod tests {
            use super::*;

            #[test]
            fn neon_matches_portable() {
                let key: [u32; 8] = core::array::from_fn(|i| (i as u32 + 1) * 0x1234_5679);
                let nonce = [7u32, 11, 13];
                for counter in [0u32, 1, 1000] {
                    assert_eq!(
                        block_words4(&key, &nonce, counter),
                        super::super::portable::block_words4(&key, &nonce, counter),
                    );
                }
            }
        }
    }

    /// Explicit-SIMD backends. The auto-vectorizer refuses the 4-lane
    /// array form of the round loop (64 live `u32`s spill through the
    /// sixteen general-purpose registers), so the rounds are written
    /// with `core::arch` intrinsics — the `unsafe` that takes is scoped
    /// to this module and pinned byte-for-byte against the scalar path
    /// by the keystream tests.
    #[cfg(target_arch = "x86_64")]
    #[allow(unsafe_code)]
    mod x86 {
        use core::arch::x86_64::{
            __m128i, __m256i, _mm256_add_epi32, _mm256_or_si256, _mm256_setr_epi32,
            _mm256_slli_epi32, _mm256_srli_epi32, _mm256_storeu_si256, _mm256_xor_si256,
            _mm_add_epi32, _mm_or_si128, _mm_setr_epi32, _mm_slli_epi32, _mm_srli_epi32,
            _mm_storeu_si128, _mm_xor_si128,
        };
        use std::sync::OnceLock;

        use super::super::CHACHA_CONST;

        /// True when the CPU supports the eight-block AVX2 path.
        pub(in super::super) fn wide_available() -> bool {
            static AVX2: OnceLock<bool> = OnceLock::new();
            *AVX2.get_or_init(|| std::arch::is_x86_feature_detected!("avx2"))
        }

        /// Four interleaved blocks over SSE2 (part of the x86-64
        /// baseline, so this path needs no runtime detection).
        pub(in super::super) fn block_words4(
            key: &[u32; 8],
            nonce: &[u32; 3],
            counter: u32,
        ) -> [[u32; 4]; 16] {
            // SAFETY: every intrinsic used is SSE2, which the x86-64
            // psABI guarantees on every CPU this code can run on; the
            // stores go through `_mm_storeu_si128` (no alignment
            // requirement) into a properly sized `[[u32; 4]; 16]`.
            unsafe {
                let splat = |w: u32| _mm_setr_epi32(w as i32, w as i32, w as i32, w as i32);
                let mut v: [__m128i; 16] = [
                    splat(CHACHA_CONST[0]),
                    splat(CHACHA_CONST[1]),
                    splat(CHACHA_CONST[2]),
                    splat(CHACHA_CONST[3]),
                    splat(key[0]),
                    splat(key[1]),
                    splat(key[2]),
                    splat(key[3]),
                    splat(key[4]),
                    splat(key[5]),
                    splat(key[6]),
                    splat(key[7]),
                    _mm_setr_epi32(
                        counter as i32,
                        (counter + 1) as i32,
                        (counter + 2) as i32,
                        (counter + 3) as i32,
                    ),
                    splat(nonce[0]),
                    splat(nonce[1]),
                    splat(nonce[2]),
                ];
                let init = v;

                macro_rules! rotl {
                    ($x:expr, $n:literal) => {
                        _mm_or_si128(_mm_slli_epi32::<$n>($x), _mm_srli_epi32::<{ 32 - $n }>($x))
                    };
                }
                macro_rules! quarter {
                    ($a:literal, $b:literal, $c:literal, $d:literal) => {
                        v[$a] = _mm_add_epi32(v[$a], v[$b]);
                        v[$d] = rotl!(_mm_xor_si128(v[$d], v[$a]), 16);
                        v[$c] = _mm_add_epi32(v[$c], v[$d]);
                        v[$b] = rotl!(_mm_xor_si128(v[$b], v[$c]), 12);
                        v[$a] = _mm_add_epi32(v[$a], v[$b]);
                        v[$d] = rotl!(_mm_xor_si128(v[$d], v[$a]), 8);
                        v[$c] = _mm_add_epi32(v[$c], v[$d]);
                        v[$b] = rotl!(_mm_xor_si128(v[$b], v[$c]), 7);
                    };
                }
                for _ in 0..10 {
                    // column rounds
                    quarter!(0, 4, 8, 12);
                    quarter!(1, 5, 9, 13);
                    quarter!(2, 6, 10, 14);
                    quarter!(3, 7, 11, 15);
                    // diagonal rounds
                    quarter!(0, 5, 10, 15);
                    quarter!(1, 6, 11, 12);
                    quarter!(2, 7, 8, 13);
                    quarter!(3, 4, 9, 14);
                }

                let mut out = [[0u32; 4]; 16];
                for i in 0..16 {
                    let word = _mm_add_epi32(v[i], init[i]);
                    _mm_storeu_si128(out[i].as_mut_ptr().cast::<__m128i>(), word);
                }
                out
            }
        }

        /// Eight interleaved blocks over AVX2. Callers must check
        /// [`wide_available`] first.
        pub(in super::super) fn block_words8(
            key: &[u32; 8],
            nonce: &[u32; 3],
            counter: u32,
        ) -> [[u32; 8]; 16] {
            assert!(wide_available(), "AVX2 path called without support");
            // SAFETY: `wide_available` verified AVX2 at runtime, and the
            // stores go through `_mm256_storeu_si256` (no alignment
            // requirement) into a properly sized `[[u32; 8]; 16]`.
            unsafe { block_words8_avx2(key, nonce, counter) }
        }

        #[target_feature(enable = "avx2")]
        unsafe fn block_words8_avx2(
            key: &[u32; 8],
            nonce: &[u32; 3],
            counter: u32,
        ) -> [[u32; 8]; 16] {
            let splat = |w: u32| {
                let w = w as i32;
                _mm256_setr_epi32(w, w, w, w, w, w, w, w)
            };
            let mut v: [__m256i; 16] = [
                splat(CHACHA_CONST[0]),
                splat(CHACHA_CONST[1]),
                splat(CHACHA_CONST[2]),
                splat(CHACHA_CONST[3]),
                splat(key[0]),
                splat(key[1]),
                splat(key[2]),
                splat(key[3]),
                splat(key[4]),
                splat(key[5]),
                splat(key[6]),
                splat(key[7]),
                _mm256_setr_epi32(
                    counter as i32,
                    (counter + 1) as i32,
                    (counter + 2) as i32,
                    (counter + 3) as i32,
                    (counter + 4) as i32,
                    (counter + 5) as i32,
                    (counter + 6) as i32,
                    (counter + 7) as i32,
                ),
                splat(nonce[0]),
                splat(nonce[1]),
                splat(nonce[2]),
            ];
            let init = v;

            macro_rules! rotl {
                ($x:expr, $n:literal) => {
                    _mm256_or_si256(
                        _mm256_slli_epi32::<$n>($x),
                        _mm256_srli_epi32::<{ 32 - $n }>($x),
                    )
                };
            }
            macro_rules! quarter {
                ($a:literal, $b:literal, $c:literal, $d:literal) => {
                    v[$a] = _mm256_add_epi32(v[$a], v[$b]);
                    v[$d] = rotl!(_mm256_xor_si256(v[$d], v[$a]), 16);
                    v[$c] = _mm256_add_epi32(v[$c], v[$d]);
                    v[$b] = rotl!(_mm256_xor_si256(v[$b], v[$c]), 12);
                    v[$a] = _mm256_add_epi32(v[$a], v[$b]);
                    v[$d] = rotl!(_mm256_xor_si256(v[$d], v[$a]), 8);
                    v[$c] = _mm256_add_epi32(v[$c], v[$d]);
                    v[$b] = rotl!(_mm256_xor_si256(v[$b], v[$c]), 7);
                };
            }
            for _ in 0..10 {
                // column rounds
                quarter!(0, 4, 8, 12);
                quarter!(1, 5, 9, 13);
                quarter!(2, 6, 10, 14);
                quarter!(3, 7, 11, 15);
                // diagonal rounds
                quarter!(0, 5, 10, 15);
                quarter!(1, 6, 11, 12);
                quarter!(2, 7, 8, 13);
                quarter!(3, 4, 9, 14);
            }

            let mut out = [[0u32; 8]; 16];
            for i in 0..16 {
                let word = _mm256_add_epi32(v[i], init[i]);
                _mm256_storeu_si256(out[i].as_mut_ptr().cast::<__m256i>(), word);
            }
            out
        }

        #[cfg(test)]
        mod tests {
            use super::*;

            #[test]
            fn sse2_matches_portable() {
                let key: [u32; 8] = core::array::from_fn(|i| (i as u32 + 1) * 0x1234_5679);
                let nonce = [7u32, 11, 13];
                for counter in [0u32, 1, 1000] {
                    assert_eq!(
                        block_words4(&key, &nonce, counter),
                        super::super::portable::block_words4(&key, &nonce, counter),
                    );
                }
            }

            #[test]
            fn avx2_matches_sse2_when_available() {
                if !wide_available() {
                    return;
                }
                let key: [u32; 8] = core::array::from_fn(|i| (i as u32).wrapping_mul(0x9e37_79b9));
                let nonce = [3u32, 1, 4];
                let wide = block_words8(&key, &nonce, 40);
                let lo = block_words4(&key, &nonce, 40);
                let hi = block_words4(&key, &nonce, 44);
                for i in 0..16 {
                    assert_eq!(wide[i][..4], lo[i]);
                    assert_eq!(wide[i][4..], hi[i]);
                }
            }
        }
    }
}

#[inline]
fn quarter_round(s: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(16);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(12);
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(8);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(7);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// RFC 8439 §2.3.2 test vector: key 00..1f, nonce 000000090000004a00000000,
    /// counter 1 — first block keystream.
    #[test]
    fn rfc8439_block_vector() {
        let key: [u8; 32] = core::array::from_fn(|i| i as u8);
        let nonce: [u8; 12] = [
            0x00, 0x00, 0x00, 0x09, 0x00, 0x00, 0x00, 0x4a, 0x00, 0x00, 0x00, 0x00,
        ];
        let mut prg = ChaChaPrg::new(&key, &nonce);
        prg.counter = 1; // the RFC vector starts at block counter 1
        let mut out = [0u8; 64];
        prg.fill_bytes(&mut out);
        let expected: [u8; 64] = [
            0x10, 0xf1, 0xe7, 0xe4, 0xd1, 0x3b, 0x59, 0x15, 0x50, 0x0f, 0xdd, 0x1f, 0xa3, 0x20,
            0x71, 0xc4, 0xc7, 0xd1, 0xf4, 0xc7, 0x33, 0xc0, 0x68, 0x03, 0x04, 0x22, 0xaa, 0x9a,
            0xc3, 0xd4, 0x6c, 0x4e, 0xd2, 0x82, 0x64, 0x46, 0x07, 0x9f, 0xaa, 0x09, 0x14, 0xc2,
            0xd7, 0x05, 0xd9, 0x8b, 0x02, 0xa2, 0xb5, 0x12, 0x9c, 0xd1, 0xde, 0x16, 0x4e, 0xb9,
            0xcb, 0xd0, 0x83, 0xe8, 0xa2, 0x50, 0x3c, 0x4e,
        ];
        assert_eq!(out, expected);
    }

    #[test]
    fn deterministic_across_instances() {
        let seed = [7u8; 32];
        let mut a = ChaChaPrg::from_seed(&seed);
        let mut b = ChaChaPrg::from_seed(&seed);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = ChaChaPrg::from_seed(&[1u8; 32]);
        let mut b = ChaChaPrg::from_seed(&[2u8; 32]);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn fill_bytes_chunking_invariant() {
        // 1000 bytes crosses the 256-byte four-block fast path in the
        // whole-buffer fill; the pieces include sub-block, block-aligned,
        // and straddling sizes. All splits must yield one stream.
        let seed = [9u8; 32];
        let mut whole = ChaChaPrg::from_seed(&seed);
        let mut buf_whole = [0u8; 1000];
        whole.fill_bytes(&mut buf_whole);

        let mut pieces = ChaChaPrg::from_seed(&seed);
        let mut buf_pieces = [0u8; 1000];
        let mut written = 0;
        for chunk in [1usize, 5, 63, 64, 67, 256, 300, 244] {
            pieces.fill_bytes(&mut buf_pieces[written..written + chunk]);
            written += chunk;
        }
        assert_eq!(written, 1000);
        assert_eq!(buf_whole, buf_pieces);
    }

    #[test]
    fn gen_u64_vec_matches_next_u64_stream() {
        // The block-filled fast path must produce the identical stream to
        // per-u64 draws (and leave the generator in the identical state).
        let seed = [11u8; 32];
        let mut fast = ChaChaPrg::from_seed(&seed);
        let mut slow = ChaChaPrg::from_seed(&seed);
        for n in [0usize, 1, 7, 8, 9, 100, 650] {
            let v_fast = fast.gen_u64_vec(n);
            let v_slow: Vec<u64> = (0..n).map(|_| slow.next_u64()).collect();
            assert_eq!(v_fast, v_slow, "n={n}");
        }
        assert_eq!(fast.next_u64(), slow.next_u64(), "states must stay in sync");
    }

    #[test]
    fn bounded_sampling_in_range() {
        let mut prg = ChaChaPrg::from_seed(&[3u8; 32]);
        for bound in [1u64, 2, 7, 100, 1 << 33] {
            for _ in 0..50 {
                assert!(prg.next_u64_below(bound) < bound);
            }
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_bound_panics() {
        ChaChaPrg::from_seed(&[0u8; 32]).next_u64_below(0);
    }

    #[test]
    fn bounded_sampling_roughly_uniform() {
        let mut prg = ChaChaPrg::from_seed(&[5u8; 32]);
        let mut counts = [0usize; 4];
        for _ in 0..4000 {
            counts[prg.next_u64_below(4) as usize] += 1;
        }
        for &c in &counts {
            assert!(
                (800..1200).contains(&c),
                "bucket count {c} outside [800,1200]"
            );
        }
    }
}
