//! SHA-256 (FIPS 180-4).
//!
//! Used as the digest for blockchain transactions and blocks and as the
//! compression core of [`crate::hmac`]. Implemented from scratch because
//! the offline dependency set carries no hash crate; validated against the
//! official NIST test vectors in the unit tests below.
//!
//! Every digest goes through one block-run entry, `compress`, which
//! picks its backend from what the CPU reports — no option selects it.

/// Output size of SHA-256 in bytes.
pub const DIGEST_LEN: usize = 32;

/// A 32-byte SHA-256 digest.
pub type Digest = [u8; DIGEST_LEN];

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffer_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Self {
            state: H0,
            buffer: [0u8; 64],
            buffer_len: 0,
            total_len: 0,
        }
    }

    /// Feeds `data` into the hasher.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self
            .total_len
            .checked_add(data.len() as u64)
            .expect("SHA-256 input exceeds 2^64 bits");
        let mut input = data;
        if self.buffer_len > 0 {
            let take = (64 - self.buffer_len).min(input.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&input[..take]);
            self.buffer_len += take;
            input = &input[take..];
            if self.buffer_len < 64 {
                return;
            }
            compress(&mut self.state, std::slice::from_ref(&self.buffer));
            self.buffer_len = 0;
        }
        // Every whole block of the call is compressed straight from the
        // input as one run; only the tail is staged.
        let (blocks, tail) = input.as_chunks::<64>();
        compress(&mut self.state, blocks);
        self.buffer[..tail.len()].copy_from_slice(tail);
        self.buffer_len = tail.len();
    }

    /// Finishes the hash and returns the digest.
    pub fn finalize(mut self) -> Digest {
        let bit_len = self.total_len * 8;
        // Padding in one step: 0x80, zeros to 56 mod 64, the 64-bit
        // length — one block when the tail leaves room for the length
        // (at most 55 buffered bytes), two otherwise, compressed as one
        // run.
        let mut pad = [[0u8; 64]; 2];
        pad[0][..self.buffer_len].copy_from_slice(&self.buffer[..self.buffer_len]);
        pad[0][self.buffer_len] = 0x80;
        let blocks = if self.buffer_len < 56 { 1 } else { 2 };
        pad[blocks - 1][56..].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut self.state, &pad[..blocks]);
        let mut out = [0u8; DIGEST_LEN];
        for (i, word) in self.state.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// Folds a run of whole blocks into `state` — the one compression entry
/// under every digest. The backend is chosen once per run from what the
/// CPU reports: the SHA extensions where `x86::compress` finds them,
/// the scalar rounds everywhere else. Both compute FIPS 180-4 §6.2.2 and
/// the tests pin them to each other word for word, so the choice can
/// never move a digest.
fn compress(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
    // An `update` that only staged bytes has no run; skip the dispatch
    // and the state's trip through the backend's registers.
    if blocks.is_empty() {
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if x86::compress(state, blocks) {
        return;
    }
    compress_scalar(state, blocks);
}

/// The portable rounds, and the oracle for `x86::compress`.
fn compress_scalar(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
    for block in blocks {
        let mut w = [0u32; 64];
        for (word, bytes) in w.iter_mut().zip(block.as_chunks::<4>().0) {
            *word = u32::from_be_bytes(*bytes);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }

        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }

        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

/// The rounds on the x86 SHA extensions (`sha256rnds2` / `sha256msg1` /
/// `sha256msg2`): two rounds an instruction, the message schedule four
/// words an instruction, the state resident in two registers across a
/// whole run of blocks. The second `#[allow(unsafe_code)]` module of the
/// crate, beside `chacha::simd` — `core::arch` has no safe spelling for
/// calling a `#[target_feature]` function or for an unaligned vector
/// load.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod x86 {
    use core::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi64x,
        _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
        _mm_shuffle_epi8, _mm_storeu_si128,
    };
    use std::sync::OnceLock;

    use super::K;

    /// True when the CPU reports the SHA extensions and the SSSE3 /
    /// SSE4.1 shuffles the state layout needs.
    pub(super) fn available() -> bool {
        static SHA: OnceLock<bool> = OnceLock::new();
        *SHA.get_or_init(|| {
            std::arch::is_x86_feature_detected!("sha")
                && std::arch::is_x86_feature_detected!("ssse3")
                && std::arch::is_x86_feature_detected!("sse4.1")
        })
    }

    /// Folds `blocks` into `state` and returns `true`, or returns `false`
    /// with `state` untouched when the extensions are not [`available`].
    pub(super) fn compress(state: &mut [u32; 8], blocks: &[[u8; 64]]) -> bool {
        if !available() {
            return false;
        }
        // SAFETY: `available` verified SHA, SSSE3 and SSE4.1 at runtime
        // (SSE2 is part of the x86-64 baseline), which is everything
        // `compress_sha_ni` enables.
        unsafe { compress_sha_ni(state, blocks) };
        true
    }

    /// Unaligned load of `bytes[at..at + 16]`.
    #[inline]
    fn load_bytes(bytes: &[u8], at: usize) -> __m128i {
        let from = &bytes[at..at + 16];
        // SAFETY: the range index proved 16 readable bytes at `from`, and
        // `_mm_loadu_si128` has no alignment requirement; SSE2 is part of
        // the x86-64 baseline.
        unsafe { _mm_loadu_si128(from.as_ptr().cast::<__m128i>()) }
    }

    /// Unaligned load of `words[at..at + 4]`, the first in the lowest
    /// lane.
    #[inline]
    fn load_words(words: &[u32], at: usize) -> __m128i {
        let from = &words[at..at + 4];
        // SAFETY: as `load_bytes` — the range index proved 16 readable
        // bytes, no alignment requirement, baseline SSE2.
        unsafe { _mm_loadu_si128(from.as_ptr().cast::<__m128i>()) }
    }

    /// Unaligned store to `words[at..at + 4]`, the lowest lane first.
    #[inline]
    fn store_words(words: &mut [u32], at: usize, v: __m128i) {
        let to = &mut words[at..at + 4];
        // SAFETY: the range index proved 16 writable bytes at `to`, and
        // `_mm_storeu_si128` has no alignment requirement; baseline SSE2.
        unsafe { _mm_storeu_si128(to.as_mut_ptr().cast::<__m128i>(), v) }
    }

    /// # Safety
    ///
    /// The CPU must support every feature enabled below. Memory is only
    /// touched through the three helpers above; everything else is
    /// register-to-register.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    unsafe fn compress_sha_ni(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
        // Big-endian words out of the message bytes.
        let byte_swap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);

        // [a b c d] [e f g h] → the ABEF / CDGH halves `sha256rnds2`
        // works on (lanes listed high to low).
        let cdab = _mm_shuffle_epi32::<0xB1>(load_words(state, 0));
        let efgh = _mm_shuffle_epi32::<0x1B>(load_words(state, 4));
        let mut abef = _mm_alignr_epi8::<8>(cdab, efgh);
        let mut cdgh = _mm_blend_epi16::<0xF0>(efgh, cdab);

        // Rounds 4 i .. 4 i + 4 over schedule words 4 i .. 4 i + 4.
        macro_rules! rounds4 {
            ($w:expr, $i:expr) => {
                let wk = _mm_add_epi32($w, load_words(&K, 4 * $i));
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32::<0x0E>(wk));
            };
        }
        // The next four schedule words over the four before them,
        // oldest first, written over the oldest.
        macro_rules! schedule {
            ($w0:ident, $w1:ident, $w2:ident, $w3:ident) => {
                let sigma0 = _mm_sha256msg1_epu32($w0, $w1);
                let with_w7 = _mm_add_epi32(sigma0, _mm_alignr_epi8::<4>($w3, $w2));
                $w0 = _mm_sha256msg2_epu32(with_w7, $w3);
            };
        }

        for block in blocks {
            let (abef_in, cdgh_in) = (abef, cdgh);
            let mut w0 = _mm_shuffle_epi8(load_bytes(block, 0), byte_swap);
            rounds4!(w0, 0);
            let mut w1 = _mm_shuffle_epi8(load_bytes(block, 16), byte_swap);
            rounds4!(w1, 1);
            let mut w2 = _mm_shuffle_epi8(load_bytes(block, 32), byte_swap);
            rounds4!(w2, 2);
            let mut w3 = _mm_shuffle_epi8(load_bytes(block, 48), byte_swap);
            rounds4!(w3, 3);
            for i in [4, 8, 12] {
                schedule!(w0, w1, w2, w3);
                rounds4!(w0, i);
                schedule!(w1, w2, w3, w0);
                rounds4!(w1, i + 1);
                schedule!(w2, w3, w0, w1);
                rounds4!(w2, i + 2);
                schedule!(w3, w0, w1, w2);
                rounds4!(w3, i + 3);
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }

        let feba = _mm_shuffle_epi32::<0x1B>(abef);
        let dchg = _mm_shuffle_epi32::<0xB1>(cdgh);
        store_words(state, 0, _mm_blend_epi16::<0xF0>(feba, dchg)); // DCBA
        store_words(state, 4, _mm_alignr_epi8::<8>(dchg, feba)); // HGFE
    }
}

/// One-shot SHA-256.
pub fn sha256(data: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// Renders a digest as lowercase hex.
pub fn hex(digest: &Digest) -> String {
    digest.iter().map(|b| format!("{b:02x}")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn nist_vector_empty() {
        assert_eq!(
            hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn nist_vector_abc() {
        assert_eq!(
            hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn nist_vector_448_bits() {
        assert_eq!(
            hex(&sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn nist_vector_million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            hex(&sha256(&data)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0u8..=255).cycle().take(1000).collect();
        for chunk in [1usize, 3, 7, 63, 64, 65, 128] {
            let mut h = Sha256::new();
            for piece in data.chunks(chunk) {
                h.update(piece);
            }
            assert_eq!(h.finalize(), sha256(&data), "chunk size {chunk}");
        }
    }

    #[test]
    fn different_inputs_differ() {
        assert_ne!(sha256(b"a"), sha256(b"b"));
        assert_ne!(sha256(b""), sha256(b"\0"));
    }

    #[test]
    fn hex_renders_64_chars() {
        assert_eq!(hex(&sha256(b"x")).len(), 64);
    }

    #[test]
    fn nist_vector_896_bits() {
        // FIPS 180-4's two-block message: 112 bytes, so the second
        // padding block rides in the same run as the tail — the
        // register-resident multi-block path against a constant.
        assert_eq!(
            hex(&sha256(
                b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn\
                  hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"
            )),
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"
        );
    }

    /// FIPS 180-4 §5.1.1 padding spelled out on a copy of the message,
    /// then the whole padded message handed to `backend` as one run: the
    /// oracle for the one-step padding in `finalize` and the unstaged
    /// block path in `update`.
    fn padded_reference(data: &[u8], backend: fn(&mut [u32; 8], &[[u8; 64]])) -> Digest {
        let mut message = data.to_vec();
        message.push(0x80);
        while message.len() % 64 != 56 {
            message.push(0);
        }
        message.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        let mut state = H0;
        backend(&mut state, message.as_chunks::<64>().0);
        let words: Vec<u8> = state.iter().flat_map(|w| w.to_be_bytes()).collect();
        words.try_into().unwrap()
    }

    /// Whether [`compress`] dispatches away from the scalar rounds on
    /// this host. The tests below drive both either way; where this is
    /// `false` they compare the scalar rounds with themselves, and the
    /// backend-equality test says so.
    fn extensions_detected() -> bool {
        #[cfg(target_arch = "x86_64")]
        return x86::available();
        #[cfg(not(target_arch = "x86_64"))]
        false
    }

    #[test]
    fn every_length_across_the_padding_edges_matches_the_reference() {
        // 55 / 56 / 64 are where the padding goes from one block to two
        // and where the tail buffer empties; 0..=200 crosses each edge
        // three times.
        let data: Vec<u8> = (0u8..=200).map(|i| i.wrapping_mul(37) ^ 0xa5).collect();
        for len in 0..=data.len() {
            let digest = sha256(&data[..len]);
            assert_eq!(
                digest,
                padded_reference(&data[..len], compress_scalar),
                "len {len}"
            );
            assert_eq!(
                digest,
                padded_reference(&data[..len], compress),
                "len {len}"
            );
        }
    }

    proptest! {
        #[test]
        fn prop_three_way_split_matches_the_reference(
            data in proptest::collection::vec(any::<u8>(), 0..201),
            a in 0usize..201,
            b in 0usize..201,
        ) {
            let (a, b) = (a.min(b).min(data.len()), a.max(b).min(data.len()));
            let mut h = Sha256::new();
            h.update(&data[..a]);
            h.update(&data[a..b]);
            h.update(&data[b..]);
            prop_assert_eq!(h.finalize(), padded_reference(&data, compress_scalar));
        }

        #[test]
        fn prop_dispatched_backend_equals_the_scalar_rounds(
            start in proptest::collection::vec(any::<u32>(), 8),
            bytes in proptest::collection::vec(any::<u8>(), 8 * 64),
            run in 1usize..=8,
        ) {
            if !extensions_detected() {
                println!("SHA extensions not detected: the dispatched entry is the scalar rounds");
                return;
            }
            let blocks = &bytes.as_chunks::<64>().0[..run];
            let mut scalar: [u32; 8] = start.try_into().unwrap();
            let mut dispatched = scalar;
            compress_scalar(&mut scalar, blocks);
            compress(&mut dispatched, blocks);
            prop_assert_eq!(scalar, dispatched);
        }

        #[test]
        fn prop_deterministic(data in proptest::collection::vec(any::<u8>(), 0..512)) {
            prop_assert_eq!(sha256(&data), sha256(&data));
        }

        #[test]
        fn prop_split_invariance(
            data in proptest::collection::vec(any::<u8>(), 0..512),
            split in 0usize..512,
        ) {
            let split = split.min(data.len());
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            prop_assert_eq!(h.finalize(), sha256(&data));
        }
    }
}
