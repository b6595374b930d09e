//! HKDF-SHA256 (RFC 5869) — extract-then-expand key derivation.
//!
//! Turns a Diffie–Hellman shared secret (a group element, *not* a uniform
//! byte string) into uniformly pseudorandom key material, and lets the
//! masking layer derive an independent seed per `(pair, round)` via the
//! `info` parameter.

use crate::hmac::{hmac_sha256, hmac_sha256_parts};
use crate::sha256::DIGEST_LEN;

/// `HKDF-Extract(salt, ikm)` → pseudorandom key.
pub fn extract(salt: &[u8], ikm: &[u8]) -> [u8; DIGEST_LEN] {
    hmac_sha256(salt, ikm)
}

/// `HKDF-Expand(prk, info, len)` → output key material.
///
/// # Panics
///
/// Panics if `len > 255 * 32` (RFC 5869 limit).
pub fn expand(prk: &[u8; DIGEST_LEN], info: &[u8], len: usize) -> Vec<u8> {
    assert!(len <= 255 * DIGEST_LEN, "HKDF output too long: {len}");
    let mut okm = vec![0u8; len];
    expand_into(prk, info, &mut okm);
    okm
}

/// Fills `okm` with `T(1) ‖ T(2) ‖ …`, `T(n) = HMAC(prk, T(n-1) ‖ info ‖
/// n)`. `okm` is at most `255 * 32` bytes: [`expand`] checks, the
/// fixed-width [`derive_key`] is one block.
fn expand_into(prk: &[u8; DIGEST_LEN], info: &[u8], okm: &mut [u8]) {
    let mut prev = [0u8; DIGEST_LEN];
    let mut prev_len = 0;
    for (counter, chunk) in (1u8..=255).zip(okm.chunks_mut(DIGEST_LEN)) {
        prev = hmac_sha256_parts(prk, &[&prev[..prev_len], info, &[counter]]);
        prev_len = DIGEST_LEN;
        chunk.copy_from_slice(&prev[..chunk.len()]);
    }
}

/// One-shot `HKDF(salt, ikm, info, len)`.
pub fn derive(salt: &[u8], ikm: &[u8], info: &[u8], len: usize) -> Vec<u8> {
    expand(&extract(salt, ikm), info, len)
}

/// One-shot `HKDF(salt, ikm, info, 32)` as the fixed-width key the pair
/// key and the mask seed are — [`derive`] at `len = 32` without the
/// `Vec`.
pub(crate) fn derive_key(salt: &[u8], ikm: &[u8], info: &[u8]) -> [u8; DIGEST_LEN] {
    let mut key = [0u8; DIGEST_LEN];
    expand_into(&extract(salt, ikm), info, &mut key);
    key
}

#[cfg(test)]
mod tests {
    use super::*;

    fn to_hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    // RFC 5869 Appendix A test vectors.
    #[test]
    fn rfc5869_case_1() {
        let ikm = [0x0b; 22];
        let salt: Vec<u8> = (0x00..=0x0c).collect();
        let info: Vec<u8> = (0xf0..=0xf9).collect();
        let prk = extract(&salt, &ikm);
        assert_eq!(
            to_hex(&prk),
            "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5"
        );
        let okm = expand(&prk, &info, 42);
        assert_eq!(
            to_hex(&okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865"
        );
    }

    #[test]
    fn rfc5869_case_3_empty_salt_info() {
        let ikm = [0x0b; 22];
        let okm = derive(&[], &ikm, &[], 42);
        assert_eq!(
            to_hex(&okm),
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d9d201395faa4b61a96c8"
        );
    }

    #[test]
    fn mask_seed_shape_is_pinned() {
        // The shape `PairwiseMasker::mask_for_round` derives at — 24-byte
        // salt, 32-byte key, 16-byte info, one output block — against a
        // value computed outside this repository, through the `Vec` and
        // the fixed-width entry.
        let salt = b"transparent-fl/mask-seed";
        let info = *b"round/v1\0\0\0\0\0\0\0\x03";
        let expected = "f1e40879315155a2bad095eca8e0055ceb186984fc3e90ed8305d6b63e96f1c8";
        assert_eq!(to_hex(&derive(salt, &[9u8; 32], &info, 32)), expected);
        assert_eq!(to_hex(&derive_key(salt, &[9u8; 32], &info)), expected);
    }

    #[test]
    fn the_rfc_limit_itself_is_reachable() {
        // 255 blocks use counters 1..=255; nothing may step past the
        // last one.
        let prk = extract(b"s", b"k");
        let okm = expand(&prk, b"i", 255 * 32);
        assert_eq!(okm[..96], expand(&prk, b"i", 96)[..]);
        assert_ne!(okm[254 * 32..], [0u8; 32]);
    }

    #[test]
    fn info_separates_outputs() {
        let prk = extract(b"salt", b"secret");
        assert_ne!(expand(&prk, b"round-1", 32), expand(&prk, b"round-2", 32));
    }

    #[test]
    fn requested_length_honoured() {
        let prk = extract(b"s", b"k");
        for len in [0, 1, 31, 32, 33, 64, 100] {
            assert_eq!(expand(&prk, b"i", len).len(), len);
        }
    }

    #[test]
    fn expand_prefix_property() {
        // Shorter outputs are prefixes of longer ones (RFC 5869 structure).
        let prk = extract(b"s", b"k");
        let long = expand(&prk, b"i", 96);
        let short = expand(&prk, b"i", 40);
        assert_eq!(&long[..40], &short[..]);
    }

    #[test]
    #[should_panic(expected = "too long")]
    fn overlong_output_panics() {
        let prk = extract(b"s", b"k");
        let _ = expand(&prk, b"i", 255 * 32 + 1);
    }
}
