//! 32-byte digests over canonical encodings.

use std::fmt;

use fl_crypto::sha256::{sha256, Digest};

use crate::codec::{Decode, DecodeError, Encode, Reader};

/// A 32-byte SHA-256 digest with value semantics.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Hash32(pub Digest);

impl Hash32 {
    /// The all-zero digest, used as the genesis parent.
    pub const ZERO: Self = Self([0u8; 32]);

    /// Hashes raw bytes.
    pub fn of_bytes(bytes: &[u8]) -> Self {
        Self(sha256(bytes))
    }

    /// Hashes the canonical encoding of `value` under a domain-separation
    /// tag. Distinct tags guarantee a transaction digest can never collide
    /// with, say, a block digest of the same bytes.
    pub fn of(domain: &str, value: &impl Encode) -> Self {
        let mut buf = Vec::with_capacity(64);
        domain.encode_to(&mut buf);
        value.encode_to(&mut buf);
        Self(sha256(&buf))
    }

    /// Combines two digests (Merkle interior node).
    pub fn combine(left: &Hash32, right: &Hash32) -> Self {
        let mut buf = [0u8; 65];
        buf[0] = 0x01; // interior-node tag, defeats second-preimage tricks
        buf[1..33].copy_from_slice(&left.0);
        buf[33..].copy_from_slice(&right.0);
        Self(sha256(&buf))
    }

    /// Raw bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Lowercase hex string.
    pub fn to_hex(&self) -> String {
        self.0.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// First 8 hex chars, for logs.
    pub fn short(&self) -> String {
        self.to_hex()[..8].to_owned()
    }
}

impl Encode for Hash32 {
    fn encode_to(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.0);
    }
}

impl Decode for Hash32 {
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let bytes = r.take(32)?;
        Ok(Self(bytes.try_into().expect("exact take")))
    }
}

impl fmt::Debug for Hash32 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Hash32({}…)", self.short())
    }
}

impl fmt::Display for Hash32 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_hex())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn domain_separation() {
        let v = 42u64;
        assert_ne!(Hash32::of("tx", &v), Hash32::of("block", &v));
    }

    #[test]
    fn deterministic() {
        assert_eq!(Hash32::of("t", &1u64), Hash32::of("t", &1u64));
        assert_ne!(Hash32::of("t", &1u64), Hash32::of("t", &2u64));
    }

    #[test]
    fn combine_order_matters() {
        let a = Hash32::of_bytes(b"a");
        let b = Hash32::of_bytes(b"b");
        assert_ne!(Hash32::combine(&a, &b), Hash32::combine(&b, &a));
    }

    #[test]
    fn combine_is_the_tagged_hash_of_both_children() {
        // SHA-256(0x01 ‖ SHA-256("a") ‖ SHA-256("b")), computed outside
        // this repository: the node preimage cannot reorder a byte.
        let a = Hash32::of_bytes(b"a");
        let b = Hash32::of_bytes(b"b");
        assert_eq!(
            Hash32::combine(&a, &b).to_hex(),
            "1fdf7b651907a893865fdf1866cf251d60d527dfafa10a663514f4f9ee34ab22"
        );
    }

    #[test]
    fn hex_round_display() {
        let h = Hash32::of_bytes(b"x");
        assert_eq!(h.to_hex().len(), 64);
        assert_eq!(format!("{h}"), h.to_hex());
        assert_eq!(h.short().len(), 8);
    }

    #[test]
    fn zero_is_all_zeros() {
        assert_eq!(Hash32::ZERO.to_hex(), "0".repeat(64));
    }

    #[test]
    fn encode_is_raw_32_bytes() {
        let h = Hash32::of_bytes(b"y");
        assert_eq!(h.encode(), h.0.to_vec());
    }

    #[test]
    fn decode_roundtrips_and_rejects_short_input() {
        let h = Hash32::of_bytes(b"z");
        assert_eq!(Hash32::decode(&h.encode()), Ok(h));
        assert!(Hash32::decode(&h.encode()[..31]).is_err());
    }
}
