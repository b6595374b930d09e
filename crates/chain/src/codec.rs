//! Canonical byte encoding for hashing and the durable block log.
//!
//! Transaction and block digests must be identical on every miner, so the
//! encoding must be fully specified: little-endian fixed-width integers,
//! `u64` length prefixes for sequences and for maps (entries in key
//! order), and a tag byte for options. This
//! is *not* a general-purpose serialization format (no versioning, no
//! schema evolution) — it exists to give [`crate::hash`] a deterministic
//! pre-image and [`crate::log`] a replayable record format.
//!
//! [`Decode`] is the strict inverse of [`Encode`]: `decode(encode(x)) ==
//! x` for every implementing type, and *every* malformed input —
//! truncated bytes, an unknown enum tag, trailing garbage — returns a
//! [`DecodeError`] instead of panicking. A replica recovering its chain
//! from disk (or syncing one from a peer) must never be killable by a
//! corrupt byte stream.

use std::collections::BTreeMap;
use std::sync::Arc;

/// Types with a canonical byte encoding.
pub trait Encode {
    /// Appends the canonical encoding of `self` to `out`.
    fn encode_to(&self, out: &mut Vec<u8>);

    /// Convenience: encodes into a fresh buffer.
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_to(&mut out);
        out
    }
}
macro_rules! impl_encode_int {
    ($($t:ty),*) => {
        $(impl Encode for $t {
            fn encode_to(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
        })*
    };
}

impl_encode_int!(u8, u16, u32, u64, i8, i16, i32, i64);

impl Encode for usize {
    fn encode_to(&self, out: &mut Vec<u8>) {
        (*self as u64).encode_to(out);
    }
}

impl Encode for bool {
    fn encode_to(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
}

impl Encode for f64 {
    fn encode_to(&self, out: &mut Vec<u8>) {
        // Bit pattern, not value: -0.0 and 0.0 encode differently, NaN
        // payloads are preserved. Determinism beats numeric equivalence.
        out.extend_from_slice(&self.to_bits().to_le_bytes());
    }
}

impl Encode for String {
    fn encode_to(&self, out: &mut Vec<u8>) {
        self.as_str().encode_to(out);
    }
}

impl Encode for &str {
    fn encode_to(&self, out: &mut Vec<u8>) {
        (self.len() as u64).encode_to(out);
        out.extend_from_slice(self.as_bytes());
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode_to(&self, out: &mut Vec<u8>) {
        self.as_slice().encode_to(out);
    }
}

impl<T: Encode> Encode for [T] {
    fn encode_to(&self, out: &mut Vec<u8>) {
        // One growth for the whole sequence instead of one per element:
        // exact for fixed-width elements, a hint for nested ones.
        out.reserve(8 + std::mem::size_of_val(self));
        (self.len() as u64).encode_to(out);
        for item in self {
            item.encode_to(out);
        }
    }
}

impl<K: Encode, V: Encode> Encode for BTreeMap<K, V> {
    fn encode_to(&self, out: &mut Vec<u8>) {
        // `len ‖ (key ‖ value)*` in ascending key order — the map's own
        // iteration order, so equal maps encode equally.
        (self.len() as u64).encode_to(out);
        for (key, value) in self {
            key.encode_to(out);
            value.encode_to(out);
        }
    }
}

impl<T: Encode, const N: usize> Encode for [T; N] {
    fn encode_to(&self, out: &mut Vec<u8>) {
        // Fixed length: no prefix needed; the type pins the size.
        for item in self {
            item.encode_to(out);
        }
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode_to(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode_to(out);
            }
        }
    }
}

impl<A: Encode, B: Encode> Encode for (A, B) {
    fn encode_to(&self, out: &mut Vec<u8>) {
        self.0.encode_to(out);
        self.1.encode_to(out);
    }
}

impl<A: Encode, B: Encode, C: Encode> Encode for (A, B, C) {
    fn encode_to(&self, out: &mut Vec<u8>) {
        self.0.encode_to(out);
        self.1.encode_to(out);
        self.2.encode_to(out);
    }
}

impl<T: Encode + ?Sized> Encode for &T {
    fn encode_to(&self, out: &mut Vec<u8>) {
        (*self).encode_to(out);
    }
}

/// A shared value encodes as the value: sharing is not part of the format.
impl<T: Encode + ?Sized> Encode for Arc<T> {
    fn encode_to(&self, out: &mut Vec<u8>) {
        (**self).encode_to(out);
    }
}

/// Why a byte stream failed to decode.
///
/// Every variant is a *rejection*, never a panic: the decoders are fed
/// bytes recovered from disk after crashes and bytes received from
/// untrusted peers, and a replica must survive both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The input ended before the value was complete.
    Truncated {
        /// Bytes the decoder needed next.
        needed: usize,
        /// Bytes actually remaining.
        remaining: usize,
    },
    /// An enum tag byte named no known variant.
    BadTag {
        /// The type being decoded.
        type_name: &'static str,
        /// The offending tag byte.
        tag: u8,
    },
    /// The value decoded, but input bytes were left over. Only
    /// [`Decode::decode`] raises this; mid-stream decoding via
    /// [`Decode::decode_from`] leaves the remainder to the caller.
    TrailingBytes {
        /// Unconsumed byte count.
        remaining: usize,
    },
    /// A sequence length prefix promised more elements than the
    /// remaining input could possibly hold (each element is at least one
    /// byte) — rejected *before* allocating, so a corrupt or hostile
    /// length can never balloon memory.
    LengthOverflow {
        /// The claimed element count.
        claimed: u64,
        /// Bytes actually remaining.
        remaining: usize,
    },
    /// A string's bytes were not valid UTF-8.
    BadUtf8,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Truncated { needed, remaining } => {
                write!(
                    f,
                    "truncated input: needed {needed} bytes, {remaining} left"
                )
            }
            Self::BadTag { type_name, tag } => {
                write!(f, "unknown tag {tag:#04x} for {type_name}")
            }
            Self::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing bytes after a complete value")
            }
            Self::LengthOverflow { claimed, remaining } => {
                write!(
                    f,
                    "length prefix claims {claimed} elements, only {remaining} bytes remain"
                )
            }
            Self::BadUtf8 => write!(f, "string bytes are not valid UTF-8"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// A cursor over input bytes, tracking the decode position.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wraps a byte slice for decoding.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True once every byte is consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Consumes exactly `n` bytes, or reports truncation.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::Truncated {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Consumes one byte.
    pub fn take_u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u64` length prefix and checks it against the remaining
    /// input, assuming each element occupies at least `min_elem_bytes`
    /// bytes. Callers get a pre-validated `usize` they can safely use as
    /// an allocation bound.
    pub fn take_len(&mut self, min_elem_bytes: usize) -> Result<usize, DecodeError> {
        let claimed = u64::decode_from(self)?;
        let bound = self.remaining() / min_elem_bytes.max(1);
        if claimed > bound as u64 {
            return Err(DecodeError::LengthOverflow {
                claimed,
                remaining: self.remaining(),
            });
        }
        Ok(claimed as usize)
    }
}

/// Types decodable from their canonical [`Encode`] byte form.
///
/// The contract, pinned by proptests over every chain type:
/// `decode(x.encode()) == Ok(x)`, and any *other* input returns `Err` —
/// truncation, bad tags, and trailing bytes are rejections, not panics.
pub trait Decode: Sized {
    /// Decodes a value from the reader, consuming exactly its bytes.
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, DecodeError>;

    /// Decodes a value that must span the *entire* input: trailing bytes
    /// are an error. This is the entry point for framed records (the
    /// block log frames every payload with an exact length).
    fn decode(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut r = Reader::new(bytes);
        let value = Self::decode_from(&mut r)?;
        if !r.is_empty() {
            return Err(DecodeError::TrailingBytes {
                remaining: r.remaining(),
            });
        }
        Ok(value)
    }
}

macro_rules! impl_decode_int {
    ($($t:ty),*) => {
        $(impl Decode for $t {
            fn decode_from(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
                let bytes = r.take(std::mem::size_of::<$t>())?;
                Ok(<$t>::from_le_bytes(bytes.try_into().expect("exact take")))
            }
        })*
    };
}

impl_decode_int!(u8, u16, u32, u64, i8, i16, i32, i64);

impl Decode for usize {
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        // Encoded as u64; on 64-bit targets the cast is lossless. (A
        // 32-bit replica would additionally need a range check; the
        // workspace targets 64-bit.)
        Ok(u64::decode_from(r)? as usize)
    }
}

impl Decode for bool {
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(DecodeError::BadTag {
                type_name: "bool",
                tag,
            }),
        }
    }
}

impl Decode for f64 {
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        // Inverse of the bit-pattern encoding: NaN payloads and signed
        // zeros round-trip exactly.
        Ok(f64::from_bits(u64::decode_from(r)?))
    }
}

impl Decode for String {
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let len = r.take_len(1)?;
        let bytes = r.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError::BadUtf8)
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        // Every element encodes to >= 1 byte, so the length check in
        // `take_len` bounds the allocation by the actual input size.
        let len = r.take_len(1)?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::decode_from(r)?);
        }
        Ok(out)
    }
}

impl<K: Decode + Ord, V: Decode> Decode for BTreeMap<K, V> {
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        // Nothing is allocated ahead of the entries actually read. Keys
        // out of order or repeated (the last one wins) are tolerated:
        // whoever decodes untrusted bytes checks the result's digest.
        let len = r.take_len(1)?;
        let mut out = BTreeMap::new();
        for _ in 0..len {
            let key = K::decode_from(r)?;
            out.insert(key, V::decode_from(r)?);
        }
        Ok(out)
    }
}

impl<T: Decode, const N: usize> Decode for [T; N] {
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        // Fixed length, no prefix — mirror of the Encode impl.
        let mut out = Vec::with_capacity(N);
        for _ in 0..N {
            out.push(T::decode_from(r)?);
        }
        Ok(out.try_into().unwrap_or_else(|_| unreachable!("length N")))
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.take_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode_from(r)?)),
            tag => Err(DecodeError::BadTag {
                type_name: "Option",
                tag,
            }),
        }
    }
}

impl<A: Decode, B: Decode> Decode for (A, B) {
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok((A::decode_from(r)?, B::decode_from(r)?))
    }
}

impl<A: Decode, B: Decode, C: Decode> Decode for (A, B, C) {
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok((A::decode_from(r)?, B::decode_from(r)?, C::decode_from(r)?))
    }
}

impl<T: Decode> Decode for Arc<T> {
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        T::decode_from(r).map(Arc::new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integers_little_endian() {
        assert_eq!(0x0102u16.encode(), vec![0x02, 0x01]);
        assert_eq!(1u64.encode(), vec![1, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!((-1i8).encode(), vec![0xff]);
    }

    #[test]
    fn usize_encodes_as_u64() {
        assert_eq!(5usize.encode(), 5u64.encode());
    }

    #[test]
    fn strings_length_prefixed() {
        let enc = "ab".encode();
        assert_eq!(&enc[..8], &2u64.to_le_bytes());
        assert_eq!(&enc[8..], b"ab");
        assert_eq!(String::from("ab").encode(), enc);
    }

    #[test]
    fn vec_length_prefixed() {
        let enc = vec![1u8, 2, 3].encode();
        assert_eq!(enc.len(), 8 + 3);
        assert_eq!(&enc[8..], &[1, 2, 3]);
    }

    #[test]
    fn empty_vec_still_prefixed() {
        assert_eq!(Vec::<u64>::new().encode(), 0u64.to_le_bytes().to_vec());
    }

    #[test]
    fn arrays_not_prefixed() {
        assert_eq!([1u8, 2, 3].encode(), vec![1, 2, 3]);
    }

    #[test]
    fn option_tagged() {
        assert_eq!(Option::<u8>::None.encode(), vec![0]);
        assert_eq!(Some(7u8).encode(), vec![1, 7]);
    }

    #[test]
    fn f64_uses_bit_pattern() {
        assert_ne!(0.0f64.encode(), (-0.0f64).encode());
        assert_eq!(1.5f64.encode(), 1.5f64.to_bits().to_le_bytes().to_vec());
    }

    #[test]
    fn tuples_concatenate() {
        assert_eq!((1u8, 2u8).encode(), vec![1, 2]);
        assert_eq!((1u8, 2u8, 3u8).encode(), vec![1, 2, 3]);
    }

    #[test]
    fn nested_structures() {
        let v: Vec<Vec<u8>> = vec![vec![1], vec![2, 3]];
        let enc = v.encode();
        // outer prefix 2, inner prefix 1 + [1], inner prefix 2 + [2,3]
        assert_eq!(enc.len(), 8 + (8 + 1) + (8 + 2));
    }

    #[test]
    fn injective_for_adjacent_values() {
        // Length prefixes prevent ambiguity between ["ab"] and ["a","b"].
        let one: Vec<&str> = vec!["ab"];
        let two: Vec<&str> = vec!["a", "b"];
        assert_ne!(one.encode(), two.encode());
    }

    fn roundtrip<T: Encode + Decode + PartialEq + std::fmt::Debug>(value: T) {
        assert_eq!(T::decode(&value.encode()), Ok(value));
    }

    #[test]
    fn decode_inverts_encode_for_primitives() {
        roundtrip(0u8);
        roundtrip(0x0102u16);
        roundtrip(u32::MAX);
        roundtrip(u64::MAX);
        roundtrip(-1i8);
        roundtrip(i16::MIN);
        roundtrip(i32::MIN);
        roundtrip(i64::MIN);
        roundtrip(usize::MAX);
        roundtrip(true);
        roundtrip(false);
        roundtrip(1.5f64);
        roundtrip(-0.0f64);
        roundtrip(String::from("héllo"));
        roundtrip(String::new());
        roundtrip(vec![1u64, 2, 3]);
        roundtrip(Vec::<u64>::new());
        roundtrip([7u8, 8, 9]);
        roundtrip(Option::<u8>::None);
        roundtrip(Some(42u64));
        roundtrip((1u8, 2u64));
        roundtrip((1u8, 2u64, String::from("x")));
        roundtrip(vec![vec![1u8], vec![2, 3]]);
    }

    #[test]
    fn maps_encode_in_key_order_and_roundtrip() {
        let mut map = BTreeMap::new();
        map.insert(7u32, vec![1u8, 2]);
        map.insert(3u32, vec![]);
        let mut expected = 2u64.encode();
        expected.extend((3u32, Vec::<u8>::new()).encode());
        expected.extend((7u32, vec![1u8, 2]).encode());
        assert_eq!(map.encode(), expected);
        roundtrip(map);
        roundtrip(BTreeMap::<u32, f64>::new());
        // A length no input could hold is rejected before the loop.
        assert!(matches!(
            BTreeMap::<u32, u8>::decode(&u64::MAX.encode()),
            Err(DecodeError::LengthOverflow { .. })
        ));
    }

    #[test]
    fn nan_payload_roundtrips_bit_exactly() {
        let nan = f64::from_bits(0x7ff8_dead_beef_0001);
        let decoded = f64::decode(&nan.encode()).unwrap();
        assert_eq!(decoded.to_bits(), nan.to_bits());
    }

    #[test]
    fn truncated_input_rejected() {
        assert_eq!(
            u64::decode(&[1, 2, 3]),
            Err(DecodeError::Truncated {
                needed: 8,
                remaining: 3
            })
        );
        // A vector whose prefix promises more elements than exist.
        let mut enc = vec![5u64, 6, 7].encode();
        enc.truncate(enc.len() - 4);
        assert!(Vec::<u64>::decode(&enc).is_err());
        // Empty input.
        assert!(u8::decode(&[]).is_err());
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut enc = 7u64.encode();
        enc.push(0xff);
        assert_eq!(
            u64::decode(&enc),
            Err(DecodeError::TrailingBytes { remaining: 1 })
        );
    }

    #[test]
    fn bad_tags_rejected() {
        assert_eq!(
            bool::decode(&[2]),
            Err(DecodeError::BadTag {
                type_name: "bool",
                tag: 2
            })
        );
        assert_eq!(
            Option::<u8>::decode(&[9, 1]),
            Err(DecodeError::BadTag {
                type_name: "Option",
                tag: 9
            })
        );
    }

    #[test]
    fn hostile_length_prefix_rejected_before_allocation() {
        // A length prefix claiming u64::MAX elements must be rejected by
        // the remaining-bytes bound, not by the allocator.
        let mut enc = Vec::new();
        u64::MAX.encode_to(&mut enc);
        assert_eq!(
            Vec::<u64>::decode(&enc),
            Err(DecodeError::LengthOverflow {
                claimed: u64::MAX,
                remaining: 0
            })
        );
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut enc = Vec::new();
        2u64.encode_to(&mut enc);
        enc.extend_from_slice(&[0xff, 0xfe]);
        assert_eq!(String::decode(&enc), Err(DecodeError::BadUtf8));
    }

    #[test]
    fn errors_render() {
        assert!(DecodeError::BadUtf8.to_string().contains("UTF-8"));
        assert!(DecodeError::Truncated {
            needed: 8,
            remaining: 1
        }
        .to_string()
        .contains("truncated"));
    }
}
