//! One memoised digest per section of the contract state.

use std::ops::{Deref, DerefMut};
use std::sync::{Arc, OnceLock};

use fl_chain::codec::Encode;
use fl_chain::hash::Hash32;

/// A value and the memo of its digest. Reads go through `Deref`; every
/// mutable borrow goes through `DerefMut`, which drops the memo first,
/// so a section whose value changed can never answer with a stale
/// digest. `Clone` shares the value and copies the memo: a scratch
/// replica starts warm and costs a pointer per section, and the first
/// mutable borrow of a shared value copies it — one level deep, so a table
/// of sections copies its pointers, not what they point to. A snapshot
/// holds the value only, so a memo never reaches it and a restored
/// section starts cold.
#[derive(Debug, Clone, Default)]
pub(super) struct Section<T> {
    value: Arc<T>,
    memo: OnceLock<Hash32>,
}

impl<T> Section<T> {
    pub(super) fn new(value: T) -> Self {
        Self {
            value: Arc::new(value),
            memo: OnceLock::new(),
        }
    }

    /// Whether `self` and `other` read the same allocation: the test
    /// that a replica clone copied nothing it did not write to.
    #[cfg(test)]
    pub(super) fn shares_value_with(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.value, &other.value)
    }

    /// The section's digest: [`tagged`] over what `encode` writes for
    /// the value, computed on the first call after a mutation. Each
    /// section has one call site, in `state_digest`, so one `tag` and one
    /// `encode` per section.
    pub(super) fn digest(&self, tag: &str, encode: impl FnOnce(&T, &mut Vec<u8>)) -> Hash32 {
        *self
            .memo
            .get_or_init(|| tagged(tag, |buf| encode(&self.value, buf)))
    }
}

/// SHA-256 over the domain string `transparent-fl/state` + `tag`,
/// encoded as a string, followed by the bytes `encode` appends.
pub(super) fn tagged(tag: &str, encode: impl FnOnce(&mut Vec<u8>)) -> Hash32 {
    const DOMAIN: &str = "transparent-fl/state";
    // The root and the small sections fit; larger ones grow from here
    // (a long slice reserves its whole length at once).
    let mut buf = Vec::with_capacity(512);
    ((DOMAIN.len() + tag.len()) as u64).encode_to(&mut buf);
    buf.extend_from_slice(DOMAIN.as_bytes());
    buf.extend_from_slice(tag.as_bytes());
    encode(&mut buf);
    Hash32::of_bytes(&buf)
}

impl<T> Deref for Section<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T: Clone> DerefMut for Section<T> {
    fn deref_mut(&mut self) -> &mut T {
        self.memo.take();
        Arc::make_mut(&mut self.value)
    }
}
