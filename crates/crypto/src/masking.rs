//! Pairwise mask derivation for secure aggregation.
//!
//! Paper Sect. IV-A1: at round `r`, the pair `(i, j)` expands
//! `PRNG(g^{ij}, r)` into a mask vector `m^r_{ij}`. The *orientation
//! convention* makes cancellation work: the numerically smaller party id
//! **adds** the mask and the larger one **subtracts** it, so the sum over
//! all parties telescopes to zero. Both parties derive the identical mask
//! because they feed the same pair key and round into the PRG.

use crate::chacha::ChaChaPrg;
use crate::hkdf;

/// Identifies a data owner inside one secure-aggregation session.
pub type PartyId = u32;

/// Derives per-round pairwise masks from a 32-byte pair key.
#[derive(Debug, Clone)]
pub struct PairwiseMasker {
    pair_key: [u8; 32],
}

/// What expanding one pair mask of `dim` ring elements costs, in the
/// flop-equivalents [`numeric::par::items_per_lease`] takes: the
/// mask-seed HKDF (≈ 0.5 µs) and ≈ 4 ns of ChaCha per element.
pub(crate) fn mask_flops(dim: usize) -> usize {
    2048 + 16 * dim
}

impl PairwiseMasker {
    /// Wraps the shared pair key `KDF(g^{ij})` of one pair of parties.
    pub fn new(pair_key: [u8; 32]) -> Self {
        Self { pair_key }
    }

    /// Expands the mask vector for `round` with `dim` ring elements.
    ///
    /// Deterministic: both parties (and every re-executing miner in
    /// possession of the pair key — which miners are *not*) compute the
    /// same vector.
    pub fn mask_for_round(&self, round: u64, dim: usize) -> Vec<u64> {
        let seed = hkdf::derive_key(
            b"transparent-fl/mask-seed",
            &self.pair_key,
            &round_info(round),
        );
        ChaChaPrg::from_seed(&seed).gen_u64_vec(dim)
    }

    /// Applies the pair `(me, other)`'s mask for `round` to `update` in
    /// place, using the canonical orientation: the smaller id adds, the
    /// larger subtracts.
    ///
    /// # Panics
    ///
    /// Panics if `me == other` — a party has no pairwise mask with itself.
    pub fn apply(&self, me: PartyId, other: PartyId, round: u64, update: &mut [u64]) {
        let mask = self.mask_for_round(round, update.len());
        apply_expanded(me, other, &mask, update);
    }
}

/// Applies an already-expanded mask with the canonical orientation (the
/// smaller id adds, the larger subtracts). Split out so callers that
/// expand several pair masks in parallel can fold them without
/// re-deriving the orientation rule.
///
/// # Panics
///
/// Panics if `me == other` — a party has no pairwise mask with itself.
pub fn apply_expanded(me: PartyId, other: PartyId, mask: &[u64], update: &mut [u64]) {
    assert_ne!(me, other, "no pairwise mask with self");
    if me < other {
        for (u, m) in update.iter_mut().zip(mask) {
            *u = u.wrapping_add(*m);
        }
    } else {
        for (u, m) in update.iter_mut().zip(mask) {
            *u = u.wrapping_sub(*m);
        }
    }
}

/// Domain-separated info string for a round.
fn round_info(round: u64) -> [u8; 16] {
    let mut info = [0u8; 16];
    info[..8].copy_from_slice(b"round/v1");
    info[8..].copy_from_slice(&round.to_be_bytes());
    info
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn masker(tag: u8) -> PairwiseMasker {
        PairwiseMasker::new([tag; 32])
    }

    #[test]
    fn same_key_same_round_same_mask() {
        let a = masker(1).mask_for_round(3, 10);
        let b = masker(1).mask_for_round(3, 10);
        assert_eq!(a, b);
    }

    #[test]
    fn different_rounds_different_masks() {
        let a = masker(1).mask_for_round(0, 10);
        let b = masker(1).mask_for_round(1, 10);
        assert_ne!(a, b);
    }

    #[test]
    fn different_keys_different_masks() {
        assert_ne!(
            masker(1).mask_for_round(0, 10),
            masker(2).mask_for_round(0, 10)
        );
    }

    #[test]
    fn mask_length_matches_dim() {
        assert_eq!(masker(1).mask_for_round(0, 0).len(), 0);
        assert_eq!(masker(1).mask_for_round(0, 1000).len(), 1000);
    }

    #[test]
    fn pair_orientation_cancels() {
        let m = masker(7);
        let mut ua = vec![100u64, 200, 300];
        let mut ub = vec![1u64, 2, 3];
        m.apply(0, 1, 5, &mut ua); // party 0 adds
        m.apply(1, 0, 5, &mut ub); // party 1 subtracts
        let sum: Vec<u64> = ua
            .iter()
            .zip(&ub)
            .map(|(a, b)| a.wrapping_add(*b))
            .collect();
        assert_eq!(sum, vec![101, 202, 303]);
    }

    #[test]
    #[should_panic(expected = "self")]
    fn self_mask_panics() {
        let mut u = vec![0u64];
        masker(1).apply(3, 3, 0, &mut u);
    }

    #[test]
    fn masked_value_hides_plaintext() {
        // A single masked coordinate should look nothing like the input.
        let m = masker(9);
        let mut u = vec![42u64];
        m.apply(0, 1, 0, &mut u);
        assert_ne!(u[0], 42);
    }

    proptest! {
        #[test]
        fn prop_three_party_telescoping(
            w in proptest::collection::vec(any::<u64>(), 1..32),
            round in any::<u64>(),
        ) {
            // Parties 0,1,2 with independent pair keys; masks must vanish
            // from the ring sum for arbitrary updates.
            let m01 = masker(1);
            let m02 = masker(2);
            let m12 = masker(3);
            let dim = w.len();
            let mut u0 = w.clone();
            let mut u1 = w.clone();
            let mut u2 = w.clone();
            m01.apply(0, 1, round, &mut u0);
            m02.apply(0, 2, round, &mut u0);
            m01.apply(1, 0, round, &mut u1);
            m12.apply(1, 2, round, &mut u1);
            m02.apply(2, 0, round, &mut u2);
            m12.apply(2, 1, round, &mut u2);
            for k in 0..dim {
                let total = u0[k].wrapping_add(u1[k]).wrapping_add(u2[k]);
                prop_assert_eq!(total, w[k].wrapping_mul(3));
            }
        }
    }
}
