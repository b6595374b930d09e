//! Dropout recovery — the full-Bonawitz extension.
//!
//! The paper assumes every owner participates in every round (Sect. III),
//! so it never needs this machinery. The original secure-aggregation
//! protocol (Bonawitz et al. CCS'17), however, survives parties dropping
//! mid-round: every party Shamir-shares its DH private key across the
//! cohort at setup; if a party vanishes after the others already masked
//! against it, any `t` survivors reconstruct the dropped key, re-derive
//! the dropped party's pairwise masks, and cancel them out of the
//! aggregate.
//!
//! We implement the simplified single-mask variant (no double-masking /
//! self-mask): sufficient for the semi-honest model the paper works in,
//! and exactly the code path a dropout exercises.
//!
//! Recovery is defined over a **set** `D` of simultaneous dropouts, not a
//! single party: the survivors' pairwise masks cancel among themselves in
//! the partial sum, masks between two *dropped* parties never entered it
//! (neither submitted), so the only residue is one `±m_{sd}` per
//! (survivor `s`, dropped `d`) pair. All dropped keys are reconstructed
//! and every residual mask is stripped in one deterministic pass —
//! ascending dropped id, then ascending survivor id — so any re-executing
//! miner computes the identical corrected aggregate.
//!
//! ```text
//! setup:    party i  →  shamir.split(a_i, t, n)  →  share_j to party j
//! round r:  survivors submit masked updates; the set D drops
//! recover:  t survivors pool shares of a_d → a_d        (each d ∈ D)
//!           for each (s, d): m_{sd} = PRG(KDF(pub_s^a_d), r)
//!           corrected = Σ submissions − Σ_{s,d} orient(s,d)·m_{sd}
//! ```

use numeric::{par, U256};

use crate::dh::{DhGroup, DhKeyPair};
use crate::masking::{self, PairwiseMasker, PartyId};
use crate::shamir::{Shamir, ShamirError, Share};
use crate::ChaChaPrg;

/// Errors from dropout recovery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DropoutError {
    /// Underlying secret-sharing failure.
    Shamir(ShamirError),
    /// The reconstructed key does not reproduce the advertised public key
    /// (wrong shares, or shares of a different party).
    KeyMismatch,
}

impl From<ShamirError> for DropoutError {
    fn from(e: ShamirError) -> Self {
        Self::Shamir(e)
    }
}

impl std::fmt::Display for DropoutError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Shamir(e) => write!(f, "secret sharing: {e}"),
            Self::KeyMismatch => {
                write!(
                    f,
                    "reconstructed key does not match the advertised public key"
                )
            }
        }
    }
}

impl std::error::Error for DropoutError {}

/// Key-escrow side of the protocol: splits a party's DH private key into
/// shares for the cohort.
pub fn escrow_private_key(
    shamir: &Shamir,
    keypair: &DhKeyPair,
    threshold: usize,
    cohort_size: usize,
    prg: &mut ChaChaPrg,
) -> Result<Vec<Share>, DropoutError> {
    Ok(shamir.split(&keypair.private, threshold, cohort_size, prg)?)
}

/// Reconstructs a dropped party's private key from shares and verifies it
/// against the advertised public key.
pub fn reconstruct_private_key(
    shamir: &Shamir,
    group: &DhGroup,
    shares: &[Share],
    threshold: usize,
    advertised_public: &U256,
) -> Result<U256, DropoutError> {
    let private = shamir.reconstruct(shares, threshold)?;
    let public = group.public_of(&private);
    if &public != advertised_public {
        return Err(DropoutError::KeyMismatch);
    }
    Ok(private)
}

/// One dropped party's recovery inputs: its identity, the public key it
/// advertised (on-chain, before dropping), and the escrow shares the
/// survivors pooled for it.
#[derive(Debug, Clone)]
pub struct DroppedParty {
    /// The dropped party.
    pub id: PartyId,
    /// The DH public key the party advertised; reconstruction is
    /// verified against it.
    pub advertised_public: U256,
    /// Pooled escrow shares of the party's private key (≥ threshold).
    pub shares: Vec<Share>,
}

/// Removes the residual masks of a *set* of simultaneously dropped
/// parties from a survivors-only partial ring sum, in one pass.
///
/// `partial_sum` is `Σ` of the *survivors'* masked submissions; each
/// survivor `s` still carries an uncancelled `±m_{sd}` against every
/// dropped party `d` (masks between two dropped parties never entered
/// the sum, so nothing is stripped for those pairs). Given the
/// reconstructed private key of each dropped party, this derives every
/// (survivor, dropped) pair mask and strips it, leaving `Σ encode(w_s)`
/// exactly.
///
/// Deterministic order: pairs are processed ascending by dropped id,
/// then ascending by survivor id, and ring addition is exact wrapping
/// arithmetic, so the corrected sum is a pure function of the inputs —
/// bit-identical on every re-executing miner for any thread count (mask
/// expansions fan out on [`numeric::par`], one slot per pair, and are
/// folded in index order).
///
/// # Panics
///
/// Panics if `dropped` ids are not strictly ascending, a dropped party
/// also appears among the survivors, or a survivor public key is not a
/// valid group element (keys reaching this path were validated when
/// advertised on-chain).
pub fn strip_dropped_set_masks(
    group: &DhGroup,
    partial_sum: &mut [u64],
    dropped: &[(PartyId, U256)],
    survivors: &[(PartyId, U256)],
    round: u64,
) {
    assert!(
        dropped.windows(2).all(|w| w[0].0 < w[1].0),
        "dropped ids must be strictly ascending"
    );
    // The flat (dropped, survivor) pair list, in the canonical order.
    let mut ids: Vec<(PartyId, PartyId)> = Vec::new();
    let mut key_pairs: Vec<(U256, U256)> = Vec::new();
    for (d, d_private) in dropped {
        for (s, s_public) in survivors {
            assert_ne!(s, d, "dropped party {d} cannot survive");
            ids.push((*d, *s));
            key_pairs.push((*d_private, *s_public));
        }
    }
    // One batched agreement over every (dropped, survivor) pair — this is
    // the recovery hot path the bench's `secure_agg_recovery` rows track.
    let pair_keys = group
        .shared_keys_batch_pairs(&key_pairs)
        .expect("survivor keys were validated when advertised");
    // Each pair's mask is an independent ChaCha expansion; the fold below
    // consumes them in index order regardless of the schedule, so the
    // corrected sum is schedule-invariant.
    let dim = partial_sum.len();
    let per_lease = par::items_per_lease(masking::mask_flops(dim));
    let masks = par::par_map(&pair_keys, per_lease, |_, pair_key| {
        PairwiseMasker::new(*pair_key).mask_for_round(round, dim)
    });
    for ((d, s), mask) in ids.iter().zip(&masks) {
        // Orientation convention (see `masking`): the smaller id *adds*
        // the pair mask. The survivor applied its side; remove it by
        // applying the *dropped* party's side, which cancels it.
        masking::apply_expanded(*d, *s, mask, partial_sum);
    }
}

/// Recovers an entire dropout set in one deterministic pass: every
/// dropped party's private key is reconstructed from its pooled escrow
/// shares and verified against the advertised public key, then all
/// residual (survivor, dropped) pair masks are stripped from
/// `partial_sum` via [`strip_dropped_set_masks`].
///
/// Returns the reconstructed private keys, ascending by dropped id.
///
/// # Panics
///
/// As [`strip_dropped_set_masks`].
pub fn recover_dropout_set(
    shamir: &Shamir,
    group: &DhGroup,
    partial_sum: &mut [u64],
    dropped: &[DroppedParty],
    survivors: &[(PartyId, U256)],
    threshold: usize,
    round: u64,
) -> Result<Vec<(PartyId, U256)>, DropoutError> {
    let mut recovered = Vec::with_capacity(dropped.len());
    for d in dropped {
        let private =
            reconstruct_private_key(shamir, group, &d.shares, threshold, &d.advertised_public)?;
        recovered.push((d.id, private));
    }
    strip_dropped_set_masks(group, partial_sum, &recovered, survivors, round);
    Ok(recovered)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::secure_agg::{KeyDirectory, PartyState};
    use numeric::FixedCodec;

    fn prg(tag: u8) -> ChaChaPrg {
        ChaChaPrg::from_seed(&[tag; 32])
    }

    /// The full dropout story: 4 parties escrow keys, party 3 drops after
    /// the others masked against it, 3 survivors recover the mean.
    #[test]
    fn dropout_recovery_end_to_end() {
        let group = DhGroup::simulation_256();
        let shamir = Shamir::default();
        let codec = FixedCodec::default();
        let n = 4usize;
        let threshold = 3usize;
        let round = 5u64;
        let dim = 8usize;

        let keypairs: Vec<DhKeyPair> = (0..n as u8)
            .map(|i| group.keypair_from_seed(&[i + 1; 32]))
            .collect();
        let mut directory = KeyDirectory::new();
        for (i, kp) in keypairs.iter().enumerate() {
            directory.advertise(i as PartyId, kp.public).unwrap();
        }

        // Setup: everyone escrows its private key.
        let escrowed: Vec<Vec<Share>> = keypairs
            .iter()
            .enumerate()
            .map(|(i, kp)| {
                escrow_private_key(&shamir, kp, threshold, n, &mut prg(i as u8 + 40)).unwrap()
            })
            .collect();

        // Round: all four mask, but party 3's submission never arrives.
        let weights: Vec<Vec<f64>> = (0..n)
            .map(|i| (0..dim).map(|d| (i * dim + d) as f64 * 0.5).collect())
            .collect();
        let submissions: Vec<Vec<u64>> = (0..n)
            .map(|i| {
                let party =
                    PartyState::derive(&group, i as PartyId, &keypairs[i], &directory).unwrap();
                party.masked_update(&codec, round, &weights[i])
            })
            .collect();

        // Partial sum over survivors 0..=2 only.
        let mut partial = vec![0u64; dim];
        for sub in &submissions[..3] {
            FixedCodec::ring_add_assign(&mut partial, sub);
        }

        // Survivors pool their shares of party 3's key (threshold = 3).
        let pooled: Vec<Share> = (0..3).map(|s| escrowed[3][s].clone()).collect();
        let recovered =
            reconstruct_private_key(&shamir, &group, &pooled, threshold, &keypairs[3].public)
                .unwrap();
        assert_eq!(recovered, keypairs[3].private);

        // Strip party 3's residual masks and decode the survivor mean.
        let survivors: Vec<(PartyId, U256)> =
            (0..3).map(|s| (s as PartyId, keypairs[s].public)).collect();
        strip_dropped_set_masks(&group, &mut partial, &[(3, recovered)], &survivors, round);

        for (d, &ring) in partial.iter().enumerate() {
            let expect: f64 = (0..3).map(|i| weights[i][d]).sum();
            let got = codec.decode(ring);
            assert!(
                (got - expect).abs() < 1e-6,
                "dim {d}: recovered {got}, want {expect}"
            );
        }
    }

    /// The set variant: 5 parties escrow keys, parties 1 and 3 drop
    /// after everyone masked; the three survivors recover both keys and
    /// strip every residual mask in one pass.
    #[test]
    fn simultaneous_dropout_set_recovers_survivor_sum() {
        let group = DhGroup::simulation_256();
        let shamir = Shamir::default();
        let codec = FixedCodec::default();
        let n = 5usize;
        let threshold = 3usize;
        let round = 9u64;
        let dim = 16usize;

        let keypairs: Vec<DhKeyPair> = (0..n as u8)
            .map(|i| group.keypair_from_seed(&[i + 11; 32]))
            .collect();
        let mut directory = KeyDirectory::new();
        for (i, kp) in keypairs.iter().enumerate() {
            directory.advertise(i as PartyId, kp.public).unwrap();
        }
        let escrowed: Vec<Vec<Share>> = keypairs
            .iter()
            .enumerate()
            .map(|(i, kp)| {
                escrow_private_key(&shamir, kp, threshold, n, &mut prg(i as u8 + 60)).unwrap()
            })
            .collect();

        let weights: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                (0..dim)
                    .map(|d| (i * dim + d) as f64 * 0.25 - 3.0)
                    .collect()
            })
            .collect();
        let dropped_ids = [1usize, 3];
        let survivor_ids = [0usize, 2, 4];
        let mut partial = vec![0u64; dim];
        for i in survivor_ids {
            let party = PartyState::derive(&group, i as PartyId, &keypairs[i], &directory).unwrap();
            let masked = party.masked_update(&codec, round, &weights[i]);
            FixedCodec::ring_add_assign(&mut partial, &masked);
        }

        let survivors: Vec<(PartyId, U256)> = survivor_ids
            .iter()
            .map(|&s| (s as PartyId, keypairs[s].public))
            .collect();
        let dropped: Vec<DroppedParty> = dropped_ids
            .iter()
            .map(|&d| DroppedParty {
                id: d as PartyId,
                advertised_public: keypairs[d].public,
                shares: survivor_ids
                    .iter()
                    .map(|&s| escrowed[d][s].clone())
                    .collect(),
            })
            .collect();
        let recovered = recover_dropout_set(
            &shamir,
            &group,
            &mut partial,
            &dropped,
            &survivors,
            threshold,
            round,
        )
        .unwrap();
        assert_eq!(recovered.len(), 2);
        for ((id, private), d) in recovered.iter().zip(&dropped_ids) {
            assert_eq!(*id, *d as PartyId);
            assert_eq!(*private, keypairs[*d].private);
        }

        for (c, &ring) in partial.iter().enumerate() {
            let expect: f64 = survivor_ids.iter().map(|&i| weights[i][c]).sum();
            let got = codec.decode(ring);
            assert!(
                (got - expect).abs() < 1e-6,
                "dim {c}: recovered {got}, want {expect}"
            );
        }
    }

    #[test]
    fn set_strip_equals_sequential_single_strips() {
        // The one-pass set strip must be bit-identical to stripping each
        // dropped party in ascending order as a set of one.
        let group = DhGroup::simulation_256();
        let keypairs: Vec<DhKeyPair> = (0..4u8)
            .map(|i| group.keypair_from_seed(&[i + 31; 32]))
            .collect();
        let survivors: Vec<(PartyId, U256)> =
            vec![(0, keypairs[0].public), (2, keypairs[2].public)];
        let dropped: Vec<(PartyId, U256)> =
            vec![(1, keypairs[1].private), (3, keypairs[3].private)];
        let base: Vec<u64> = (0..32).map(|i| i as u64 * 0x9e37_79b9).collect();

        let mut one_pass = base.clone();
        strip_dropped_set_masks(&group, &mut one_pass, &dropped, &survivors, 4);
        let mut sequential = base;
        for single in &dropped {
            strip_dropped_set_masks(&group, &mut sequential, &[*single], &survivors, 4);
        }
        assert_eq!(one_pass, sequential);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn unsorted_dropout_set_panics() {
        let group = DhGroup::simulation_256();
        let kp = group.keypair_from_seed(&[5u8; 32]);
        let mut sum = vec![0u64; 4];
        strip_dropped_set_masks(
            &group,
            &mut sum,
            &[(3, kp.private), (1, kp.private)],
            &[(0, kp.public)],
            0,
        );
    }

    #[test]
    fn duplicate_share_indices_rejected() {
        // A malicious survivor replaying another's evaluation point must
        // surface as a clean Shamir error, not a bogus reconstruction.
        let group = DhGroup::simulation_256();
        let shamir = Shamir::default();
        let kp = group.keypair_from_seed(&[8u8; 32]);
        let shares = escrow_private_key(&shamir, &kp, 3, 5, &mut prg(2)).unwrap();
        let dup = vec![shares[0].clone(), shares[0].clone(), shares[1].clone()];
        let err = reconstruct_private_key(&shamir, &group, &dup, 3, &kp.public).unwrap_err();
        assert_eq!(
            err,
            DropoutError::Shamir(ShamirError::DuplicatePoint(shares[0].x))
        );
    }

    #[test]
    fn threshold_equals_cohort_size_round_trips() {
        // t = n edge case: recovery needs *every* party's share — which
        // contradicts a dropout (the dropped party cannot contribute), so
        // the reconstruction itself must still work from all n shares.
        let group = DhGroup::simulation_256();
        let shamir = Shamir::default();
        let kp = group.keypair_from_seed(&[13u8; 32]);
        let shares = escrow_private_key(&shamir, &kp, 5, 5, &mut prg(4)).unwrap();
        let recovered = reconstruct_private_key(&shamir, &group, &shares, 5, &kp.public).unwrap();
        assert_eq!(recovered, kp.private);
    }

    #[test]
    fn below_threshold_set_recovery_is_a_clean_error() {
        // recover_dropout_set with too few pooled shares must return the
        // Shamir error — never panic mid-strip or corrupt the sum.
        let group = DhGroup::simulation_256();
        let shamir = Shamir::default();
        let kp = group.keypair_from_seed(&[21u8; 32]);
        let other = group.keypair_from_seed(&[22u8; 32]);
        let shares = escrow_private_key(&shamir, &kp, 3, 4, &mut prg(6)).unwrap();
        let base: Vec<u64> = vec![7u64; 8];
        let mut sum = base.clone();
        let err = recover_dropout_set(
            &shamir,
            &group,
            &mut sum,
            &[DroppedParty {
                id: 0,
                advertised_public: kp.public,
                shares: shares[..2].to_vec(),
            }],
            &[(1, other.public)],
            3,
            0,
        )
        .unwrap_err();
        assert_eq!(
            err,
            DropoutError::Shamir(ShamirError::NotEnoughShares { got: 2, need: 3 })
        );
        assert_eq!(sum, base, "a failed recovery must leave the sum untouched");
    }

    #[test]
    fn too_few_shares_fail() {
        let group = DhGroup::simulation_256();
        let shamir = Shamir::default();
        let kp = group.keypair_from_seed(&[9u8; 32]);
        let shares = escrow_private_key(&shamir, &kp, 3, 5, &mut prg(1)).unwrap();
        let err =
            reconstruct_private_key(&shamir, &group, &shares[..2], 3, &kp.public).unwrap_err();
        assert!(matches!(err, DropoutError::Shamir(_)));
    }

    #[test]
    fn wrong_shares_detected_by_public_key_check() {
        let group = DhGroup::simulation_256();
        let shamir = Shamir::default();
        let kp_a = group.keypair_from_seed(&[1u8; 32]);
        let kp_b = group.keypair_from_seed(&[2u8; 32]);
        // Shares of A's key, verified against B's public key.
        let shares = escrow_private_key(&shamir, &kp_a, 2, 3, &mut prg(3)).unwrap();
        let err =
            reconstruct_private_key(&shamir, &group, &shares[..2], 2, &kp_b.public).unwrap_err();
        assert_eq!(err, DropoutError::KeyMismatch);
    }

    #[test]
    fn recovery_without_stripping_leaves_garbage() {
        // Negative control: skipping the strip leaves masked noise.
        let group = DhGroup::simulation_256();
        let codec = FixedCodec::default();
        let n = 3usize;
        let keypairs: Vec<DhKeyPair> = (0..n as u8)
            .map(|i| group.keypair_from_seed(&[i + 7; 32]))
            .collect();
        let mut directory = KeyDirectory::new();
        for (i, kp) in keypairs.iter().enumerate() {
            directory.advertise(i as PartyId, kp.public).unwrap();
        }
        let submissions: Vec<Vec<u64>> = (0..n)
            .map(|i| {
                let party =
                    PartyState::derive(&group, i as PartyId, &keypairs[i], &directory).unwrap();
                party.masked_update(&codec, 0, &[1.0])
            })
            .collect();
        let mut partial = vec![0u64; 1];
        for sub in &submissions[..2] {
            FixedCodec::ring_add_assign(&mut partial, sub);
        }
        let sloppy = codec.decode(partial[0]);
        assert!(
            (sloppy - 2.0).abs() > 1.0,
            "partial sum without stripping must be garbage, got {sloppy}"
        );
    }
}
