//! Data owners: the client side of the protocol.
//!
//! Each owner holds a private training shard and a DH keypair. Per round
//! it (1) downloads the global model from the chain, (2) trains locally,
//! (3) masks its update against the *other members of its group* (the
//! grouping is public, derived from the on-chain seed), and (4) submits
//! the masked vector as a transaction. The raw shard and the plaintext
//! update never leave this struct — the privacy tests grep the chain for
//! them.

use fl_chain::tx::AccountId;
use fl_crypto::dh::{DhGroup, DhKeyPair};
use fl_crypto::dropout::{escrow_private_key, DropoutError};
use fl_crypto::secure_agg::{KeyDirectory, PairSecretCache, PartyState, SecureAggError};
use fl_crypto::shamir::{Shamir, Share};
use fl_crypto::ChaChaPrg;
use fl_ml::dataset::Dataset;
use fl_ml::logreg::{Design, LogisticModel, TrainConfig};
use fl_ml::rng::Xoshiro256;
use numeric::{FixedCodec, U256};

use crate::adversary::{corrupt_shard, corrupt_update, AdversaryKind};

/// A data owner (client + miner in the paper's model).
pub struct DataOwner {
    id: AccountId,
    shard: Dataset,
    keypair: DhKeyPair,
    group: DhGroup,
    train: TrainConfig,
    codec: FixedCodec,
    adversary: Option<AdversaryKind>,
    adversary_rng: Xoshiro256,
    pair_cache: PairSecretCache,
}

impl DataOwner {
    /// Creates an owner with a deterministic keypair derived from `seed`.
    pub fn new(
        id: AccountId,
        shard: Dataset,
        train: TrainConfig,
        frac_bits: u32,
        seed: u64,
    ) -> Self {
        let keypair = Self::keypair(id, seed);
        Self::with_keypair(id, shard, keypair, train, frac_bits, seed)
    }

    /// Owner `id`'s keypair under `seed` — one fixed-base modexp, a pure
    /// function of the two, so a driver may compute many at once.
    pub(crate) fn keypair(id: AccountId, seed: u64) -> DhKeyPair {
        let mut seed_bytes = [0u8; 32];
        seed_bytes[..8].copy_from_slice(&seed.to_le_bytes());
        seed_bytes[8..16].copy_from_slice(&u64::from(id).to_le_bytes());
        DhGroup::simulation_256().keypair_from_seed(&seed_bytes)
    }

    /// [`Self::new`] around a keypair [`Self::keypair`] already derived
    /// for `(id, seed)`.
    pub(crate) fn with_keypair(
        id: AccountId,
        shard: Dataset,
        keypair: DhKeyPair,
        train: TrainConfig,
        frac_bits: u32,
        seed: u64,
    ) -> Self {
        Self {
            id,
            shard,
            keypair,
            group: DhGroup::simulation_256(),
            train,
            codec: FixedCodec::new(frac_bits),
            adversary: None,
            adversary_rng: Xoshiro256::seed_from_u64(seed ^ u64::from(id)),
            pair_cache: PairSecretCache::new(),
        }
    }

    /// Account id.
    pub fn id(&self) -> AccountId {
        self.id
    }

    /// Number of local training examples.
    pub fn shard_len(&self) -> usize {
        self.shard.len()
    }

    /// Public key bytes to advertise on-chain.
    pub fn public_key_bytes(&self) -> Vec<u8> {
        self.keypair.public.to_be_bytes()
    }

    /// The owner's DH public key as a group element.
    pub fn public_key(&self) -> U256 {
        self.keypair.public
    }

    /// Shamir-shares the owner's DH private key across the cohort — the
    /// setup step of the Bonawitz dropout-recovery extension. Share `j`
    /// goes to cohort member `j`; any `threshold` of them can later
    /// reconstruct this owner's key to strip its residual pair masks
    /// from a partial aggregate should the owner vanish mid-round.
    pub fn escrow_key_shares(
        &self,
        shamir: &Shamir,
        threshold: usize,
        cohort_size: usize,
        prg: &mut ChaChaPrg,
    ) -> Result<Vec<Share>, DropoutError> {
        escrow_private_key(shamir, &self.keypair, threshold, cohort_size, prg)
    }

    /// Installs an adversarial behaviour. Label-flip corrupts the shard
    /// immediately (data poisoning happens before training); update-level
    /// attacks apply at each [`DataOwner::local_update`].
    pub fn set_adversary(&mut self, kind: AdversaryKind) {
        if matches!(kind, AdversaryKind::LabelFlip { .. }) {
            corrupt_shard(&kind, &mut self.shard, &mut self.adversary_rng);
        }
        self.adversary = Some(kind);
    }

    /// Trains locally from the current global model and returns the new
    /// local weights (the paper's `w_i`: owners submit trained weights,
    /// FedAvg averages them).
    pub fn local_update(
        &mut self,
        global_model: &[f64],
        num_features: usize,
        num_classes: usize,
    ) -> Vec<f64> {
        assert_eq!(
            (num_features, num_classes),
            (self.shard.num_features(), self.shard.num_classes),
            "global model shape does not match owner {}'s shard",
            self.id
        );
        let design = Design::new(&self.shard);
        let mut update = LogisticModel::train_from(global_model, &design, &self.train).to_flat();
        if let Some(kind) = &self.adversary {
            corrupt_update(kind, &mut update, &mut self.adversary_rng);
        }
        update
    }

    /// Masks `update` for submission, using the advertised keys of the
    /// owner's *group members* this round, through the owner's persistent
    /// pair-secret cache: group members whose keys are unchanged since the
    /// last derivation under the same `epoch` skip the DH exponentiation.
    ///
    /// `group_directory` maps every member of the owner's group
    /// (including itself) to its public key, exactly as read from the
    /// chain; a directory without this owner is
    /// [`SecureAggError::UnknownParty`]. A singleton group has nobody to
    /// pair with, so the encoding goes out unmasked — this is the paper's
    /// `m = n` resolution extreme, which it explicitly notes "reveals the
    /// model parameters".
    ///
    /// `epoch` must be [`fl_crypto::key_epoch`] over the *full* advertised
    /// key set (not the per-round group directory, which permutes every
    /// round) — stable while keys stand, rolled on any rotation. Cached
    /// pair keys are bit-identical to cold-derived ones, so the masked
    /// submission never depends on cache state.
    pub fn mask_update_cached(
        &mut self,
        update: &[f64],
        round: u64,
        group_directory: &[(AccountId, U256)],
        epoch: [u8; 32],
    ) -> Result<Vec<u64>, SecureAggError> {
        if !group_directory.iter().any(|(id, _)| *id == self.id) {
            return Err(SecureAggError::UnknownParty(self.id));
        }
        if group_directory.len() == 1 {
            return Ok(self.codec.encode_vec(update));
        }
        let mut directory = KeyDirectory::new();
        for (id, key) in group_directory {
            directory.advertise(*id, *key)?;
        }
        let party = PartyState::derive_cached(
            &self.group,
            self.id,
            &self.keypair,
            &directory,
            epoch,
            &mut self.pair_cache,
        )?;
        Ok(party.masked_update(&self.codec, round, update))
    }

    /// Number of pair secrets currently cached (observability for tests).
    pub fn cached_pair_secrets(&self) -> usize {
        self.pair_cache.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fl_ml::dataset::SyntheticDigits;
    use numeric::FixedCodec;

    fn owner(id: AccountId) -> DataOwner {
        let shard = SyntheticDigits::small().generate(10 + u64::from(id));
        DataOwner::new(
            id,
            shard,
            TrainConfig {
                learning_rate: 0.5,
                epochs: 5,
                l2: 1e-4,
            },
            24,
            777,
        )
    }

    #[test]
    fn keypairs_deterministic_and_distinct() {
        let a1 = owner(0);
        let a2 = owner(0);
        assert_eq!(a1.public_key_bytes(), a2.public_key_bytes());
        let b = owner(1);
        assert_ne!(a1.public_key_bytes(), b.public_key_bytes());
    }

    #[test]
    fn local_update_changes_weights_and_is_deterministic() {
        let mut o = owner(0);
        let zeros = vec![0.0; 65 * 10];
        let u1 = o.local_update(&zeros, 64, 10);
        assert_ne!(u1, zeros, "training must move the weights");
        let mut o2 = owner(0);
        let u2 = o2.local_update(&zeros, 64, 10);
        assert_eq!(u1, u2, "same shard + seed => same update");
    }

    #[test]
    fn pairwise_masks_cancel_between_two_owners() {
        let mut a = owner(0);
        let mut b = owner(1);
        let zeros = vec![0.0; 65 * 10];
        let ua = a.local_update(&zeros, 64, 10);
        let ub = b.local_update(&zeros, 64, 10);
        let dir = vec![(0u32, a.keypair.public), (1u32, b.keypair.public)];
        let epoch = fl_crypto::key_epoch(&dir);
        let ma = a.mask_update_cached(&ua, 3, &dir, epoch).unwrap();
        let mb = b.mask_update_cached(&ub, 3, &dir, epoch).unwrap();
        let codec = FixedCodec::new(24);
        // Individually masked…
        assert_ne!(ma, codec.encode_vec(&ua));
        // …but the sum is the plaintext sum.
        let sum = FixedCodec::ring_sum(&[ma, mb]);
        for (i, &r) in sum.iter().enumerate() {
            let expect = ua[i] + ub[i];
            assert!((codec.decode(r) - expect).abs() < 1e-6);
        }
    }

    #[test]
    fn cached_masking_matches_cold_across_rounds() {
        // The pair-secret cache must never change what goes on the wire:
        // warm rounds are bit-identical to a cold `PartyState::derive`.
        let mut a = owner(0);
        let b = owner(1);
        let c = owner(2);
        let zeros = vec![0.0; 65 * 10];
        let ua = a.local_update(&zeros, 64, 10);
        let dir = vec![
            (0u32, a.keypair.public),
            (1u32, b.keypair.public),
            (2u32, c.keypair.public),
        ];
        let mut directory = KeyDirectory::new();
        for (id, key) in &dir {
            directory.advertise(*id, *key).unwrap();
        }
        let epoch = fl_crypto::key_epoch(&dir);
        assert_eq!(a.cached_pair_secrets(), 0);
        for round in 0..3u64 {
            let cold = PartyState::derive(&a.group, a.id, &a.keypair, &directory)
                .unwrap()
                .masked_update(&a.codec, round, &ua);
            let warm = a.mask_update_cached(&ua, round, &dir, epoch).unwrap();
            assert_eq!(cold, warm, "round {round}");
            assert_eq!(a.cached_pair_secrets(), 2);
        }
    }

    #[test]
    fn singleton_group_submits_plain_encoding() {
        let mut a = owner(0);
        let zeros = vec![0.0; 65 * 10];
        let u = a.local_update(&zeros, 64, 10);
        let dir = vec![(0u32, a.keypair.public)];
        let masked = a.mask_update_cached(&u, 0, &dir, [0u8; 32]).unwrap();
        assert_eq!(masked, FixedCodec::new(24).encode_vec(&u));
    }

    #[test]
    fn masking_requires_self_in_directory() {
        // A directory read from the chain that leaves this owner out is a
        // typed error — also when it is a singleton, which must not go
        // out unmasked under somebody else's name.
        let mut a = owner(0);
        let b = owner(1);
        let c = owner(2);
        for dir in [
            vec![(1u32, b.keypair.public)],
            vec![(1u32, b.keypair.public), (2u32, c.keypair.public)],
        ] {
            assert_eq!(
                a.mask_update_cached(&[0.0; 650], 0, &dir, [0u8; 32]),
                Err(SecureAggError::UnknownParty(0))
            );
        }
    }

    #[test]
    fn free_rider_update_is_zero() {
        let mut o = owner(2);
        o.set_adversary(AdversaryKind::FreeRider);
        let update = o.local_update(&vec![0.0; 650], 64, 10);
        assert!(update.iter().all(|&w| w == 0.0));
    }

    #[test]
    fn label_flip_applies_once_at_install() {
        let mut o = owner(3);
        let before = o.shard.labels.clone();
        o.set_adversary(AdversaryKind::LabelFlip { fraction: 1.0 });
        assert_ne!(o.shard.labels, before);
    }

    #[test]
    fn keypair_public_keys_are_pinned() {
        // Recorded while public keys still came from the scalar ladder:
        // the generator's table of powers must move no bit of them.
        let pinned = [
            "8f6dfc0d834e4dda6115fada38f7eee8939c1df00a6e9db877465601f201bb1b",
            "ea2072e3b1d942540cd74b8efddf457168ebf2222749cde490e86c5a7334c37d",
            "1d47c8e06ea56cfd0ec689d9cd6b143eb293800ed4ba0ef1f3fd36d0dabe3707",
        ];
        for (id, hex) in [0, 1, 1023].into_iter().zip(pinned) {
            let keypair = DataOwner::keypair(id, 7);
            assert_eq!(keypair.public.to_hex(), hex, "owner {id}");
            let group = DhGroup::simulation_256();
            assert_eq!(
                keypair.public,
                group.g.mod_pow_naive(&keypair.private, &group.p)
            );
        }
    }
}
