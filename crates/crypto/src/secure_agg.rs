//! The data-owner side of secure aggregation (Bonawitz et al., adapted to
//! the paper).
//!
//! For a *fixed* cohort of parties (the paper's cross-silo setting
//! assumes every owner participates in every round, Sect. III):
//!
//! 1. **Advertise** — each party registers its DH public key in a
//!    [`KeyDirectory`], visible to everyone.
//! 2. **Mask** — a [`PartyState`] turns its fixed-point update into a
//!    masked submission by applying the pairwise mask against every other
//!    party.
//! 3. **Aggregate** — the ring sum of all submissions
//!    (`FixedCodec::ring_sum`, decoded with `decode_avg`); the masks
//!    telescope away and only the *sum of the cohort's updates* remains.
//!
//! Step 3 needs no key material, so it is not in this crate: the FL
//! contract sums the masked vectors it was sent (`fedchain::contract_fl`)
//! and can only ever see them and their cohort-level sum — this is the
//! privacy property the paper's Sect. III threat model requires.

use std::collections::BTreeMap;
use std::fmt;

use numeric::{par, FixedCodec};

use crate::dh::{DhGroup, DhKeyPair};
use crate::masking::{mask_flops, PairwiseMasker, PartyId};
use crate::sha256::sha256;

/// Errors from building a [`KeyDirectory`] or deriving a [`PartyState`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SecureAggError {
    /// A party id was registered twice.
    DuplicateParty(PartyId),
    /// An operation referenced a party that never advertised a key.
    UnknownParty(PartyId),
    /// Fewer than two parties: masking would be a no-op and the single
    /// update would be exposed.
    CohortTooSmall(usize),
    /// A peer advertised a degenerate or out-of-range public key; deriving
    /// a pair secret against it would yield a predictable mask.
    InvalidPeerKey(PartyId),
}

impl fmt::Display for SecureAggError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::DuplicateParty(id) => write!(f, "party {id} already registered"),
            Self::UnknownParty(id) => write!(f, "party {id} is not registered"),
            Self::CohortTooSmall(n) => {
                write!(f, "secure aggregation needs >= 2 parties, got {n}")
            }
            Self::InvalidPeerKey(id) => {
                write!(f, "party {id} advertised an invalid public key")
            }
        }
    }
}

impl std::error::Error for SecureAggError {}

/// Public session state: the advertised keys, visible to everyone
/// (including the blockchain).
#[derive(Debug, Clone, Default)]
pub struct KeyDirectory {
    keys: BTreeMap<PartyId, numeric::U256>,
}

impl KeyDirectory {
    /// Creates an empty directory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a party's public key.
    pub fn advertise(
        &mut self,
        party: PartyId,
        public: numeric::U256,
    ) -> Result<(), SecureAggError> {
        if self.keys.contains_key(&party) {
            return Err(SecureAggError::DuplicateParty(party));
        }
        self.keys.insert(party, public);
        Ok(())
    }

    /// Public key of `party`.
    pub fn public_key(&self, party: PartyId) -> Option<&numeric::U256> {
        self.keys.get(&party)
    }

    /// All registered party ids, ascending.
    pub fn parties(&self) -> Vec<PartyId> {
        self.keys.keys().copied().collect()
    }

    /// All `(party, public key)` entries, ascending by id — the canonical
    /// input to [`key_epoch`].
    pub fn entries(&self) -> Vec<(PartyId, numeric::U256)> {
        self.keys.iter().map(|(&id, &pk)| (id, pk)).collect()
    }

    /// Number of registered parties.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True if nobody registered yet.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }
}

/// Digest of a full advertised key set, used as the [`PairSecretCache`]
/// epoch.
///
/// Domain-separated SHA-256 over `(party id, public key)` in the given
/// order; callers pass keys ascending by party id (the canonical on-chain
/// order), so the epoch is a pure function of *who advertised what* — it
/// is stable across rounds while keys stand, and rolls the moment any
/// owner joins, leaves, or rotates a key.
pub fn key_epoch(keys: &[(PartyId, numeric::U256)]) -> [u8; 32] {
    let mut bytes = Vec::with_capacity(32 + keys.len() * 36);
    bytes.extend_from_slice(b"transparent-fl/key-epoch/v1");
    for (id, public) in keys {
        bytes.extend_from_slice(&id.to_le_bytes());
        bytes.extend_from_slice(&public.to_be_bytes());
    }
    sha256(&bytes)
}

/// Per-owner cache of derived pair secrets, bound to a *key epoch*.
///
/// Pair keys depend only on `(my private, peer public)`, so while the
/// advertised key set stands, re-deriving them every round is pure waste —
/// one modular exponentiation per peer. The cache is keyed twice over:
///
/// * the **epoch** (see [`key_epoch`]) — a digest of the full advertised
///   key set; any change clears the cache wholesale, and
/// * the **peer public key** stored with each entry — a lookup only hits
///   when the stored key matches the directory's current key bit-for-bit.
///
/// A rotated or tampered key therefore can never serve a stale secret:
/// rotation rolls the epoch, and even a stale epoch value cannot alias
/// because the per-entry key comparison fails. Cached pair keys are the
/// exact bytes the cold path derives, so a warm run's masked submissions
/// (and every state root downstream) are bit-identical to a cold run's.
#[derive(Debug, Clone, Default)]
pub struct PairSecretCache {
    epoch: Option<[u8; 32]>,
    entries: BTreeMap<PartyId, (numeric::U256, [u8; 32])>,
}

impl PairSecretCache {
    /// Creates an empty (cold) cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Binds the cache to `epoch`, clearing all entries if it changed.
    fn roll_epoch(&mut self, epoch: [u8; 32]) {
        if self.epoch != Some(epoch) {
            self.entries.clear();
            self.epoch = Some(epoch);
        }
    }

    /// The cached pair key against `peer`, only if the stored public key
    /// matches `peer_pub` exactly.
    fn lookup(&self, peer: PartyId, peer_pub: &numeric::U256) -> Option<[u8; 32]> {
        match self.entries.get(&peer) {
            Some((stored_pub, key)) if stored_pub == peer_pub => Some(*key),
            _ => None,
        }
    }

    fn insert(&mut self, peer: PartyId, peer_pub: numeric::U256, key: [u8; 32]) {
        self.entries.insert(peer, (peer_pub, key));
    }

    /// Number of cached pair secrets.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no pair secret is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// One party's private view of a secure-aggregation cohort.
///
/// Owns the party's DH keypair and the pair keys derived against every
/// other cohort member. Produces masked submissions.
pub struct PartyState {
    id: PartyId,
    maskers: BTreeMap<PartyId, PairwiseMasker>,
}

impl PartyState {
    /// Derives pair keys for `me` against every other party in the
    /// directory, one batched exponentiation fan-out over all peers
    /// ([`DhGroup::shared_keys_batch`]).
    pub fn derive(
        group: &DhGroup,
        me: PartyId,
        keypair: &DhKeyPair,
        directory: &KeyDirectory,
    ) -> Result<Self, SecureAggError> {
        Self::derive_cached(
            group,
            me,
            keypair,
            directory,
            [0u8; 32],
            &mut PairSecretCache::new(),
        )
    }

    /// [`PartyState::derive`] through a [`PairSecretCache`]: peers whose
    /// `(epoch, public key)` entry is warm skip the exponentiation
    /// entirely; only the misses go through the batched agreement.
    ///
    /// `epoch` must come from [`key_epoch`] over the full advertised key
    /// set. The derived pair keys — warm or cold — are bit-identical, so
    /// masked submissions and state roots never depend on cache state.
    pub fn derive_cached(
        group: &DhGroup,
        me: PartyId,
        keypair: &DhKeyPair,
        directory: &KeyDirectory,
        epoch: [u8; 32],
        cache: &mut PairSecretCache,
    ) -> Result<Self, SecureAggError> {
        if directory.len() < 2 {
            return Err(SecureAggError::CohortTooSmall(directory.len()));
        }
        if directory.public_key(me).is_none() {
            return Err(SecureAggError::UnknownParty(me));
        }
        cache.roll_epoch(epoch);
        // Split peers into cache hits and misses. Validation happens here,
        // per peer, so a bad key is attributed to its owner (the batch API
        // reports the error but not the offender).
        let mut pair_keys: BTreeMap<PartyId, [u8; 32]> = BTreeMap::new();
        let mut misses: Vec<(PartyId, numeric::U256)> = Vec::new();
        for other in directory.parties() {
            if other == me {
                continue;
            }
            let other_pub = *directory.public_key(other).expect("listed party has a key");
            if let Some(key) = cache.lookup(other, &other_pub) {
                pair_keys.insert(other, key);
            } else {
                group
                    .validate_public_key(&other_pub)
                    .map_err(|_| SecureAggError::InvalidPeerKey(other))?;
                misses.push((other, other_pub));
            }
        }
        // Pairwise key agreement is one modular exponentiation per peer —
        // the dominant setup cost — and each pair key depends only on the
        // peer's public key, so the misses batch out across cores.
        if !misses.is_empty() {
            let peer_pubs: Vec<numeric::U256> = misses.iter().map(|&(_, pk)| pk).collect();
            let fresh = group
                .shared_keys_batch(&keypair.private, &peer_pubs)
                .expect("peer keys validated above");
            for ((other, other_pub), key) in misses.into_iter().zip(fresh) {
                cache.insert(other, other_pub, key);
                pair_keys.insert(other, key);
            }
        }
        let maskers = pair_keys
            .into_iter()
            .map(|(other, pair_key)| (other, PairwiseMasker::new(pair_key)))
            .collect();
        Ok(Self { id: me, maskers })
    }

    /// Party id.
    pub fn id(&self) -> PartyId {
        self.id
    }

    /// Produces the masked fixed-point submission for `round`.
    ///
    /// `weights` are the party's raw model update (plaintext, local only).
    pub fn masked_update(&self, codec: &FixedCodec, round: u64, weights: &[f64]) -> Vec<u64> {
        self.mask_ring_vector(round, codec.encode_vec(weights))
    }

    /// Masks an already-encoded ring vector (used by group-restricted
    /// aggregation where encoding happens upstream).
    ///
    /// Each pair's mask expansion is an independent ChaCha keystream, so
    /// for enough total work the expansions fan out across cores and are
    /// folded in ascending peer order. Ring addition is associative and
    /// commutative (wrapping `u64`), so the masked vector is bit-identical
    /// to the sequential fold for any thread count.
    pub fn mask_ring_vector(&self, round: u64, mut update: Vec<u64>) -> Vec<u64> {
        // ChaCha expansion costs a few ns per element: a group's worth of
        // paper-scale pair masks (dim ≈ 650) stays inline, hundreds of
        // pairs or high-dimensional work fan out.
        let dim = update.len();
        let per_lease = par::items_per_lease(mask_flops(dim));
        if self.maskers.len() < 2 * per_lease {
            for (&other, masker) in &self.maskers {
                masker.apply(self.id, other, round, &mut update);
            }
            return update;
        }
        let peers: Vec<(PartyId, &PairwiseMasker)> =
            self.maskers.iter().map(|(&other, m)| (other, m)).collect();
        let masks = par::par_map(&peers, per_lease, |_, (_, masker)| {
            masker.mask_for_round(round, dim)
        });
        for ((other, _), mask) in peers.iter().zip(&masks) {
            crate::masking::apply_expanded(self.id, *other, mask, &mut update);
        }
        update
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn group() -> DhGroup {
        DhGroup::simulation_256()
    }

    fn seeds(n: usize) -> Vec<[u8; 32]> {
        (0..n).map(|i| [i as u8 + 1; 32]).collect()
    }

    /// One full-cohort round the way the contract aggregates it: party
    /// `i` masks `weights[i]` against everyone else, and the ring sum of
    /// the submissions decodes to the cohort mean. Returns the masked
    /// submissions (all an on-chain observer sees) and that mean.
    fn masked_round(
        codec: &FixedCodec,
        round: u64,
        weights: &[Vec<f64>],
    ) -> (Vec<Vec<u64>>, Vec<f64>) {
        let g = group();
        let n = weights.len();
        let kps: Vec<DhKeyPair> = seeds(n).iter().map(|s| g.keypair_from_seed(s)).collect();
        let mut dir = KeyDirectory::new();
        for (i, kp) in kps.iter().enumerate() {
            dir.advertise(i as PartyId, kp.public).unwrap();
        }
        let submissions: Vec<Vec<u64>> = kps
            .iter()
            .zip(weights)
            .enumerate()
            .map(|(i, (kp, w))| {
                let party = PartyState::derive(&g, i as PartyId, kp, &dir).unwrap();
                party.masked_update(codec, round, w)
            })
            .collect();
        let mean = FixedCodec::ring_sum(&submissions)
            .iter()
            .map(|&r| codec.decode_avg(r, n))
            .collect();
        (submissions, mean)
    }

    #[test]
    fn three_party_mean_matches_plaintext() {
        let codec = FixedCodec::default();
        let weights = vec![
            vec![1.0, -2.0, 3.5],
            vec![0.5, 0.5, 0.5],
            vec![-1.5, 1.5, 2.0],
        ];
        let (_, mean) = masked_round(&codec, 0, &weights);
        let expect = [0.0, 0.0, 2.0];
        for (m, e) in mean.iter().zip(expect) {
            assert!((m - e).abs() < 1e-6, "got {m}, want {e}");
        }
    }

    #[test]
    fn two_party_minimum_cohort() {
        let codec = FixedCodec::default();
        let (_, mean) = masked_round(&codec, 1, &[vec![4.0], vec![2.0]]);
        assert!((mean[0] - 3.0).abs() < 1e-6);
    }

    #[test]
    fn single_party_rejected() {
        // Alone in the directory there is nobody to mask against: the
        // update would go out in the clear.
        let g = group();
        let kp = g.keypair_from_seed(&seeds(1)[0]);
        let mut dir = KeyDirectory::new();
        dir.advertise(0, kp.public).unwrap();
        assert_eq!(
            PartyState::derive(&g, 0, &kp, &dir).err(),
            Some(SecureAggError::CohortTooSmall(1))
        );
    }

    #[test]
    fn masked_submission_differs_from_plaintext() {
        let codec = FixedCodec::default();
        let g = group();
        let kps: Vec<DhKeyPair> = seeds(2).iter().map(|s| g.keypair_from_seed(s)).collect();
        let mut dir = KeyDirectory::new();
        dir.advertise(0, kps[0].public).unwrap();
        dir.advertise(1, kps[1].public).unwrap();
        let party = PartyState::derive(&g, 0, &kps[0], &dir).unwrap();
        let raw = codec.encode_vec(&[1.0, 2.0, 3.0]);
        let masked = party.masked_update(&codec, 0, &[1.0, 2.0, 3.0]);
        assert_ne!(raw, masked, "submission must be masked");
    }

    #[test]
    fn per_round_masks_differ() {
        let codec = FixedCodec::default();
        let g = group();
        let kps: Vec<DhKeyPair> = seeds(2).iter().map(|s| g.keypair_from_seed(s)).collect();
        let mut dir = KeyDirectory::new();
        dir.advertise(0, kps[0].public).unwrap();
        dir.advertise(1, kps[1].public).unwrap();
        let party = PartyState::derive(&g, 0, &kps[0], &dir).unwrap();
        let r0 = party.masked_update(&codec, 0, &[1.0]);
        let r1 = party.masked_update(&codec, 1, &[1.0]);
        assert_ne!(r0, r1, "round must refresh masks");
    }

    #[test]
    fn warm_cache_matches_cold_derive_and_rolls_on_rotation() {
        let codec = FixedCodec::default();
        let g = group();
        let n = 4usize;
        let kps: Vec<DhKeyPair> = seeds(n).iter().map(|s| g.keypair_from_seed(s)).collect();
        let mut dir = KeyDirectory::new();
        for (i, kp) in kps.iter().enumerate() {
            dir.advertise(i as PartyId, kp.public).unwrap();
        }
        let epoch = key_epoch(&dir.entries());
        let mut cache = PairSecretCache::new();
        let cold = PartyState::derive(&g, 0, &kps[0], &dir).unwrap();
        let first = PartyState::derive_cached(&g, 0, &kps[0], &dir, epoch, &mut cache).unwrap();
        assert_eq!(cache.len(), n - 1);
        let warm = PartyState::derive_cached(&g, 0, &kps[0], &dir, epoch, &mut cache).unwrap();
        let w = [0.25, -1.5, 3.0];
        let want = cold.masked_update(&codec, 3, &w);
        assert_eq!(want, first.masked_update(&codec, 3, &w));
        assert_eq!(want, warm.masked_update(&codec, 3, &w));

        // Rotating one key rolls the epoch; the warm cache is cleared and
        // the fresh derivation reflects the rotated key.
        let rotated = g.keypair_from_seed(&[99u8; 32]);
        let mut dir2 = KeyDirectory::new();
        dir2.advertise(0, kps[0].public).unwrap();
        dir2.advertise(1, rotated.public).unwrap();
        for (i, kp) in kps.iter().enumerate().skip(2) {
            dir2.advertise(i as PartyId, kp.public).unwrap();
        }
        let epoch2 = key_epoch(&dir2.entries());
        assert_ne!(epoch, epoch2, "rotation must roll the epoch");
        let fresh = PartyState::derive_cached(&g, 0, &kps[0], &dir2, epoch2, &mut cache).unwrap();
        let expect = PartyState::derive(&g, 0, &kps[0], &dir2).unwrap();
        assert_eq!(
            fresh.masked_update(&codec, 3, &w),
            expect.masked_update(&codec, 3, &w)
        );
        assert_ne!(fresh.masked_update(&codec, 3, &w), want);
    }

    #[test]
    fn stale_cache_entry_never_served() {
        // Even if a caller wrongly reuses an old epoch after a peer key
        // changed, the per-entry public-key comparison forces a fresh
        // derivation — a stale secret cannot alias.
        let codec = FixedCodec::default();
        let g = group();
        let kps: Vec<DhKeyPair> = seeds(3).iter().map(|s| g.keypair_from_seed(s)).collect();
        let mut dir = KeyDirectory::new();
        for (i, kp) in kps.iter().enumerate() {
            dir.advertise(i as PartyId, kp.public).unwrap();
        }
        let epoch = key_epoch(&dir.entries());
        let mut cache = PairSecretCache::new();
        PartyState::derive_cached(&g, 0, &kps[0], &dir, epoch, &mut cache).unwrap();

        let rotated = g.keypair_from_seed(&[77u8; 32]);
        let mut dir2 = KeyDirectory::new();
        dir2.advertise(0, kps[0].public).unwrap();
        dir2.advertise(1, rotated.public).unwrap();
        dir2.advertise(2, kps[2].public).unwrap();
        // Deliberately reuse the stale epoch.
        let got = PartyState::derive_cached(&g, 0, &kps[0], &dir2, epoch, &mut cache).unwrap();
        let expect = PartyState::derive(&g, 0, &kps[0], &dir2).unwrap();
        let w = [1.0, 2.0];
        assert_eq!(
            got.masked_update(&codec, 0, &w),
            expect.masked_update(&codec, 0, &w)
        );
    }

    #[test]
    fn invalid_peer_key_attributed_to_offender() {
        let g = group();
        let kps: Vec<DhKeyPair> = seeds(2).iter().map(|s| g.keypair_from_seed(s)).collect();
        let mut dir = KeyDirectory::new();
        dir.advertise(0, kps[0].public).unwrap();
        dir.advertise(7, numeric::U256::ONE).unwrap();
        assert_eq!(
            PartyState::derive(&g, 0, &kps[0], &dir).err(),
            Some(SecureAggError::InvalidPeerKey(7))
        );
    }

    #[test]
    fn directory_duplicate_advertise() {
        let mut dir = KeyDirectory::new();
        dir.advertise(0, numeric::U256::from_u64(1)).unwrap();
        assert_eq!(
            dir.advertise(0, numeric::U256::from_u64(2)),
            Err(SecureAggError::DuplicateParty(0))
        );
    }

    #[test]
    fn observer_sees_only_masked_data() {
        // The observer's view is the per-party submissions plus their
        // sum. No submission equals the plaintext encoding.
        let codec = FixedCodec::default();
        let weights: Vec<Vec<f64>> = (0..4).map(|i| vec![i as f64, -(i as f64)]).collect();
        let (observed, mean) = masked_round(&codec, 7, &weights);
        for (seen, w) in observed.iter().zip(&weights) {
            assert_ne!(seen, &codec.encode_vec(w));
        }
        // But the aggregate is exact.
        assert!((mean[0] - 1.5).abs() < 1e-6);
        assert!((mean[1] + 1.5).abs() < 1e-6);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        #[test]
        fn prop_secure_mean_matches_plain_mean(
            n in 2usize..6,
            dim in 1usize..8,
            round in 0u64..100,
            base in -100.0f64..100.0,
        ) {
            let codec = FixedCodec::default();
            let weights: Vec<Vec<f64>> = (0..n)
                .map(|i| (0..dim).map(|d| base + (i * dim + d) as f64 * 0.25).collect())
                .collect();
            let (_, mean) = masked_round(&codec, round, &weights);
            for d in 0..dim {
                let plain: f64 =
                    weights.iter().map(|w| w[d]).sum::<f64>() / n as f64;
                prop_assert!((mean[d] - plain).abs() < 1e-5);
            }
        }
    }
}
