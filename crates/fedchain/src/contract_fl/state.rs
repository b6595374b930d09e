//! The contract's state surface: genesis, read accessors, the
//! durability snapshot and its strict inverse, and the
//! [`SmartContract`] binding with the consensus state digest.

use std::collections::BTreeMap;

use fl_chain::codec::{Decode, DecodeError, Encode, Reader};
use fl_chain::contract::{ExecutionOutcome, SmartContract, TxContext};
use fl_chain::gas::GasSchedule;
use fl_chain::hash::Hash32;
use fl_chain::tx::AccountId;
use fl_crypto::shamir::Share;
use fl_ml::dataset::Dataset;
use numeric::U256;
use shapley::hierarchy::CohortPlan;

use super::{AccuracyUtility, FlCall, FlContract, FlError, FlParams, RoundPhase, RoundRecord};

impl FlContract {
    /// Creates the genesis contract state.
    ///
    /// # Panics
    ///
    /// Panics if the parameters are internally inconsistent.
    pub fn genesis(params: FlParams, test_set: Dataset) -> Self {
        assert!(params.owners.len() >= 2, "need >= 2 owners");
        assert!(
            (1..=params.owners.len()).contains(&params.num_groups),
            "num_groups out of range"
        );
        params
            .sv_method
            .validate_groups(params.num_groups)
            .expect("SV method must support the group count");
        assert_eq!(
            params.model_dim,
            (params.num_features + 1) * params.num_classes,
            "model_dim must equal (features+1)*classes"
        );
        assert_eq!(
            test_set.num_features(),
            params.num_features,
            "test set feature mismatch"
        );
        assert!(
            (1..=params.owners.len()).contains(&params.escrow_threshold),
            "escrow threshold out of range"
        );
        assert!(
            (1..=params.owners.len()).contains(&params.num_cohorts),
            "num_cohorts out of range"
        );
        // The second-level game enumerates coalitions over the cohorts,
        // and the within game needs every cohort to hold at least
        // num_groups members (both vacuous for the one cohort of a flat
        // round).
        params
            .sv_method
            .validate_groups(params.num_cohorts)
            .expect("SV method must support the cohort count");
        assert!(
            params.num_groups
                <= CohortPlan::min_cohort_size(params.owners.len(), params.num_cohorts),
            "num_groups exceeds the smallest cohort"
        );
        let global_model = vec![0.0; params.model_dim];
        let contributions = params.owners.iter().map(|&o| (o, 0.0)).collect();
        Self {
            utility: AccuracyUtility::new(&test_set, params.num_features, params.num_classes),
            params,
            gas: GasSchedule::default(),
            keys: BTreeMap::new(),
            escrows: BTreeMap::new(),
            current_round: 0,
            phase: RoundPhase::Submitting,
            submissions: BTreeMap::new(),
            recovery_shares: BTreeMap::new(),
            contributions,
            global_model,
            history: Vec::new(),
        }
    }

    /// Static parameters.
    pub fn params(&self) -> &FlParams {
        &self.params
    }

    /// Current (unevaluated) round.
    pub fn current_round(&self) -> u64 {
        self.current_round
    }

    /// True once all rounds are evaluated.
    pub fn finished(&self) -> bool {
        self.current_round >= self.params.total_rounds
    }

    /// Cumulative contribution (total SV `v_i = Σ_r v_i^r`) per owner.
    pub fn contributions(&self) -> &BTreeMap<AccountId, f64> {
        &self.contributions
    }

    /// The current global model (flat weights).
    pub fn global_model(&self) -> &[f64] {
        &self.global_model
    }

    /// The audit trail of evaluated rounds.
    pub fn history(&self) -> &[RoundRecord] {
        &self.history
    }

    /// Test-only mutable history access, used to *forge* audit records
    /// (e.g. a tampered survivor set) and prove the digest catches it.
    #[cfg(test)]
    pub(crate) fn history_mut(&mut self) -> &mut [RoundRecord] {
        &mut self.history
    }

    /// Advertised public key of an owner.
    pub fn public_key_of(&self, owner: AccountId) -> Option<&[u8]> {
        self.keys.get(&owner).map(Vec::as_slice)
    }

    /// Current lifecycle phase of the round under assembly.
    pub fn phase(&self) -> &RoundPhase {
        &self.phase
    }

    /// The escrow commitments an owner committed, if any.
    pub fn escrow_of(&self, owner: AccountId) -> Option<&[Hash32]> {
        self.escrows.get(&owner).map(Vec::as_slice)
    }

    /// What a chain observer sees for `owner` this round: the masked
    /// submission (used by the privacy analysis).
    pub fn observed_submission(&self, owner: AccountId) -> Option<&[u64]> {
        self.submissions.get(&owner).map(Vec::as_slice)
    }
}

/// Encodes a map as `len ‖ (key ‖ value)*` — the same shape the state
/// digest uses, but with an explicit length everywhere so the snapshot
/// is strictly decodable.
fn encode_map<K: Encode, V: Encode>(map: &BTreeMap<K, V>, out: &mut Vec<u8>) {
    (map.len() as u64).encode_to(out);
    for (k, v) in map {
        k.encode_to(out);
        v.encode_to(out);
    }
}

/// Strict inverse of [`encode_map`].
fn decode_map<K: Decode + Ord, V: Decode>(
    r: &mut Reader<'_>,
) -> Result<BTreeMap<K, V>, DecodeError> {
    let len = u64::decode_from(r)?;
    let mut map = BTreeMap::new();
    for _ in 0..len {
        let k = K::decode_from(r)?;
        let v = V::decode_from(r)?;
        map.insert(k, v);
    }
    Ok(map)
}

impl FlContract {
    /// Serializes the contract's **dynamic** state — everything that is
    /// not a genesis artefact — for a durability snapshot
    /// ([`fl_chain::durability::DurableStore::write_snapshot`]).
    ///
    /// The static half (params, test set) is deliberately excluded: both
    /// are public setup-stage artefacts an auditor already holds (the
    /// same ones [`crate::audit::replay_chain`] takes), and excluding
    /// them keeps snapshots proportional to the live state. The blob is
    /// opaque to the chain layer; [`FlContract::restore`] is its inverse,
    /// and `fedchain::audit::fast_sync` verifies a restored state against
    /// the committed state root before trusting it.
    pub fn snapshot_state(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.current_round.encode_to(&mut out);
        self.phase.encode_to(&mut out);
        encode_map(&self.keys, &mut out);
        encode_map(&self.escrows, &mut out);
        encode_map(&self.submissions, &mut out);
        (self.recovery_shares.len() as u64).encode_to(&mut out);
        for (dropped, providers) in &self.recovery_shares {
            dropped.encode_to(&mut out);
            (providers.len() as u64).encode_to(&mut out);
            for (provider, share) in providers {
                provider.encode_to(&mut out);
                share.x.encode_to(&mut out);
                share.y.to_be_bytes().encode_to(&mut out);
            }
        }
        encode_map(&self.contributions, &mut out);
        self.global_model.encode_to(&mut out);
        self.history.encode_to(&mut out);
        out
    }

    /// Rebuilds a contract from the genesis artefacts plus a
    /// [`FlContract::snapshot_state`] blob.
    ///
    /// Decoding is strict (truncated, malformed, or trailing bytes all
    /// `Err`), but a *well-formed forgery* cannot be detected here: the
    /// caller must check [`SmartContract::state_digest`] of the result
    /// against the state root committed at the snapshot height, as
    /// `fedchain::audit::fast_sync` does.
    ///
    /// # Panics
    ///
    /// Panics where [`FlContract::genesis`] does: on internally
    /// inconsistent genesis parameters.
    pub fn restore(
        params: FlParams,
        test_set: Dataset,
        snapshot: &[u8],
    ) -> Result<Self, DecodeError> {
        let mut c = Self::genesis(params, test_set);
        let mut r = Reader::new(snapshot);
        c.current_round = u64::decode_from(&mut r)?;
        c.phase = RoundPhase::decode_from(&mut r)?;
        c.keys = decode_map(&mut r)?;
        c.escrows = decode_map(&mut r)?;
        c.submissions = decode_map(&mut r)?;
        let dropped_count = u64::decode_from(&mut r)?;
        c.recovery_shares = BTreeMap::new();
        for _ in 0..dropped_count {
            let dropped = AccountId::decode_from(&mut r)?;
            let provider_count = u64::decode_from(&mut r)?;
            let mut providers = BTreeMap::new();
            for _ in 0..provider_count {
                let provider = AccountId::decode_from(&mut r)?;
                let x = u64::decode_from(&mut r)?;
                let y_bytes = <[u8; 32]>::decode_from(&mut r)?;
                providers.insert(
                    provider,
                    Share {
                        x,
                        y: U256::from_be_bytes(&y_bytes),
                    },
                );
            }
            c.recovery_shares.insert(dropped, providers);
        }
        c.contributions = decode_map(&mut r)?;
        c.global_model = Vec::decode_from(&mut r)?;
        c.history = Vec::decode_from(&mut r)?;
        if !r.is_empty() {
            return Err(DecodeError::TrailingBytes {
                remaining: r.remaining(),
            });
        }
        Ok(c)
    }
}

impl SmartContract for FlContract {
    type Call = FlCall;
    type Error = FlError;

    fn execute(&mut self, ctx: &TxContext, call: &FlCall) -> Result<ExecutionOutcome, FlError> {
        match call {
            FlCall::AdvertiseKey { public_key } => self.advertise_key(ctx.sender, public_key),
            FlCall::SubmitMaskedUpdate { round, masked } => {
                self.submit_update(ctx.sender, *round, masked)
            }
            FlCall::EvaluateRound { round } => self.evaluate_round(*round),
            FlCall::EscrowKeyShares { commitments } => {
                self.escrow_key_shares(ctx.sender, commitments)
            }
            FlCall::SubmitRecoveryShare {
                round,
                dropped,
                share_x,
                share_y,
            } => self.submit_recovery_share(ctx.sender, *round, *dropped, *share_x, share_y),
        }
    }

    fn state_digest(&self) -> Hash32 {
        let mut buf = Vec::new();
        self.params.encode_to(&mut buf);
        self.current_round.encode_to(&mut buf);
        self.phase.encode_to(&mut buf);
        (self.keys.len() as u64).encode_to(&mut buf);
        for (id, key) in &self.keys {
            id.encode_to(&mut buf);
            key.encode_to(&mut buf);
        }
        (self.escrows.len() as u64).encode_to(&mut buf);
        for (id, commitments) in &self.escrows {
            id.encode_to(&mut buf);
            commitments.encode_to(&mut buf);
        }
        (self.submissions.len() as u64).encode_to(&mut buf);
        for (id, update) in &self.submissions {
            id.encode_to(&mut buf);
            update.encode_to(&mut buf);
        }
        (self.recovery_shares.len() as u64).encode_to(&mut buf);
        for (dropped, providers) in &self.recovery_shares {
            dropped.encode_to(&mut buf);
            (providers.len() as u64).encode_to(&mut buf);
            for (provider, share) in providers {
                provider.encode_to(&mut buf);
                share.x.encode_to(&mut buf);
                share.y.to_be_bytes().encode_to(&mut buf);
            }
        }
        for (id, value) in &self.contributions {
            id.encode_to(&mut buf);
            value.encode_to(&mut buf);
        }
        self.global_model.encode_to(&mut buf);
        self.history.encode_to(&mut buf);
        Hash32::of("transparent-fl/state", &buf)
    }
}
