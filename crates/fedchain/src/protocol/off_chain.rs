//! The off-chain stage of a round: the owners train and mask in one
//! [`par::par_claim_mut`] region, then the round's calls are assembled
//! in consensus order and the next global model is predicted (the
//! pipeline contract in the `protocol` module docs).

use std::time::Instant;

use fl_chain::hash::Hash32;
use fl_chain::tx::AccountId;
use fl_crypto::dh::DhGroup;
use fl_crypto::shamir::Share;
use numeric::{par, FixedCodec, U256};
use shapley::hierarchy::RoundPlan;

use super::{ProtocolError, StageTimings};
use crate::config::{clamp_weights, FlConfig};
use crate::contract_fl::{group_mean, reduce_models, share_commitment, FlCall, FlContract};
use crate::owner::DataOwner;

/// One round's fully prepared off-chain work: everything the on-chain
/// stage needs to commit it, with no nonces assigned (nonces are
/// consensus-visible and belong to the on-chain stage).
pub(super) struct PreparedRound {
    pub(super) round: u64,
    /// Round-block calls in assembly order (submissions per cohort,
    /// then the `EvaluateRound` trigger).
    pub(super) calls: Vec<(AccountId, FlCall)>,
    /// Transactions per cohort bundle; `calls.len()` in total.
    pub(super) bundle_sizes: Vec<usize>,
    /// Recovery-block calls (shares + closing `EvaluateRound`); empty
    /// when the round schedules no dropouts.
    pub(super) recovery_calls: Vec<(AccountId, FlCall)>,
    /// The global model the contract will hold once this round commits
    /// — the pipeline handoff.
    pub(super) predicted_model: Vec<f64>,
    /// The off-chain stages' wall clock: `train_mask` and `assemble`.
    pub(super) timings: StageTimings,
}

/// One owner's round output — the masked submission and its plaintext
/// ring encoding; `None` for an owner scheduled to drop.
type Output = Option<(Vec<u64>, Vec<u64>)>;

/// Expanding and adding one ring element of a pair mask, in the
/// flop-equivalents [`par::items_per_lease`] takes.
const MASK_FLOPS_PER_ELEM: usize = 16;

/// The off-chain half of the round pipeline: owners, their escrow
/// shares, and the phase-0 key snapshot. Borrows are disjoint from the
/// on-chain stage's so the two halves can run concurrently.
pub(super) struct OffChainStage<'a> {
    config: &'a FlConfig,
    owners: &'a mut [DataOwner],
    escrows: &'a [Vec<Share>],
    /// Every owner's `(id, advertised DH public key)`, by position.
    keys: Vec<(AccountId, U256)>,
    /// Pair-secret cache epoch: digest of the full advertised key set,
    /// stable across rounds.
    epoch: [u8; 32],
    codec: FixedCodec,
}

impl<'a> OffChainStage<'a> {
    /// The stage over the phase-0 key directory, read once from
    /// `contract`. Keys never change after phase 0 (the contract rejects
    /// re-advertising), so this snapshot equals what any round would read
    /// from the live contract. Before the setup block it fails with
    /// [`ProtocolError::MissingAdvertisedKey`].
    pub(super) fn new(
        config: &'a FlConfig,
        owners: &'a mut [DataOwner],
        escrows: &'a [Vec<Share>],
        contract: &FlContract,
    ) -> Result<Self, ProtocolError> {
        let keys = owners
            .iter()
            .map(|owner| {
                let id = owner.id();
                let bytes = contract
                    .public_key_of(id)
                    .ok_or(ProtocolError::MissingAdvertisedKey { owner: id })?;
                Ok((id, U256::from_be_bytes(bytes)))
            })
            .collect::<Result<Vec<_>, ProtocolError>>()?;
        Ok(Self {
            epoch: fl_crypto::key_epoch(&keys),
            keys,
            codec: FixedCodec::new(config.frac_bits),
            config,
            owners,
            escrows,
        })
    }

    /// Prepares one round entirely off-chain: local training against
    /// `global_model`, masking, call assembly, and the next-model
    /// prediction. Touches neither the mempool nor the engine — `beside`
    /// may: it is the side task of the owners' region (the previous
    /// round's on-chain tail when pipelined), run on the calling thread
    /// and returned first.
    pub(super) fn prepare_round<S>(
        &mut self,
        round: u64,
        global_model: &[f64],
        beside: Option<impl FnOnce() -> S>,
    ) -> (Option<S>, Result<PreparedRound, ProtocolError>) {
        let n = self.owners.len();
        // The round's public layout — the same plan the contract
        // derives, so owners mask within exactly the groups the contract
        // aggregates over — and who drops, both derived once a round.
        let plan = match RoundPlan::new(
            self.config.permutation_seed,
            round,
            n,
            self.config.num_cohorts,
            self.config.num_groups,
        ) {
            Ok(plan) => plan,
            // The side task runs whatever this round's fate.
            Err(e) => return (beside.map(|task| task()), Err(ProtocolError::Layout(e))),
        };
        let dropped = self.config.dropped_in_round(round);

        // Every owner reads its group's keys from the phase-0 snapshot.
        let mut directories: Vec<Vec<(AccountId, U256)>> = Vec::new();
        let mut group_of = vec![0usize; n];
        for group in plan.groups().iter().flatten() {
            for &idx in group {
                group_of[idx] = directories.len();
            }
            directories.push(group.iter().map(|&idx| self.keys[idx]).collect());
        }

        // Every weight is clamped before it is encoded — for the masked
        // submission and the plaintext handoff alike — so no group's
        // ring sum can wrap.
        let clamp = self.config.weight_clamp();
        let (features, classes) = (self.config.data.features, self.config.data.classes);
        let (codec, epoch) = (&self.codec, self.epoch);

        // Local training + masking, off-chain per owner. In deployment
        // every owner computes on its own machine simultaneously; here the
        // owners fan out across cores. Each owner's update depends only on
        // its own shard, RNG, and the (shared, read-only) global model, so
        // the updates are bit-identical to a sequential pass. Owners
        // scheduled to drop vanish before producing anything visible. The
        // plaintext ring encoding rides along for the handoff prediction.
        //
        // An owner costs its epochs — two products over its shard each —
        // and a key agreement plus a mask expansion per group peer.
        let dim = (features + 1) * classes;
        let shard_rows = self.owners.iter().map(DataOwner::shard_len).sum::<usize>() / n;
        let peers = n / directories.len();
        let owner_flops = self.config.train.epochs * shard_rows * dim * 4
            + peers * (DhGroup::simulation_256().agreement_flops() + dim * MASK_FLOPS_PER_ELEM);
        let (beside, outputs) = par::par_claim_mut(
            &mut *self.owners,
            par::items_per_lease(owner_flops),
            beside,
            |idx, owner| {
                let started = Instant::now();
                let output = dropped.binary_search(&idx).is_err().then(|| {
                    let mut update = owner.local_update(global_model, features, classes);
                    clamp_weights(&mut update, clamp);
                    let plain = codec.encode_vec(&update);
                    let directory = &directories[group_of[idx]];
                    let masked = owner.mask_update_cached(&update, round, directory, epoch);
                    masked.map(|masked| (masked, plain))
                });
                (started, Instant::now(), output.transpose())
            },
        );
        // The stage's wall clock runs from the first owner claimed to the
        // last one done — the side task is another stage's time.
        let first = outputs.iter().map(|(started, _, _)| *started).min();
        let last = outputs.iter().map(|(_, finished, _)| *finished).max();
        let train_mask = first
            .zip(last)
            .map_or(0.0, |(first, last)| (last - first).as_secs_f64());
        let prepared = outputs
            .into_iter()
            .map(|(_, _, output)| output)
            .collect::<Result<_, _>>()
            .map_err(ProtocolError::from)
            .and_then(|outputs| self.assemble_round(round, &plan, &dropped, outputs, train_mask));
        (beside, prepared)
    }

    /// The second half of [`Self::prepare_round`]: from what the owners
    /// produced, the round's calls in consensus order, the next-model
    /// prediction and the recovery block.
    fn assemble_round(
        &self,
        round: u64,
        plan: &RoundPlan,
        dropped: &[usize],
        mut outputs: Vec<Output>,
        train_mask: f64,
    ) -> Result<PreparedRound, ProtocolError> {
        let started = Instant::now();
        // The survivors are exactly the owners that produced an output.
        // Anyone alive may trigger evaluation; the first survivor does.
        // With owners missing this transaction opens recovery instead of
        // evaluating — same call, driven by the contract's state machine.
        let survivors: Vec<usize> = (0..outputs.len())
            .filter(|&idx| outputs[idx].is_some())
            .collect();
        let first = survivors
            .first()
            .ok_or(ProtocolError::NoSurvivors { round })?;
        let trigger = self.owners[*first].id();

        // Handoff prediction: masks cancel exactly in the u64 ring, so
        // per group the masked-sum-then-strip the contract runs equals
        // the plaintext ring sum over the group's survivors. Both go
        // through the contract's `group_mean`, and its `reduce_models`
        // folds the group means into the model the round will commit.
        let survivor_means: Vec<Vec<Vec<f64>>> = plan
            .groups()
            .iter()
            .map(|cohort| {
                cohort
                    .iter()
                    .filter_map(|group| {
                        let plain: Vec<&[u64]> = group
                            .iter()
                            .filter_map(|&idx| Some(outputs[idx].as_ref()?.1.as_slice()))
                            .collect();
                        group_mean(&self.codec, &plain, |_| {})
                    })
                    .collect()
            })
            .collect();
        let (_, predicted_model) = reduce_models(&survivor_means);

        // Call assembly order is consensus-visible (it becomes nonce and
        // block order); bundle boundaries follow the cohort plan — one
        // bundle per cohort, in plan order. The trigger rides in the
        // last: every earlier cohort's submissions are then
        // already-committed blocks.
        let cohorts = plan.groups().len();
        let mut calls: Vec<(AccountId, FlCall)> = Vec::with_capacity(survivors.len() + 1);
        let mut bundle_sizes: Vec<usize> = Vec::with_capacity(cohorts);
        for (c, cohort) in plan.groups().iter().enumerate() {
            let before = calls.len();
            for &idx in cohort.iter().flatten() {
                if let Some((masked, _)) = outputs[idx].take() {
                    let call = FlCall::SubmitMaskedUpdate { round, masked };
                    calls.push((self.owners[idx].id(), call));
                }
            }
            if c + 1 == cohorts {
                calls.push((trigger, FlCall::EvaluateRound { round }));
            }
            bundle_sizes.push(calls.len() - before);
        }

        // Recovery block (assembled here, committed only after the main
        // block): threshold-many survivors reveal their escrowed shares
        // for every dropped owner, then the closing EvaluateRound
        // reconstructs the keys, strips the residual masks, and
        // evaluates on the survivors.
        let providers = &survivors[..survivors.len().min(self.config.escrow_threshold())];
        let mut recovery_calls: Vec<(AccountId, FlCall)> = dropped
            .iter()
            .flat_map(|&d| {
                providers.iter().map(move |&provider| {
                    let share = &self.escrows[d][provider];
                    let call = FlCall::SubmitRecoveryShare {
                        round,
                        dropped: self.owners[d].id(),
                        share_x: share.x,
                        share_y: share.y.to_be_bytes(),
                    };
                    (self.owners[provider].id(), call)
                })
            })
            .collect();
        if !dropped.is_empty() {
            recovery_calls.push((trigger, FlCall::EvaluateRound { round }));
        }

        Ok(PreparedRound {
            round,
            calls,
            bundle_sizes,
            recovery_calls,
            predicted_model,
            timings: StageTimings {
                train_mask,
                assemble: started.elapsed().as_secs_f64(),
                ..StageTimings::default()
            },
        })
    }
}

/// The setup block's calls (phase 0): every owner advertises its DH
/// public key and escrows hash commitments to the Shamir shares of its
/// private key — the on-chain half of the dropout extension.
pub(super) fn setup_calls(
    owners: &[DataOwner],
    escrows: &[Vec<Share>],
) -> Vec<(AccountId, FlCall)> {
    let mut calls: Vec<(AccountId, FlCall)> = owners
        .iter()
        .map(|owner| {
            let public_key = owner.public_key_bytes();
            (owner.id(), FlCall::AdvertiseKey { public_key })
        })
        .collect();
    // No escrows were generated when the run schedules no dropouts; the
    // setup block is then keys-only.
    for (owner, shares) in owners.iter().zip(escrows) {
        let id = owner.id();
        let commitments: Vec<Hash32> = shares
            .iter()
            .map(|share| share_commitment(id, share))
            .collect();
        calls.push((id, FlCall::EscrowKeyShares { commitments }));
    }
    calls
}
