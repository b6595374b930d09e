//! The federated-learning smart contract.
//!
//! Paper Sect. III: "in our setting, Smart contract builds the FL model
//! and evaluates the contribution." The contract is a deterministic state
//! machine executed identically by every miner:
//!
//! * **AdvertiseKey** — a data owner registers its DH public key (round 0
//!   of secure aggregation).
//! * **EscrowKeyShares** — a data owner commits hash commitments to the
//!   Shamir shares of its DH private key, one per cohort member (the
//!   shares themselves travel off-chain to their holders). The
//!   commitments are bound into the state digest, so the escrow cannot
//!   be rewritten after the fact.
//! * **SubmitMaskedUpdate** — a data owner submits its masked local
//!   weights for the current round. The contract can *never* unmask an
//!   individual submission: masks only cancel in the within-group sum.
//! * **SubmitRecoveryShare** — during recovery, a surviving owner
//!   reveals its escrowed share of a dropped owner's key; the contract
//!   checks it against the escrowed commitment before accepting it.
//! * **EvaluateRound** — drives the round state machine (see
//!   [`FlContract`]): with every submission in it evaluates immediately;
//!   with owners missing it declares them dropped and opens recovery;
//!   called again with ≥ threshold verified shares per dropped owner it
//!   reconstructs the dropped keys, strips the residual masks, and
//!   evaluates the group-model game **restricted to survivors**.
//!
//! # One round path
//!
//! Evaluation is the paper's Algorithm 1 executed over one
//! [`shapley::hierarchy::RoundPlan`] — the round's cohorts, the
//! secure-aggregation groups within each cohort and the per-cohort seed
//! streams, derived from the digest-bound
//! `(permutation_seed, round, n, num_cohorts, num_groups)`. Per cohort
//! the contract aggregates the group models (`group_mean`: ring sum of
//! the survivors, residual masks stripped, mean decoded) and runs the
//! configured estimator; `reduce_models` folds the group models into cohort
//! aggregates and the global model; for `num_cohorts > 1` a second-level
//! game over the cohort aggregates prices the cohorts and
//! [`shapley::hierarchy::compose`] scales the within-cohort values. The
//! paper's flat round is the one-cohort plan run through the same code:
//! its single cohort holds every owner, no second-level game is played,
//! and its [`RoundRecord`] carries no per-cohort section.
//!
//! Everything the contract decides — including *which* estimator ran,
//! its sampling diagnostics, the survivor set, and the recovery
//! evidence — is emitted as events and bound by the state digest, so
//! a fraudulent leader cannot tamper with the evaluation (or quietly
//! swap the method, or forge the survivor set) without every honest
//! miner's re-execution diverging at the first state root. The digest
//! binds the parameters, round and phase, every key, escrow commitment,
//! masked word and recovery share, the contributions, the global model
//! and every field of every [`RoundRecord`], as a root over per-section
//! digests memoised until their section is next borrowed mutably — a
//! block pays for what it changed (layout: `state_digest` below).

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, OnceLock};

use fl_chain::codec::Encode;
use fl_chain::contract::ExecutionOutcome;
use fl_chain::gas::GasSchedule;
use fl_chain::hash::Hash32;
use fl_chain::tx::AccountId;
use fl_crypto::dh::DhGroup;
use fl_crypto::shamir::Share;
use fl_ml::dataset::Dataset;
use numeric::{FixedCodec, U256};
use shapley::hierarchy::RoundPlan;

use crate::config::SvMethod;

mod calls;
mod evaluate;
mod records;
mod section;
mod state;
#[cfg(test)]
mod tests;

pub use calls::{share_commitment, FlCall, FlError};
pub use evaluate::AccuracyUtility;
pub(crate) use evaluate::{group_mean, reduce_models};
pub use records::{CohortEvidence, RecoveryEvidence, RoundPhase, RoundRecord};
use section::Section;

/// Static protocol parameters agreed at the off-chain setup stage.
#[derive(Debug, Clone, PartialEq)]
pub struct FlParams {
    /// Participating data owners (also the miner set).
    pub owners: Vec<AccountId>,
    /// Number of SV groups `m`.
    pub num_groups: usize,
    /// Contribution-evaluation method every miner dispatches to.
    pub sv_method: SvMethod,
    /// Public permutation seed `e`.
    pub permutation_seed: u64,
    /// Total rounds `R`.
    pub total_rounds: u64,
    /// Flat model dimension (`(features+1) × classes`).
    pub model_dim: usize,
    /// Feature count of the model.
    pub num_features: usize,
    /// Class count of the model.
    pub num_classes: usize,
    /// Fixed-point fractional bits of the aggregation ring.
    pub frac_bits: u32,
    /// Shamir threshold of the key escrow: recovery of a dropped owner's
    /// key needs verified shares from this many surviving owners.
    pub escrow_threshold: usize,
    /// Number of cohorts `k` of each round's
    /// [`shapley::hierarchy::RoundPlan`]: the group game runs *within*
    /// each cohort and, for `k > 1`, a second-level game over the cohort
    /// aggregate models prices the cohorts against each other. `k = 1`
    /// is the paper's flat round — one cohort holding every owner, no
    /// second level.
    pub num_cohorts: usize,
}

impl Encode for FlParams {
    fn encode_to(&self, out: &mut Vec<u8>) {
        self.owners.encode_to(out);
        self.num_groups.encode_to(out);
        self.sv_method.encode_to(out);
        self.permutation_seed.encode_to(out);
        self.total_rounds.encode_to(out);
        self.model_dim.encode_to(out);
        self.num_features.encode_to(out);
        self.num_classes.encode_to(out);
        (self.frac_bits as u64).encode_to(out);
        self.escrow_threshold.encode_to(out);
        self.num_cohorts.encode_to(out);
    }
}

impl FlParams {
    /// Checks the parameters against each other and against the public
    /// test set — what [`FlContract::genesis`] requires of them. An
    /// auditor handed parameters from outside calls this before it builds
    /// a replica from them.
    ///
    /// # Errors
    ///
    /// [`FlError::InvalidParams`] naming the first check that fails.
    pub fn validate(&self, test_set: &Dataset) -> Result<(), FlError> {
        let n = self.owners.len();
        let fail = |reason: String| Err(FlError::InvalidParams(reason));
        if n < 2 {
            return fail(format!("need >= 2 owners, got {n}"));
        }
        // A repeated id is one key slot for two positions: its second
        // key never lands and no round gets past `KeysIncomplete`.
        let mut seen = BTreeSet::new();
        if let Some(id) = self.owners.iter().find(|&&id| !seen.insert(id)) {
            return fail(format!("duplicate owner id {id}"));
        }
        if !(1..=n).contains(&self.num_groups) {
            return fail(format!(
                "num_groups out of range: {} outside 1..={n}",
                self.num_groups
            ));
        }
        if let Err(e) = self.sv_method.validate_groups(self.num_groups) {
            return fail(format!("SV method must support the group count: {e}"));
        }
        let dim = self
            .num_features
            .checked_add(1)
            .and_then(|f| f.checked_mul(self.num_classes));
        if dim != Some(self.model_dim) {
            return fail(format!(
                "model_dim must equal (features+1)*classes: {} for {} features, {} classes",
                self.model_dim, self.num_features, self.num_classes
            ));
        }
        if test_set.num_features() != self.num_features {
            return fail(format!(
                "test set feature mismatch: {} features, params say {}",
                test_set.num_features(),
                self.num_features
            ));
        }
        // `finish_round` decodes the aggregate with this codec.
        if !FixedCodec::FRAC_BITS.contains(&self.frac_bits) {
            return fail(format!("frac_bits {} outside 1..=52", self.frac_bits));
        }
        if !(1..=n).contains(&self.escrow_threshold) {
            return fail(format!(
                "escrow threshold out of range: {} outside 1..={n}",
                self.escrow_threshold
            ));
        }
        // Cohorts in 1..=n, groups that fit the smallest cohort: the
        // layout's own rules, which hold for every round if for one.
        if let Err(e) = RoundPlan::new(
            self.permutation_seed,
            0,
            n,
            self.num_cohorts,
            self.num_groups,
        ) {
            return fail(format!("round layout: {e}"));
        }
        // The second-level game enumerates coalitions over the cohorts
        // (vacuous for the one cohort of a flat round).
        if let Err(e) = self.sv_method.validate_groups(self.num_cohorts) {
            return fail(format!("SV method must support the cohort count: {e}"));
        }
        Ok(())
    }
}

/// The contract state. `Clone` gives each miner an independent replica
/// for one pointer per section: a replica copies a section the first
/// time it writes to it, so a block costs what it touched.
///
/// # Round state machine
///
/// Each round walks a deterministic lifecycle, driven entirely by
/// committed transactions:
///
/// ```text
///              SubmitMaskedUpdate×k          EvaluateRound
///  Submitting ────────────────────▶ Submitting ──────────┐
///      │                                                 │ all owners
///      │ EvaluateRound, owners missing                   │ submitted
///      ▼                                                 ▼
///  Recovering { dropped }                            Evaluated
///      │  SubmitRecoveryShare×(≥t per dropped)      (RoundRecord,
///      │                                             round += 1,
///      └───────────── EvaluateRound ────────────▶    → Submitting)
/// ```
///
/// * **Submitting** — masked updates accumulate. `EvaluateRound` with a
///   complete cohort evaluates immediately (the paper's original path).
///   With owners missing — and provided the survivors can reach the
///   escrow threshold and every missing owner escrowed its key shares —
///   the round transitions to *Recovering* and the missing owners are
///   declared dropped; late submissions are rejected from that point on.
/// * **Recovering** — survivors reveal their escrowed shares of each
///   dropped key via [`FlCall::SubmitRecoveryShare`]; each share is
///   checked against its on-chain commitment before it counts. A second
///   `EvaluateRound` (with ≥ threshold shares per dropped owner)
///   reconstructs every dropped key, verifies it against the advertised
///   DH public key, strips the residual pairwise masks from each group's
///   partial aggregate, and evaluates the group-model game **over the
///   survivors' groups**: dropped owners score exactly zero, groups whose
///   members all dropped are not players of the game at all.
/// * **Evaluated** — terminal per round: the [`RoundRecord`] (survivor
///   set, dropout set, and recovery evidence included) is appended to
///   the history, the phase resets to *Submitting*, and the round
///   counter advances.
///
/// The phase, the escrow commitments, and every accepted recovery share
/// are part of the state digest, so a replica (or auditor) that disagrees
/// on any lifecycle step — including the survivor set — diverges at the
/// first state root.
#[derive(Debug, Clone)]
pub struct FlContract {
    genesis: Arc<Genesis>,
    gas: GasSchedule,
    keys: Section<Table<Vec<u8>>>,
    /// Escrow commitments per owner: entry `j` commits the Shamir share
    /// of the owner's DH private key destined for owner position `j`.
    escrows: Section<Table<Vec<Hash32>>>,
    current_round: u64,
    phase: RoundPhase,
    /// Each masked update memoises its own leaf digest.
    submissions: Section<Table<Section<Vec<u64>>>>,
    /// Verified recovery shares: dropped owner → (provider → share).
    recovery_shares: Table<Table<Share>>,
    contributions: Section<BTreeMap<AccountId, f64>>,
    global_model: Section<Vec<f64>>,
    /// Shared record by record: a replica clone copies one pointer per
    /// evaluated round.
    history: Vec<Arc<RoundRecord>>,
    /// `history_leaves[i]` memoises the leaf digest of `history[i]`.
    history_leaves: Section<Vec<OnceLock<Hash32>>>,
}

/// What genesis fixes for the life of the chain; replica clones share it.
#[derive(Debug)]
struct Genesis {
    params: FlParams,
    /// Owner positions in ascending id: where an id becomes a position.
    by_id: Vec<usize>,
    /// The `/params` row of the state digest.
    params_digest: Hash32,
    /// The utility function over the public test set (agreed at setup;
    /// the *training* shards never leave their owners), conditioned
    /// once. Derived from the genesis artefacts alone, so it is in
    /// neither the state digest nor the snapshot.
    utility: AccuracyUtility,
}

/// Per-owner state: a slot per genesis position, and how many are filled.
#[derive(Debug, Clone)]
struct Table<T> {
    slots: Vec<Option<T>>,
    filled: usize,
}

impl<T: Clone> Table<T> {
    fn new(n: usize) -> Self {
        let slots = vec![None; n];
        Self { slots, filled: 0 }
    }

    /// The value in slot `p`, put there by `make` if the slot is empty.
    fn fill(&mut self, p: usize, make: impl FnOnce() -> T) -> &mut T {
        self.filled += usize::from(self.slots[p].is_none());
        self.slots[p].get_or_insert_with(make)
    }
}

impl Genesis {
    fn position(&self, id: AccountId) -> Result<usize, FlError> {
        let owners = &self.params.owners;
        let rank = self.by_id.binary_search_by_key(&id, |&p| owners[p]);
        Ok(self.by_id[rank.map_err(|_| FlError::NotAnOwner(id))?])
    }
}

/// Checks a key as [`FlCall::AdvertiseKey`] and [`FlContract::restore`]
/// accept it: 32 bytes, so no later `U256::from_be_bytes` can panic, and
/// a group element the DH layer accepts — not degenerate (0, 1, p−1: a
/// predictable pair mask) nor non-canonical (>= p: a wedged round).
fn check_key(owner: AccountId, key: &[u8]) -> Result<(), FlError> {
    if key.len() != 32 {
        return Err(FlError::BadKeyEncoding {
            expected: 32,
            got: key.len(),
        });
    }
    let element = U256::from_be_bytes(key);
    let checked = DhGroup::simulation_256().validate_public_key(&element);
    checked.map_err(|reason| FlError::InvalidKeyElement {
        owner,
        reason: reason.to_string(),
    })
}

impl FlContract {
    fn check_round(&self, round: u64) -> Result<(), FlError> {
        if self.finished() {
            return Err(FlError::ProtocolFinished);
        }
        if round != self.current_round {
            return Err(FlError::WrongRound {
                expected: self.current_round,
                got: round,
            });
        }
        Ok(())
    }

    fn advertise_key(
        &mut self,
        sender: usize,
        public_key: &[u8],
    ) -> Result<ExecutionOutcome, FlError> {
        let id = self.params().owners[sender];
        if self.keys.slots[sender].is_some() {
            return Err(FlError::KeyAlreadyAdvertised(id));
        }
        check_key(id, public_key)?;
        self.keys.fill(sender, || public_key.to_vec());
        let gas = self.gas.charge(public_key.len().div_ceil(8), 0);
        Ok(ExecutionOutcome::event(
            format!(
                "key: owner {id} advertised ({}/{})",
                self.keys.filled,
                self.params().owners.len()
            ),
            gas,
        ))
    }

    fn submit_update(
        &mut self,
        sender: usize,
        round: u64,
        masked: &[u64],
    ) -> Result<ExecutionOutcome, FlError> {
        let id = self.params().owners[sender];
        let n = self.params().owners.len();
        let have = self.keys.filled;
        if have != n {
            return Err(FlError::KeysIncomplete { have, need: n });
        }
        self.check_round(round)?;
        if matches!(self.phase, RoundPhase::Recovering { .. }) {
            // The sender was declared dropped when recovery opened; a
            // late submission would change the survivor set after the
            // fact and is rejected deterministically.
            return Err(FlError::RoundInRecovery(round));
        }
        if self.submissions.slots[sender].is_some() {
            return Err(FlError::DuplicateSubmission(id));
        }
        if masked.len() != self.params().model_dim {
            return Err(FlError::DimMismatch {
                expected: self.params().model_dim,
                got: masked.len(),
            });
        }
        self.submissions
            .fill(sender, || Section::new(masked.to_vec()));
        let gas = self.gas.charge(masked.len(), masked.len());
        Ok(ExecutionOutcome::event(
            format!(
                "submit: owner {id} round {round} ({}/{n})",
                self.submissions.filled
            ),
            gas,
        ))
    }

    fn escrow_key_shares(
        &mut self,
        sender: usize,
        commitments: &[Hash32],
    ) -> Result<ExecutionOutcome, FlError> {
        let id = self.params().owners[sender];
        if self.finished() {
            return Err(FlError::ProtocolFinished);
        }
        if self.keys.slots[sender].is_none() {
            // The escrow secret-shares the advertised key; without the
            // key there is nothing for recovery to verify against.
            return Err(FlError::EscrowWithoutKey(id));
        }
        if self.escrows.slots[sender].is_some() {
            return Err(FlError::EscrowAlreadyCommitted(id));
        }
        let n = self.params().owners.len();
        if commitments.len() != n {
            return Err(FlError::EscrowSizeMismatch {
                expected: n,
                got: commitments.len(),
            });
        }
        self.escrows.fill(sender, || commitments.to_vec());
        let gas = self.gas.charge(commitments.len() * 4, 0);
        Ok(ExecutionOutcome::event(
            format!(
                "escrow: owner {id} committed {n} share commitments ({}/{n})",
                self.escrows.filled
            ),
            gas,
        ))
    }

    fn submit_recovery_share(
        &mut self,
        sender: usize,
        round: u64,
        dropped: AccountId,
        share_x: u64,
        share_y: &[u8],
    ) -> Result<ExecutionOutcome, FlError> {
        let provider = self.params().owners[sender];
        self.check_round(round)?;
        let RoundPhase::Recovering { dropped: ref set } = self.phase else {
            return Err(FlError::NotRecovering(round));
        };
        if !set.contains(&dropped) {
            return Err(FlError::NotDropped(dropped));
        }
        let d = self.genesis.position(dropped)?;
        if self.submissions.slots[sender].is_none() {
            return Err(FlError::NotASurvivor(provider));
        }
        let expected_x = sender as u64 + 1;
        if share_x != expected_x {
            return Err(FlError::BadRecoveryShare {
                expected_x,
                got: share_x,
            });
        }
        // Length-check before parsing: `U256::from_be_bytes` panics on
        // oversized input, and a panic inside `execute` would take down
        // every re-executing replica on one malformed transaction.
        if share_y.len() != 32 {
            return Err(FlError::BadShareEncoding {
                expected: 32,
                got: share_y.len(),
            });
        }
        let share = Share {
            x: share_x,
            y: U256::from_be_bytes(share_y),
        };
        // Recovery opens for escrowed owners; a snapshot may still lack one.
        let Some(escrow) = &self.escrows.slots[d] else {
            return Err(FlError::EscrowMissing(dropped));
        };
        if share_commitment(dropped, &share) != escrow[sender] {
            return Err(FlError::ShareCommitmentMismatch { dropped, provider });
        }
        let n = self.params().owners.len();
        let shares = self.recovery_shares.fill(d, || Table::new(n));
        if shares.slots[sender].is_some() {
            return Err(FlError::DuplicateRecoveryShare { dropped, provider });
        }
        shares.fill(sender, || share);
        let have = shares.filled;
        let need = self.params().escrow_threshold;
        let gas = self.gas.charge(4, 0);
        Ok(ExecutionOutcome::event(
            format!(
                "recover: owner {provider} revealed share for dropped {dropped} ({have}/{need})"
            ),
            gas,
        ))
    }

    fn evaluate_round(&mut self, round: u64) -> Result<ExecutionOutcome, FlError> {
        self.check_round(round)?;
        let need = self.params().escrow_threshold;
        let owners = &self.genesis.params.owners;
        match &self.phase {
            RoundPhase::Submitting => {
                let missing: Vec<usize> = (0..owners.len())
                    .filter(|&p| self.submissions.slots[p].is_none())
                    .collect();
                if missing.is_empty() {
                    return self.finish_round(round, &[]);
                }
                // Opening recovery is only sound if the dropped keys are
                // actually recoverable: the survivors must be able to
                // reach the escrow threshold, and every missing owner
                // must have escrowed its shares.
                let survivors = owners.len() - missing.len();
                if survivors < need {
                    return Err(FlError::InsufficientSurvivors { survivors, need });
                }
                if let Some(&d) = missing.iter().find(|&&d| self.escrows.slots[d].is_none()) {
                    return Err(FlError::EscrowMissing(owners[d]));
                }
                let dropped: Vec<AccountId> = missing.iter().map(|&d| owners[d]).collect();
                let gas = self.gas.charge(missing.len() * 2, 0);
                let event = format!(
                    "recover: round {round} entered recovery, dropped {dropped:?}, \
                     {survivors} survivors"
                );
                self.phase = RoundPhase::Recovering { dropped };
                Ok(ExecutionOutcome::event(event, gas))
            }
            RoundPhase::Recovering { dropped } => {
                let dropped = dropped
                    .iter()
                    .map(|&d| self.genesis.position(d))
                    .collect::<Result<Vec<usize>, FlError>>()?;
                for &d in &dropped {
                    let have = self.recovery_shares.slots[d]
                        .as_ref()
                        .map_or(0, |s| s.filled);
                    if have < need {
                        return Err(FlError::RecoveryIncomplete {
                            dropped: owners[d],
                            have,
                            need,
                        });
                    }
                }
                self.finish_round(round, &dropped)
            }
        }
    }
}
