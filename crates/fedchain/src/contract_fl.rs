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
//! the contract aggregates the group models and runs the configured
//! estimator; `reduce_models` folds the group models into cohort
//! aggregates and the global model; for `num_cohorts > 1` a second-level
//! game over the cohort aggregates prices the cohorts and
//! [`shapley::hierarchy::compose`] scales the within-cohort values. The
//! paper's flat round is the one-cohort plan run through the same code:
//! its single cohort holds every owner, no second-level game is played,
//! and its [`RoundRecord`] carries no per-cohort section.
//!
//! Everything the contract decides — including *which* estimator ran,
//! its sampling diagnostics, the survivor set, and the recovery
//! evidence — is emitted as events and captured in the state digest, so
//! a fraudulent leader cannot tamper with the evaluation (or quietly
//! swap the method, or forge the survivor set) without every honest
//! miner's re-execution diverging at the first state root.

use std::collections::{BTreeMap, BTreeSet};

use fl_chain::codec::{Decode, DecodeError, Encode, Reader};
use fl_chain::contract::{ExecutionOutcome, SmartContract, TxContext};
use fl_chain::gas::GasSchedule;
use fl_chain::hash::Hash32;
use fl_chain::tx::AccountId;
use fl_crypto::dh::DhGroup;
use fl_crypto::dropout::{reconstruct_private_key, strip_dropped_set_masks};
use fl_crypto::shamir::{Shamir, Share};
use fl_ml::dataset::Dataset;
use fl_ml::metrics::model_accuracy_design;
use fl_ml::LogisticModel;
use numeric::linalg::mean_vectors;
use numeric::{FixedCodec, U256};
use shapley::estimator::{Exact, MonteCarlo, Stratified, SvEstimate, SvEstimator};
use shapley::group::GroupModelGame;
use shapley::hierarchy::{compose, CohortPlan, RoundPlan};
use shapley::monte_carlo::McConfig;
use shapley::stratified::StratifiedConfig;
use shapley::utility::{CachedUtility, ModelUtility, RestrictedGame};

use crate::config::SvMethod;

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

/// Contract calls.
#[derive(Debug, Clone, PartialEq)]
pub enum FlCall {
    /// Register the sender's DH public key (big-endian bytes).
    AdvertiseKey {
        /// Public key bytes.
        public_key: Vec<u8>,
    },
    /// Submit the sender's masked fixed-point update for `round`.
    SubmitMaskedUpdate {
        /// Target round.
        round: u64,
        /// Masked ring vector of length `model_dim`.
        masked: Vec<u64>,
    },
    /// Drive the round state machine: evaluate `round` if complete, open
    /// recovery if submissions are missing, or finish recovery once
    /// enough shares are in.
    EvaluateRound {
        /// Round to evaluate.
        round: u64,
    },
    /// Commit hash commitments to the Shamir shares of the sender's DH
    /// private key — `commitments[j]` commits the share destined for
    /// owner position `j` (see [`share_commitment`]).
    EscrowKeyShares {
        /// One commitment per cohort member, by owner position.
        commitments: Vec<Hash32>,
    },
    /// Reveal the sender's escrowed share of a dropped owner's key
    /// during the recovery phase of `round`.
    SubmitRecoveryShare {
        /// Round under recovery.
        round: u64,
        /// The dropped owner whose key the share belongs to.
        dropped: AccountId,
        /// Share evaluation point (the sender's owner position + 1).
        share_x: u64,
        /// Share value, big-endian field-element bytes.
        share_y: Vec<u8>,
    },
}

impl Encode for FlCall {
    fn encode_to(&self, out: &mut Vec<u8>) {
        match self {
            FlCall::AdvertiseKey { public_key } => {
                out.push(0);
                public_key.encode_to(out);
            }
            FlCall::SubmitMaskedUpdate { round, masked } => {
                out.push(1);
                round.encode_to(out);
                masked.encode_to(out);
            }
            FlCall::EvaluateRound { round } => {
                out.push(2);
                round.encode_to(out);
            }
            FlCall::EscrowKeyShares { commitments } => {
                out.push(3);
                commitments.encode_to(out);
            }
            FlCall::SubmitRecoveryShare {
                round,
                dropped,
                share_x,
                share_y,
            } => {
                out.push(4);
                round.encode_to(out);
                dropped.encode_to(out);
                share_x.encode_to(out);
                share_y.encode_to(out);
            }
        }
    }
}

impl Decode for FlCall {
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.take_u8()? {
            0 => Ok(FlCall::AdvertiseKey {
                public_key: Vec::decode_from(r)?,
            }),
            1 => Ok(FlCall::SubmitMaskedUpdate {
                round: u64::decode_from(r)?,
                masked: Vec::decode_from(r)?,
            }),
            2 => Ok(FlCall::EvaluateRound {
                round: u64::decode_from(r)?,
            }),
            3 => Ok(FlCall::EscrowKeyShares {
                commitments: Vec::decode_from(r)?,
            }),
            4 => Ok(FlCall::SubmitRecoveryShare {
                round: u64::decode_from(r)?,
                dropped: AccountId::decode_from(r)?,
                share_x: u64::decode_from(r)?,
                share_y: Vec::decode_from(r)?,
            }),
            tag => Err(DecodeError::BadTag {
                type_name: "FlCall",
                tag,
            }),
        }
    }
}

/// Commitment to one escrowed Shamir share, as committed on-chain by
/// [`FlCall::EscrowKeyShares`] and checked when the share is revealed by
/// [`FlCall::SubmitRecoveryShare`]. Domain-separated and bound to the
/// escrowing owner, so a share can never be replayed against a different
/// owner's escrow.
pub fn share_commitment(owner: AccountId, share: &Share) -> Hash32 {
    Hash32::of(
        "transparent-fl/escrow-share",
        &(owner, share.x, share.y.to_be_bytes()),
    )
}

/// Contract-level errors (abort the block proposal).
#[derive(Debug, Clone, PartialEq)]
pub enum FlError {
    /// Sender is not a registered data owner.
    NotAnOwner(AccountId),
    /// Sender advertised a key twice.
    KeyAlreadyAdvertised(AccountId),
    /// An update arrived before all keys were advertised.
    KeysIncomplete {
        /// Keys registered so far.
        have: usize,
        /// Keys required.
        need: usize,
    },
    /// Call targeted the wrong round.
    WrongRound {
        /// Current round of the contract.
        expected: u64,
        /// Round named by the call.
        got: u64,
    },
    /// Sender already submitted this round.
    DuplicateSubmission(AccountId),
    /// Update has the wrong dimension.
    DimMismatch {
        /// Expected length.
        expected: usize,
        /// Received length.
        got: usize,
    },
    /// All `total_rounds` rounds already evaluated.
    ProtocolFinished,
    /// An advertised public key was not a full-width group element.
    BadKeyEncoding {
        /// Required byte length.
        expected: usize,
        /// Received byte length.
        got: usize,
    },
    /// An advertised public key decoded but is not a usable group element
    /// (degenerate — 0, 1, p−1 — or non-canonical `>= p`); accepting it
    /// would let the owner force a predictable pair mask on every peer.
    InvalidKeyElement {
        /// The offending owner.
        owner: AccountId,
        /// Why the DH layer rejected the key.
        reason: String,
    },
    /// A revealed share value was not a full-width field element.
    BadShareEncoding {
        /// Required byte length.
        expected: usize,
        /// Received byte length.
        got: usize,
    },
    /// An owner tried to escrow key shares before advertising its key.
    EscrowWithoutKey(AccountId),
    /// An owner committed its escrow twice.
    EscrowAlreadyCommitted(AccountId),
    /// An escrow did not carry one commitment per cohort member.
    EscrowSizeMismatch {
        /// Cohort size.
        expected: usize,
        /// Commitments received.
        got: usize,
    },
    /// A missing owner never escrowed its key shares, so its masks are
    /// unrecoverable and the round cannot enter recovery.
    EscrowMissing(AccountId),
    /// A submission arrived after the round entered recovery — the
    /// sender was already declared dropped.
    RoundInRecovery(u64),
    /// Too few owners submitted to reach the escrow threshold; the
    /// dropped keys cannot be reconstructed and the round cannot
    /// complete.
    InsufficientSurvivors {
        /// Owners that submitted.
        survivors: usize,
        /// Escrow threshold.
        need: usize,
    },
    /// A recovery share arrived while the round was not in recovery.
    NotRecovering(u64),
    /// A recovery share named an owner that was not declared dropped.
    NotDropped(AccountId),
    /// A recovery share came from an owner that did not submit this
    /// round (only survivors hold liveness to vouch shares).
    NotASurvivor(AccountId),
    /// A recovery share used an evaluation point that does not belong to
    /// its sender.
    BadRecoveryShare {
        /// The sender's canonical evaluation point.
        expected_x: u64,
        /// The point the share claimed.
        got: u64,
    },
    /// A revealed share does not match the escrowed commitment.
    ShareCommitmentMismatch {
        /// The dropped owner whose escrow was checked.
        dropped: AccountId,
        /// The share's provider.
        provider: AccountId,
    },
    /// The same survivor revealed a share for the same dropped owner
    /// twice.
    DuplicateRecoveryShare {
        /// The dropped owner.
        dropped: AccountId,
        /// The share's provider.
        provider: AccountId,
    },
    /// Evaluation was triggered during recovery before every dropped
    /// owner accumulated threshold-many verified shares.
    RecoveryIncomplete {
        /// The dropped owner still short of shares.
        dropped: AccountId,
        /// Verified shares so far.
        have: usize,
        /// Escrow threshold.
        need: usize,
    },
    /// Reconstruction of a dropped owner's key failed (the pooled shares
    /// do not reproduce the advertised public key).
    RecoveryFailed {
        /// The dropped owner.
        owner: AccountId,
        /// Underlying dropout-recovery error.
        reason: String,
    },
}

impl std::fmt::Display for FlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NotAnOwner(id) => write!(f, "account {id} is not a data owner"),
            Self::KeyAlreadyAdvertised(id) => {
                write!(f, "account {id} already advertised a key")
            }
            Self::KeysIncomplete { have, need } => {
                write!(f, "key exchange incomplete: {have}/{need}")
            }
            Self::WrongRound { expected, got } => {
                write!(f, "wrong round: contract at {expected}, call names {got}")
            }
            Self::DuplicateSubmission(id) => {
                write!(f, "account {id} already submitted this round")
            }
            Self::DimMismatch { expected, got } => {
                write!(f, "update dimension {got} != {expected}")
            }
            Self::ProtocolFinished => write!(f, "all rounds already evaluated"),
            Self::BadKeyEncoding { expected, got } => {
                write!(f, "public key must be {expected} bytes, got {got}")
            }
            Self::InvalidKeyElement { owner, reason } => {
                write!(
                    f,
                    "owner {owner} advertised an invalid public key: {reason}"
                )
            }
            Self::BadShareEncoding { expected, got } => {
                write!(f, "share value must be {expected} bytes, got {got}")
            }
            Self::EscrowWithoutKey(id) => {
                write!(
                    f,
                    "owner {id} must advertise its key before escrowing shares"
                )
            }
            Self::EscrowAlreadyCommitted(id) => {
                write!(f, "owner {id} already committed its escrow")
            }
            Self::EscrowSizeMismatch { expected, got } => {
                write!(f, "escrow carries {got} commitments, cohort has {expected}")
            }
            Self::EscrowMissing(id) => {
                write!(f, "dropped owner {id} never escrowed key shares")
            }
            Self::RoundInRecovery(round) => {
                write!(f, "round {round} is in recovery; submissions are closed")
            }
            Self::InsufficientSurvivors { survivors, need } => {
                write!(
                    f,
                    "{survivors} survivors cannot reach escrow threshold {need}"
                )
            }
            Self::NotRecovering(round) => {
                write!(f, "round {round} is not in recovery")
            }
            Self::NotDropped(id) => write!(f, "owner {id} was not declared dropped"),
            Self::NotASurvivor(id) => {
                write!(
                    f,
                    "owner {id} did not submit this round; shares need a survivor"
                )
            }
            Self::BadRecoveryShare { expected_x, got } => {
                write!(
                    f,
                    "recovery share point {got} != sender's point {expected_x}"
                )
            }
            Self::ShareCommitmentMismatch { dropped, provider } => {
                write!(
                    f,
                    "share from {provider} for dropped {dropped} fails its escrow commitment"
                )
            }
            Self::DuplicateRecoveryShare { dropped, provider } => {
                write!(f, "owner {provider} already revealed a share for {dropped}")
            }
            Self::RecoveryIncomplete {
                dropped,
                have,
                need,
            } => {
                write!(
                    f,
                    "dropped owner {dropped} has {have}/{need} verified shares"
                )
            }
            Self::RecoveryFailed { owner, reason } => {
                write!(f, "key recovery for owner {owner} failed: {reason}")
            }
        }
    }
}

impl std::error::Error for FlError {}

/// Lifecycle phase of the round currently being assembled on-chain.
///
/// Part of the consensus state (encoded into the state digest): every
/// honest replica agrees not only on *what* was evaluated but on *where
/// in the lifecycle* the current round stands.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RoundPhase {
    /// Collecting masked submissions.
    Submitting,
    /// Submissions are closed with owners missing; collecting recovery
    /// shares for the declared dropout set.
    Recovering {
        /// Owners declared dropped, ascending by account id.
        dropped: Vec<AccountId>,
    },
}

impl Encode for RoundPhase {
    fn encode_to(&self, out: &mut Vec<u8>) {
        match self {
            Self::Submitting => out.push(0),
            Self::Recovering { dropped } => {
                out.push(1);
                dropped.encode_to(out);
            }
        }
    }
}

impl Decode for RoundPhase {
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.take_u8()? {
            0 => Ok(Self::Submitting),
            1 => Ok(Self::Recovering {
                dropped: Vec::decode_from(r)?,
            }),
            tag => Err(DecodeError::BadTag {
                type_name: "RoundPhase",
                tag,
            }),
        }
    }
}

/// How one dropped owner's key was recovered — the per-dropout entry of
/// the round's public audit trail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryEvidence {
    /// Owner position of the dropped owner.
    pub dropped: usize,
    /// Owner positions of the survivors whose verified shares
    /// reconstructed the key (ascending, exactly threshold-many).
    pub providers: Vec<usize>,
}

impl Encode for RecoveryEvidence {
    fn encode_to(&self, out: &mut Vec<u8>) {
        self.dropped.encode_to(out);
        self.providers.encode_to(out);
    }
}

impl Decode for RecoveryEvidence {
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Self {
            dropped: usize::decode_from(r)?,
            providers: Vec::decode_from(r)?,
        })
    }
}

/// Per-cohort section of a `num_cohorts > 1` round's audit trail.
///
/// One entry per cohort of the round's
/// [`shapley::hierarchy::RoundPlan`], bound into the state digest via
/// [`RoundRecord`]: a tampered cohort assignment, survivor set, or
/// within-cohort estimator diverges at the first state root exactly like
/// the rest of the record.
#[derive(Debug, Clone, PartialEq)]
pub struct CohortEvidence {
    /// Owner positions assigned to this cohort (the plan row).
    pub members: Vec<usize>,
    /// Members that submitted and were evaluated, ascending.
    pub survivors: Vec<usize>,
    /// Members declared dropped, ascending. A fully-dropped cohort lists
    /// everyone here and leaves the second-level game.
    pub dropped: Vec<usize>,
    /// The estimator that ran the within-cohort game.
    pub sv_method: SvMethod,
    /// The cohort's second-level Shapley value `V_c` (`0.0` for a
    /// fully-dropped cohort).
    pub sv: f64,
    /// Utility evaluations of the within-cohort pass.
    pub utility_evaluations: usize,
    /// Samples drawn by the within-cohort estimator (0 for exact).
    pub samples: usize,
}

impl Encode for CohortEvidence {
    fn encode_to(&self, out: &mut Vec<u8>) {
        self.members.encode_to(out);
        self.survivors.encode_to(out);
        self.dropped.encode_to(out);
        self.sv_method.encode_to(out);
        self.sv.encode_to(out);
        self.utility_evaluations.encode_to(out);
        self.samples.encode_to(out);
    }
}

impl Decode for CohortEvidence {
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Self {
            members: Vec::decode_from(r)?,
            survivors: Vec::decode_from(r)?,
            dropped: Vec::decode_from(r)?,
            sv_method: SvMethod::decode_from(r)?,
            sv: f64::decode_from(r)?,
            utility_evaluations: usize::decode_from(r)?,
            samples: usize::decode_from(r)?,
        })
    }
}

/// Immutable record of one evaluated round — the public audit trail.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundRecord {
    /// Round number.
    pub round: u64,
    /// The estimator that produced this round's values — the method is
    /// part of the public audit trail, not an implementation detail.
    pub sv_method: SvMethod,
    /// Group memberships used (owner *indices*, not account ids).
    pub groups: Vec<Vec<usize>>,
    /// Owner positions that submitted and were evaluated, ascending. A
    /// full round lists every owner.
    pub survivors: Vec<usize>,
    /// Owner positions declared dropped, ascending (empty for a full
    /// round). Dropped owners score exactly `0.0` this round.
    pub dropped: Vec<usize>,
    /// Per-dropout recovery evidence (which survivors' shares
    /// reconstructed each dropped key).
    pub recovery: Vec<RecoveryEvidence>,
    /// Per-group Shapley values `V_j` (groups whose members all dropped
    /// are excluded from the game and record `0.0`).
    pub per_group_sv: Vec<f64>,
    /// Per-owner Shapley values `v_i^r` (indexed by owner position).
    pub per_owner_sv: Vec<f64>,
    /// Test accuracy of the round's global model.
    pub global_accuracy: f64,
    /// Utility evaluations performed (`2^m` for the exact method; the
    /// sampling methods' cost envelope otherwise).
    pub utility_evaluations: usize,
    /// Independent samples drawn by a sampling estimator (0 for exact).
    pub samples: usize,
    /// Per-cohort evidence, one entry per cohort in plan order — empty
    /// for a one-cohort (`num_cohorts == 1`) round, which plays no
    /// second-level game and whose record is fully described by the
    /// fields above. [`RoundRecord::groups`] and
    /// [`RoundRecord::per_group_sv`] concatenate the cohorts' groups and
    /// values in the same order.
    pub cohorts: Vec<CohortEvidence>,
}

impl Encode for RoundRecord {
    fn encode_to(&self, out: &mut Vec<u8>) {
        self.round.encode_to(out);
        self.sv_method.encode_to(out);
        self.groups.encode_to(out);
        self.survivors.encode_to(out);
        self.dropped.encode_to(out);
        self.recovery.encode_to(out);
        self.per_group_sv.encode_to(out);
        self.per_owner_sv.encode_to(out);
        self.global_accuracy.encode_to(out);
        self.utility_evaluations.encode_to(out);
        self.samples.encode_to(out);
        self.cohorts.encode_to(out);
    }
}

impl Decode for RoundRecord {
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Self {
            round: u64::decode_from(r)?,
            sv_method: SvMethod::decode_from(r)?,
            groups: Vec::decode_from(r)?,
            survivors: Vec::decode_from(r)?,
            dropped: Vec::decode_from(r)?,
            recovery: Vec::decode_from(r)?,
            per_group_sv: Vec::decode_from(r)?,
            per_owner_sv: Vec::decode_from(r)?,
            global_accuracy: f64::decode_from(r)?,
            utility_evaluations: usize::decode_from(r)?,
            samples: usize::decode_from(r)?,
            cohorts: Vec::decode_from(r)?,
        })
    }
}

/// Derives the round's public sampling seed from the permutation seed.
///
/// A different multiplier than the grouping permutation's golden-ratio
/// stream, so the subsets a sampling estimator draws are not correlated
/// with the round's group assignment. Pure function of public on-chain
/// data — any miner or auditor re-derives it.
fn sampling_seed(permutation_seed: u64, round: u64) -> u64 {
    permutation_seed ^ round.wrapping_mul(0xd1b5_4a32_d192_ed03) ^ 0x5eed_5a3f_0e1e_57a7
}

/// The round's model reductions — per-cohort aggregate, then global
/// model — from the per-group survivor means.
///
/// `survivor_means[c]` holds the models of cohort `c`'s surviving groups
/// in group order (empty when the whole cohort dropped). Each cohort's
/// aggregate is the mean of its surviving group models (`None` for a
/// fully-dropped cohort); the global model is the mean of the surviving
/// cohort aggregates.
///
/// The contract calls this on mask-stripped group aggregates and the
/// protocol driver's next-model predictor on plaintext ring sums, so the
/// two cannot disagree on the reduction order.
///
/// **One-cohort rule**: with a single cohort the global model is that
/// cohort's aggregate itself, *not* `mean_vectors(&[aggregate])` —
/// `mean_vectors` accumulates from `+0.0`, which would turn a `-0.0`
/// coordinate into `+0.0` and change the state digest of every flat
/// round.
pub(crate) fn reduce_models(survivor_means: &[Vec<Vec<f64>>]) -> (Vec<Option<Vec<f64>>>, Vec<f64>) {
    let cohort_models: Vec<Option<Vec<f64>>> = survivor_means
        .iter()
        .map(|models| (!models.is_empty()).then(|| mean_vectors(models)))
        .collect();
    let global_model = match cohort_models.as_slice() {
        [Some(only)] => only.clone(),
        _ => {
            let alive: Vec<Vec<f64>> = cohort_models.iter().flatten().cloned().collect();
            mean_vectors(&alive)
        }
    };
    (cohort_models, global_model)
}

/// Test-set-accuracy utility `u(W)` shared by the contract and the
/// off-chain analysis (Fig. 1/2 ground truth uses the same function).
///
/// The test set is conditioned into a prepared design **once** at
/// construction; every `of_model` call — GroupSV issues `2^m` of them
/// per round — then runs one GEMM over the cached design instead of
/// re-scaling and re-bias-extending the test matrix. The accuracy values
/// are bit-identical to the uncached pipeline, so state digests and
/// round records are unaffected.
pub struct AccuracyUtility {
    test_design: fl_ml::Design,
    num_features: usize,
    num_classes: usize,
}

impl AccuracyUtility {
    /// Builds the utility over a held-out test set.
    pub fn new(test_set: &Dataset, num_features: usize, num_classes: usize) -> Self {
        Self {
            test_design: fl_ml::Design::new(test_set),
            num_features,
            num_classes,
        }
    }
}

impl ModelUtility for AccuracyUtility {
    fn of_model(&self, weights: &[f64]) -> f64 {
        let model = LogisticModel::from_flat(weights, self.num_features, self.num_classes);
        model_accuracy_design(&model, &self.test_design)
    }

    fn of_empty(&self) -> f64 {
        // The zero model: uniform logits, argmax picks class 0 — exactly
        // what an untrained participant would deploy.
        let zero = LogisticModel::zeros(self.num_features, self.num_classes);
        model_accuracy_design(&zero, &self.test_design)
    }
}

/// The contract state. `Clone` gives each miner an independent replica.
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
///   partial aggregate, and evaluates the group-model game **restricted
///   to survivors** ([`shapley::utility::RestrictedGame`]): dropped
///   owners score exactly zero, groups whose members all dropped leave
///   the game entirely.
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
    params: FlParams,
    /// Public test set for the utility function (agreed at setup; the
    /// *training* shards never leave their owners).
    test_set: Dataset,
    gas: GasSchedule,
    keys: BTreeMap<AccountId, Vec<u8>>,
    /// Escrow commitments per owner: entry `j` commits the Shamir share
    /// of the owner's DH private key destined for owner position `j`.
    escrows: BTreeMap<AccountId, Vec<Hash32>>,
    current_round: u64,
    phase: RoundPhase,
    submissions: BTreeMap<AccountId, Vec<u64>>,
    /// Verified recovery shares: dropped owner → (provider → share).
    recovery_shares: BTreeMap<AccountId, BTreeMap<AccountId, Share>>,
    contributions: BTreeMap<AccountId, f64>,
    global_model: Vec<f64>,
    history: Vec<RoundRecord>,
}

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
            params,
            test_set,
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

    fn owner_index(&self, id: AccountId) -> Result<usize, FlError> {
        self.params
            .owners
            .iter()
            .position(|&o| o == id)
            .ok_or(FlError::NotAnOwner(id))
    }

    fn advertise_key(
        &mut self,
        sender: AccountId,
        public_key: &[u8],
    ) -> Result<ExecutionOutcome, FlError> {
        self.owner_index(sender)?;
        if self.keys.contains_key(&sender) {
            return Err(FlError::KeyAlreadyAdvertised(sender));
        }
        // Keys are full-width 256-bit group elements. Rejecting other
        // lengths here keeps every later parse (`U256::from_be_bytes` in
        // the recovery path) infallible — an oversized key must never be
        // able to panic a re-executing replica mid-round.
        if public_key.len() != 32 {
            return Err(FlError::BadKeyEncoding {
                expected: 32,
                got: public_key.len(),
            });
        }
        // A length-valid key must also be a *usable* group element. The DH
        // layer rejects degenerate (0, 1, p−1) and non-canonical (>= p)
        // keys — a malicious owner could otherwise force a predictable
        // pair mask — and the contract surfaces that rejection here, at
        // advertise time, so a round can never wedge at derive time.
        let element = U256::from_be_bytes(public_key);
        if let Err(reason) = DhGroup::simulation_256().validate_public_key(&element) {
            return Err(FlError::InvalidKeyElement {
                owner: sender,
                reason: reason.to_string(),
            });
        }
        self.keys.insert(sender, public_key.to_vec());
        let gas = self.gas.charge(public_key.len().div_ceil(8), 0);
        Ok(ExecutionOutcome::event(
            format!(
                "key: owner {sender} advertised ({}/{})",
                self.keys.len(),
                self.params.owners.len()
            ),
            gas,
        ))
    }

    fn submit_update(
        &mut self,
        sender: AccountId,
        round: u64,
        masked: &[u64],
    ) -> Result<ExecutionOutcome, FlError> {
        self.owner_index(sender)?;
        if self.finished() {
            return Err(FlError::ProtocolFinished);
        }
        if self.keys.len() != self.params.owners.len() {
            return Err(FlError::KeysIncomplete {
                have: self.keys.len(),
                need: self.params.owners.len(),
            });
        }
        if round != self.current_round {
            return Err(FlError::WrongRound {
                expected: self.current_round,
                got: round,
            });
        }
        if matches!(self.phase, RoundPhase::Recovering { .. }) {
            // The sender was declared dropped when recovery opened; a
            // late submission would change the survivor set after the
            // fact and is rejected deterministically.
            return Err(FlError::RoundInRecovery(round));
        }
        if self.submissions.contains_key(&sender) {
            return Err(FlError::DuplicateSubmission(sender));
        }
        if masked.len() != self.params.model_dim {
            return Err(FlError::DimMismatch {
                expected: self.params.model_dim,
                got: masked.len(),
            });
        }
        self.submissions.insert(sender, masked.to_vec());
        let gas = self.gas.charge(masked.len(), masked.len());
        Ok(ExecutionOutcome::event(
            format!(
                "submit: owner {sender} round {round} ({}/{})",
                self.submissions.len(),
                self.params.owners.len()
            ),
            gas,
        ))
    }

    fn escrow_key_shares(
        &mut self,
        sender: AccountId,
        commitments: &[Hash32],
    ) -> Result<ExecutionOutcome, FlError> {
        self.owner_index(sender)?;
        if self.finished() {
            return Err(FlError::ProtocolFinished);
        }
        if !self.keys.contains_key(&sender) {
            // The escrow secret-shares the advertised key; without the
            // key there is nothing for recovery to verify against.
            return Err(FlError::EscrowWithoutKey(sender));
        }
        if self.escrows.contains_key(&sender) {
            return Err(FlError::EscrowAlreadyCommitted(sender));
        }
        let n = self.params.owners.len();
        if commitments.len() != n {
            return Err(FlError::EscrowSizeMismatch {
                expected: n,
                got: commitments.len(),
            });
        }
        self.escrows.insert(sender, commitments.to_vec());
        let gas = self.gas.charge(commitments.len() * 4, 0);
        Ok(ExecutionOutcome::event(
            format!(
                "escrow: owner {sender} committed {n} share commitments ({}/{})",
                self.escrows.len(),
                n
            ),
            gas,
        ))
    }

    fn submit_recovery_share(
        &mut self,
        sender: AccountId,
        round: u64,
        dropped: AccountId,
        share_x: u64,
        share_y: &[u8],
    ) -> Result<ExecutionOutcome, FlError> {
        let provider_pos = self.owner_index(sender)?;
        if self.finished() {
            return Err(FlError::ProtocolFinished);
        }
        if round != self.current_round {
            return Err(FlError::WrongRound {
                expected: self.current_round,
                got: round,
            });
        }
        let RoundPhase::Recovering { dropped: ref set } = self.phase else {
            return Err(FlError::NotRecovering(round));
        };
        if !set.contains(&dropped) {
            return Err(FlError::NotDropped(dropped));
        }
        if !self.submissions.contains_key(&sender) {
            return Err(FlError::NotASurvivor(sender));
        }
        let expected_x = provider_pos as u64 + 1;
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
        let committed = self
            .escrows
            .get(&dropped)
            .expect("recovery only opens for escrowed owners")[provider_pos];
        if share_commitment(dropped, &share) != committed {
            return Err(FlError::ShareCommitmentMismatch {
                dropped,
                provider: sender,
            });
        }
        let entry = self.recovery_shares.entry(dropped).or_default();
        if entry.contains_key(&sender) {
            return Err(FlError::DuplicateRecoveryShare {
                dropped,
                provider: sender,
            });
        }
        entry.insert(sender, share);
        let have = self.recovery_shares[&dropped].len();
        let need = self.params.escrow_threshold;
        let gas = self.gas.charge(4, 0);
        Ok(ExecutionOutcome::event(
            format!("recover: owner {sender} revealed share for dropped {dropped} ({have}/{need})"),
            gas,
        ))
    }

    fn evaluate_round(&mut self, round: u64) -> Result<ExecutionOutcome, FlError> {
        if self.finished() {
            return Err(FlError::ProtocolFinished);
        }
        if round != self.current_round {
            return Err(FlError::WrongRound {
                expected: self.current_round,
                got: round,
            });
        }
        match self.phase.clone() {
            RoundPhase::Submitting => {
                let missing: Vec<AccountId> = self
                    .params
                    .owners
                    .iter()
                    .copied()
                    .filter(|o| !self.submissions.contains_key(o))
                    .collect();
                if missing.is_empty() {
                    return self.finish_round(round, &[]);
                }
                // Opening recovery is only sound if the dropped keys are
                // actually recoverable: the survivors must be able to
                // reach the escrow threshold, and every missing owner
                // must have escrowed its shares.
                let survivors = self.params.owners.len() - missing.len();
                let need = self.params.escrow_threshold;
                if survivors < need {
                    return Err(FlError::InsufficientSurvivors { survivors, need });
                }
                for &d in &missing {
                    if !self.escrows.contains_key(&d) {
                        return Err(FlError::EscrowMissing(d));
                    }
                }
                self.phase = RoundPhase::Recovering {
                    dropped: missing.clone(),
                };
                let gas = self.gas.charge(missing.len() * 2, 0);
                Ok(ExecutionOutcome::event(
                    format!(
                        "recover: round {round} entered recovery, dropped {missing:?}, \
                         {survivors} survivors"
                    ),
                    gas,
                ))
            }
            RoundPhase::Recovering { dropped } => {
                let need = self.params.escrow_threshold;
                for &d in &dropped {
                    let have = self.recovery_shares.get(&d).map_or(0, BTreeMap::len);
                    if have < need {
                        return Err(FlError::RecoveryIncomplete {
                            dropped: d,
                            have,
                            need,
                        });
                    }
                }
                self.finish_round(round, &dropped)
            }
        }
    }

    /// Reconstructs every dropped key from the first threshold-many
    /// verified shares (providers ascending — a pure function of the
    /// on-chain share set) and checks it against the advertised public
    /// key. All fallible work happens before any state mutation, so a
    /// failed recovery leaves the round intact.
    #[allow(clippy::type_complexity)]
    fn recover_dropped_keys(
        &self,
        dh: &DhGroup,
        dropped_pos: &[usize],
    ) -> Result<(BTreeMap<AccountId, U256>, Vec<RecoveryEvidence>), FlError> {
        let threshold = self.params.escrow_threshold;
        let shamir = Shamir::default();
        let mut recovered: BTreeMap<AccountId, U256> = BTreeMap::new();
        let mut evidence: Vec<RecoveryEvidence> = Vec::with_capacity(dropped_pos.len());
        for &pos in dropped_pos {
            let id = self.params.owners[pos];
            let provided = self
                .recovery_shares
                .get(&id)
                .expect("threshold checked before finish_round");
            let providers: Vec<AccountId> = provided.keys().copied().take(threshold).collect();
            let shares: Vec<Share> = providers.iter().map(|p| provided[p].clone()).collect();
            let advertised =
                U256::from_be_bytes(self.keys.get(&id).expect("dropped owner advertised"));
            let private = reconstruct_private_key(&shamir, dh, &shares, threshold, &advertised)
                .map_err(|e| FlError::RecoveryFailed {
                    owner: id,
                    reason: e.to_string(),
                })?;
            recovered.insert(id, private);
            evidence.push(RecoveryEvidence {
                dropped: pos,
                providers: providers
                    .iter()
                    .map(|p| self.owner_index(*p).expect("provider is an owner"))
                    .collect(),
            });
        }
        Ok((recovered, evidence))
    }

    /// Line 3 of Algorithm 1, survivor-restricted, over one group
    /// directory: each group's aggregate sums its *surviving* members'
    /// masked submissions; survivor-survivor masks cancel in the sum,
    /// and each dropped member's residual masks are stripped with its
    /// reconstructed key. A group whose members all dropped has no model
    /// (a zero placeholder keeps indices aligned) and leaves the game.
    /// Returns the per-group models and the surviving group indices.
    fn aggregate_group_models(
        &self,
        groups: &[Vec<usize>],
        dropped_set: &BTreeSet<AccountId>,
        recovered: &BTreeMap<AccountId, U256>,
        dh: &DhGroup,
        codec: &FixedCodec,
        round: u64,
    ) -> (Vec<Vec<f64>>, Vec<usize>) {
        let is_dropped = |idx: usize| dropped_set.contains(&self.params.owners[idx]);
        let mut group_models: Vec<Vec<f64>> = Vec::with_capacity(groups.len());
        let mut surviving_groups: Vec<usize> = Vec::new();
        for (j, g) in groups.iter().enumerate() {
            let alive: Vec<usize> = g.iter().copied().filter(|&i| !is_dropped(i)).collect();
            if alive.is_empty() {
                group_models.push(vec![0.0; self.params.model_dim]);
                continue;
            }
            surviving_groups.push(j);
            let mut acc = vec![0u64; self.params.model_dim];
            for &idx in &alive {
                let owner = self.params.owners[idx];
                let masked = self
                    .submissions
                    .get(&owner)
                    .expect("survivors submitted by definition");
                FixedCodec::ring_add_assign(&mut acc, masked);
            }
            let mut group_dropped: Vec<(AccountId, U256)> = g
                .iter()
                .copied()
                .filter(|&i| is_dropped(i))
                .map(|i| {
                    let id = self.params.owners[i];
                    (id, recovered[&id])
                })
                .collect();
            if !group_dropped.is_empty() {
                group_dropped.sort_unstable_by_key(|(id, _)| *id);
                let survivor_keys: Vec<(AccountId, U256)> = alive
                    .iter()
                    .map(|&i| {
                        let id = self.params.owners[i];
                        (
                            id,
                            U256::from_be_bytes(self.keys.get(&id).expect("keys complete")),
                        )
                    })
                    .collect();
                strip_dropped_set_masks(dh, &mut acc, &group_dropped, &survivor_keys, round);
            }
            group_models.push(
                acc.iter()
                    .map(|&r| codec.decode_avg(r, alive.len()))
                    .collect(),
            );
        }
        (group_models, surviving_groups)
    }

    /// Completes a round on the survivor set — Algorithm 1 over the
    /// round's [`RoundPlan`], the full-cohort round being the special
    /// case `dropped_ids = []`.
    ///
    /// Reconstructs the dropped keys (if any); then, per cohort of the
    /// plan, strips the residual masks per group and runs the configured
    /// estimator over the group-model game restricted to the surviving
    /// groups, on the cohort's own seed stream (one `numeric::par` slot
    /// per cohort, index-pure so the fan-out is bit-identical across
    /// thread caps); [`reduce_models`] folds the group models into the
    /// cohort aggregates and the new global model.
    ///
    /// With `num_cohorts > 1` a second-level coalition game over the
    /// cohort aggregates prices the cohorts and the two levels compose
    /// into global per-owner contributions
    /// ([`shapley::hierarchy::compose`]); a cohort whose members all
    /// dropped keeps a zero-model placeholder, leaves that game via
    /// [`RestrictedGame`], and its members score exactly zero. The skip
    /// keys on the static `num_cohorts`, not on how many cohorts
    /// survived: a one-cohort round *is* the flat game — `compose`
    /// passes its within-cohort values through verbatim, playing a
    /// second level would add utility evaluations to the digest-bound
    /// record, and its [`RoundRecord::cohorts`] stays empty — while a
    /// sharded round with one surviving cohort still plays its
    /// one-player second level.
    fn finish_round(
        &mut self,
        round: u64,
        dropped_ids: &[AccountId],
    ) -> Result<ExecutionOutcome, FlError> {
        let n = self.params.owners.len();
        let m = self.params.num_groups;
        let k = self.params.num_cohorts;
        let codec = FixedCodec::new(self.params.frac_bits);

        let dropped_set: BTreeSet<AccountId> = dropped_ids.iter().copied().collect();
        let is_dropped = |idx: usize| dropped_set.contains(&self.params.owners[idx]);
        let dropped_pos: Vec<usize> = (0..n).filter(|&i| is_dropped(i)).collect();
        let survivor_pos: Vec<usize> = (0..n).filter(|&i| !is_dropped(i)).collect();

        let dh = DhGroup::simulation_256();
        let (recovered, evidence) = self.recover_dropped_keys(&dh, &dropped_pos)?;

        // Lines 1–2 of Algorithm 1: the public layout of the round, a
        // pure function of digest-bound parameters, so every miner and
        // every auditor derives the identical partition. It covers the
        // *full* owner set — the layout is fixed at round start;
        // dropping out does not reshuffle anyone.
        let plan = RoundPlan::new(self.params.permutation_seed, round, n, k, m)
            .expect("layout parameters validated at genesis");

        let utility = AccuracyUtility::new(
            &self.test_set,
            self.params.num_features,
            self.params.num_classes,
        );
        let method = self.params.sv_method;

        struct CohortOutcome {
            group_models: Vec<Vec<f64>>,
            surviving_groups: Vec<usize>,
            per_group_sv: Vec<f64>,
            utility_evaluations: usize,
            samples: usize,
        }

        // Lines 3–6 (generalized), fanned out one slot per cohort. Each
        // slot only reads cohort-indexed inputs, so slot `c` is a pure
        // function of `c` regardless of the thread cap. Every miner
        // derives the same sampling seed from the cohort's public seed
        // stream and the round number, so sampling estimators
        // re-execute bit-identically.
        let this: &Self = self;
        let per_cohort: Vec<CohortOutcome> =
            numeric::par::par_map(plan.groups(), 1, |c, groups_c| {
                let (group_models, surviving_groups) = this.aggregate_group_models(
                    groups_c,
                    &dropped_set,
                    &recovered,
                    &dh,
                    &codec,
                    round,
                );
                let (per_group_sv, utility_evaluations, samples) = Self::estimate_alive(
                    method,
                    sampling_seed(plan.seeds()[c], round),
                    &group_models,
                    &surviving_groups,
                    &utility,
                );
                CohortOutcome {
                    group_models,
                    surviving_groups,
                    per_group_sv,
                    utility_evaluations,
                    samples,
                }
            });

        let survivor_means: Vec<Vec<Vec<f64>>> = per_cohort
            .iter()
            .map(|out| {
                out.surviving_groups
                    .iter()
                    .map(|&j| out.group_models[j].clone())
                    .collect()
            })
            .collect();
        let (cohort_models, global_model) = reduce_models(&survivor_means);

        // Second level (sharded rounds only, see above): the coalition
        // game over cohort aggregate models, restricted to cohorts with
        // at least one survivor, under the round's own (un-streamed)
        // sampling seed — and the record's per-cohort section, which
        // binds each cohort's membership, survivor set, and second-level
        // value into the state digest.
        let mut per_cohort_sv = vec![0.0f64; k];
        let mut cohort_evidence: Vec<CohortEvidence> = Vec::new();
        let mut total_evals = 0;
        let mut total_samples = 0;
        if k > 1 {
            let alive_cohorts: Vec<usize> =
                (0..k).filter(|&c| cohort_models[c].is_some()).collect();
            let cohort_models: Vec<Vec<f64>> = cohort_models
                .into_iter()
                .map(|model| model.unwrap_or_else(|| vec![0.0; self.params.model_dim]))
                .collect();
            (per_cohort_sv, total_evals, total_samples) = Self::estimate_alive(
                method,
                sampling_seed(self.params.permutation_seed, round),
                &cohort_models,
                &alive_cohorts,
                &utility,
            );
            for (c, out) in per_cohort.iter().enumerate() {
                let members = plan.cohorts()[c].clone();
                let (dropped, survivors) = members.iter().partition(|&&i| is_dropped(i));
                cohort_evidence.push(CohortEvidence {
                    members,
                    survivors,
                    dropped,
                    sv_method: method,
                    sv: per_cohort_sv[c],
                    utility_evaluations: out.utility_evaluations,
                    samples: out.samples,
                });
            }
        }

        // Line 7, then the two-level composition: each group's value
        // splits uniformly among the group's *survivors*, and the
        // within-cohort values are scaled by the cohort's second-level
        // value. Dropped owners are excluded from the within vectors so
        // even the uniform zero-total fallback can never pay them; they
        // score exactly zero.
        let mut within: Vec<Vec<f64>> = Vec::with_capacity(k);
        let mut within_owners: Vec<Vec<usize>> = Vec::with_capacity(k);
        for (out, groups_c) in per_cohort.iter().zip(plan.groups()) {
            let mut vals = Vec::new();
            let mut owners_of = Vec::new();
            for &j in &out.surviving_groups {
                let alive: Vec<usize> = groups_c[j]
                    .iter()
                    .copied()
                    .filter(|&i| !is_dropped(i))
                    .collect();
                let share = out.per_group_sv[j] / alive.len() as f64;
                for idx in alive {
                    vals.push(share);
                    owners_of.push(idx);
                }
            }
            within.push(vals);
            within_owners.push(owners_of);
        }
        let composed =
            compose(&within, &per_cohort_sv).expect("within/cohort lengths match by construction");

        let mut per_owner_sv = vec![0.0f64; n];
        for (vals, owners_of) in composed.iter().zip(&within_owners) {
            for (&v, &idx) in vals.iter().zip(owners_of) {
                per_owner_sv[idx] = v;
                let owner = self.params.owners[idx];
                *self
                    .contributions
                    .get_mut(&owner)
                    .expect("initialized at genesis") += v;
            }
        }

        self.global_model = global_model;
        let global_accuracy = utility.of_model(&self.global_model);

        // The record's `groups`/`per_group_sv` sections concatenate the
        // cohorts' groups and values in plan order.
        let flat_groups = plan.groups().concat();
        let mut flat_group_sv: Vec<f64> = Vec::with_capacity(k * m);
        for out in &per_cohort {
            flat_group_sv.extend(&out.per_group_sv);
            total_evals += out.utility_evaluations;
            total_samples += out.samples;
        }

        let event = format!(
            "evaluate: round {round}, k={k} cohorts, m={m}, method {}, survivors {}/{n}, \
             global acc {global_accuracy:.4}, group SVs {flat_group_sv:?}",
            method.name(),
            survivor_pos.len(),
        );
        let gas = self.gas.charge(
            self.params.model_dim,
            (total_evals + dropped_pos.len() * survivor_pos.len()) * self.params.model_dim,
        );
        self.history.push(RoundRecord {
            round,
            sv_method: method,
            groups: flat_groups,
            survivors: survivor_pos,
            dropped: dropped_pos,
            recovery: evidence,
            per_group_sv: flat_group_sv,
            per_owner_sv,
            global_accuracy,
            utility_evaluations: total_evals,
            samples: total_samples,
            cohorts: cohort_evidence,
        });
        self.submissions.clear();
        self.recovery_shares.clear();
        self.phase = RoundPhase::Submitting;
        self.current_round += 1;

        Ok(ExecutionOutcome::event(event, gas))
    }

    /// Plays the coalition game over `models` restricted to the `alive`
    /// players ([`RestrictedGame`]) with the configured estimator and
    /// returns `(values, utility evaluations, samples)`. The values sit
    /// at the players' own positions: a player outside `alive` — its
    /// model is a zero placeholder that only keeps indices aligned —
    /// scores `0.0`, and with nobody alive no game is played at all.
    fn estimate_alive(
        method: SvMethod,
        seed: u64,
        models: &[Vec<f64>],
        alive: &[usize],
        utility: &AccuracyUtility,
    ) -> (Vec<f64>, usize, usize) {
        let mut values = vec![0.0f64; models.len()];
        if alive.is_empty() {
            return (values, 0, 0);
        }
        let full_game = GroupModelGame::new(models, utility);
        let game = RestrictedGame::new(&full_game, alive.to_vec());
        let estimate = Self::dispatch_estimator(method, seed, &game);
        for (&player, &value) in alive.iter().zip(&estimate.values) {
            values[player] = value;
        }
        (
            values,
            estimate.utility_evaluations,
            estimate.diagnostics.samples,
        )
    }

    /// Runs the configured estimator over the round's group game.
    ///
    /// The method is on-chain configuration; the dispatch is the single
    /// point where that configuration meets the estimator layer, so
    /// every miner — and every later auditor replaying the chain —
    /// resolves the identical estimator with the identical seed.
    ///
    /// The sampling estimators revisit coalitions (e.g. every size-0
    /// stratum draws the same singleton), so their game is wrapped in
    /// [`CachedUtility`] — each distinct coalition model pays for one
    /// accuracy pass, with bit-identical values. The exact path visits
    /// each coalition exactly once and skips the cache.
    ///
    /// The cache's hit/miss counters are copied into the estimate's
    /// diagnostics afterwards so the streaming-evaluation behaviour is
    /// auditable; they stay out of [`RoundRecord`] and every consensus
    /// digest because the counters are scheduling observability, not
    /// protocol state.
    fn dispatch_estimator(
        method: SvMethod,
        seed: u64,
        game: &(impl shapley::utility::CoalitionUtility + Sync),
    ) -> SvEstimate {
        match method {
            SvMethod::GroupExact => Exact.estimate(game),
            SvMethod::MonteCarlo { permutations } => {
                let cached = CachedUtility::new(game);
                let mut estimate = MonteCarlo {
                    config: McConfig {
                        permutations: permutations as usize,
                        seed,
                        truncation_tolerance: None,
                    },
                }
                .estimate(&cached);
                let stats = cached.stats();
                estimate.diagnostics.cache_hits = stats.hits;
                estimate.diagnostics.cache_misses = stats.misses;
                estimate
            }
            SvMethod::Stratified {
                samples_per_stratum,
            } => {
                let cached = CachedUtility::new(game);
                let mut estimate = Stratified {
                    config: StratifiedConfig {
                        samples_per_stratum: samples_per_stratum as usize,
                        seed,
                    },
                }
                .estimate(&cached);
                let stats = cached.stats();
                estimate.diagnostics.cache_hits = stats.hits;
                estimate.diagnostics.cache_misses = stats.misses;
                estimate
            }
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use fl_ml::dataset::SyntheticDigits;

    fn test_params(n: usize, m: usize) -> FlParams {
        FlParams {
            owners: (0..n as u32).collect(),
            num_groups: m,
            sv_method: SvMethod::GroupExact,
            permutation_seed: 7,
            total_rounds: 2,
            model_dim: (64 + 1) * 10,
            num_features: 64,
            num_classes: 10,
            frac_bits: 24,
            escrow_threshold: n / 2 + 1,
            num_cohorts: 1,
        }
    }

    fn contract(n: usize, m: usize) -> FlContract {
        let test_set = SyntheticDigits::small().generate(99);
        FlContract::genesis(test_params(n, m), test_set)
    }

    fn ctx(sender: AccountId) -> TxContext {
        TxContext {
            block_height: 0,
            view: 0,
            sender,
            tx_index: 0,
        }
    }

    fn advertise_all(c: &mut FlContract, n: usize) {
        for i in 0..n as u32 {
            c.execute(
                &ctx(i),
                &FlCall::AdvertiseKey {
                    public_key: vec![i as u8 + 1; 32],
                },
            )
            .unwrap();
        }
    }

    /// Unmasked "masked" updates: with no pairwise masks (sum of zero
    /// masks), the ring math still holds — the contract cannot tell.
    fn plain_update(c: &FlContract, value: f64) -> Vec<u64> {
        let codec = FixedCodec::new(c.params.frac_bits);
        codec.encode_vec(&vec![value; c.params.model_dim])
    }

    #[test]
    fn key_exchange_rules() {
        let mut c = contract(3, 2);
        assert!(matches!(
            c.execute(
                &ctx(9),
                &FlCall::AdvertiseKey {
                    public_key: vec![1; 32]
                }
            ),
            Err(FlError::NotAnOwner(9))
        ));
        // Keys must be full-width group elements: a short (or oversized)
        // encoding is rejected before it can poison the recovery path.
        assert!(matches!(
            c.execute(
                &ctx(0),
                &FlCall::AdvertiseKey {
                    public_key: vec![1]
                }
            ),
            Err(FlError::BadKeyEncoding {
                expected: 32,
                got: 1
            })
        ));
        assert!(matches!(
            c.execute(
                &ctx(0),
                &FlCall::AdvertiseKey {
                    public_key: vec![1; 33]
                }
            ),
            Err(FlError::BadKeyEncoding {
                expected: 32,
                got: 33
            })
        ));
        // Length-valid but degenerate or non-canonical group elements are
        // rejected with the offender named (a degenerate key would force a
        // predictable pair mask on every peer).
        for bad in [vec![0u8; 32], {
            let mut one = vec![0u8; 32];
            one[31] = 1;
            one
        }] {
            assert!(matches!(
                c.execute(&ctx(0), &FlCall::AdvertiseKey { public_key: bad }),
                Err(FlError::InvalidKeyElement { owner: 0, .. })
            ));
        }
        assert!(matches!(
            c.execute(
                &ctx(0),
                &FlCall::AdvertiseKey {
                    public_key: vec![0xFF; 32] // >= p: not canonical
                }
            ),
            Err(FlError::InvalidKeyElement { owner: 0, .. })
        ));
        c.execute(
            &ctx(0),
            &FlCall::AdvertiseKey {
                public_key: vec![1; 32],
            },
        )
        .unwrap();
        assert!(matches!(
            c.execute(
                &ctx(0),
                &FlCall::AdvertiseKey {
                    public_key: vec![2; 32]
                }
            ),
            Err(FlError::KeyAlreadyAdvertised(0))
        ));
        assert_eq!(c.public_key_of(0), Some(&[1u8; 32][..]));
        assert_eq!(c.public_key_of(1), None);
    }

    #[test]
    fn submissions_require_complete_keys() {
        let mut c = contract(3, 2);
        let update = plain_update(&c, 0.1);
        assert!(matches!(
            c.execute(
                &ctx(0),
                &FlCall::SubmitMaskedUpdate {
                    round: 0,
                    masked: update
                }
            ),
            Err(FlError::KeysIncomplete { have: 0, need: 3 })
        ));
    }

    #[test]
    fn submission_validation() {
        let mut c = contract(3, 2);
        advertise_all(&mut c, 3);
        let update = plain_update(&c, 0.1);
        // Wrong round.
        assert!(matches!(
            c.execute(
                &ctx(0),
                &FlCall::SubmitMaskedUpdate {
                    round: 5,
                    masked: update.clone()
                }
            ),
            Err(FlError::WrongRound {
                expected: 0,
                got: 5
            })
        ));
        // Wrong dimension.
        assert!(matches!(
            c.execute(
                &ctx(0),
                &FlCall::SubmitMaskedUpdate {
                    round: 0,
                    masked: vec![0u64; 3]
                }
            ),
            Err(FlError::DimMismatch { .. })
        ));
        // Valid, then duplicate.
        c.execute(
            &ctx(0),
            &FlCall::SubmitMaskedUpdate {
                round: 0,
                masked: update.clone(),
            },
        )
        .unwrap();
        assert!(matches!(
            c.execute(
                &ctx(0),
                &FlCall::SubmitMaskedUpdate {
                    round: 0,
                    masked: update
                }
            ),
            Err(FlError::DuplicateSubmission(0))
        ));
    }

    #[test]
    fn incomplete_round_needs_threshold_survivors_and_escrow() {
        // 3 owners, threshold 2. One submission: survivors below the
        // escrow threshold, the round cannot even open recovery.
        let mut c = contract(3, 2);
        advertise_all(&mut c, 3);
        let update = plain_update(&c, 0.1);
        c.execute(
            &ctx(0),
            &FlCall::SubmitMaskedUpdate {
                round: 0,
                masked: update.clone(),
            },
        )
        .unwrap();
        assert!(matches!(
            c.execute(&ctx(0), &FlCall::EvaluateRound { round: 0 }),
            Err(FlError::InsufficientSurvivors {
                survivors: 1,
                need: 2
            })
        ));
        // Two submissions reach the threshold, but the missing owner
        // never escrowed its key shares: its masks are unrecoverable.
        c.execute(
            &ctx(1),
            &FlCall::SubmitMaskedUpdate {
                round: 0,
                masked: update,
            },
        )
        .unwrap();
        assert!(matches!(
            c.execute(&ctx(0), &FlCall::EvaluateRound { round: 0 }),
            Err(FlError::EscrowMissing(2))
        ));
        // Nothing transitioned: the round is still accepting submissions.
        assert_eq!(c.phase(), &RoundPhase::Submitting);
    }

    #[test]
    fn full_round_evaluates_and_advances() {
        let mut c = contract(4, 2);
        advertise_all(&mut c, 4);
        for i in 0..4u32 {
            let update = plain_update(&c, 0.01 * (i as f64 + 1.0));
            c.execute(
                &ctx(i),
                &FlCall::SubmitMaskedUpdate {
                    round: 0,
                    masked: update,
                },
            )
            .unwrap();
        }
        let out = c
            .execute(&ctx(0), &FlCall::EvaluateRound { round: 0 })
            .unwrap();
        assert!(out.events[0].contains("evaluate: round 0"));
        assert_eq!(c.current_round(), 1);
        assert_eq!(c.history().len(), 1);
        let record = &c.history()[0];
        assert_eq!(record.per_owner_sv.len(), 4);
        assert_eq!(record.utility_evaluations, 4); // 2^m, m=2
                                                   // Groups partition all 4 owners.
        let total: usize = record.groups.iter().map(Vec::len).sum();
        assert_eq!(total, 4);
        // Submissions cleared for the next round.
        assert!(c.observed_submission(0).is_none());
    }

    fn contract_with_method(n: usize, m: usize, method: SvMethod) -> FlContract {
        let mut params = test_params(n, m);
        params.sv_method = method;
        let test_set = SyntheticDigits::small().generate(99);
        FlContract::genesis(params, test_set)
    }

    fn run_one_round(c: &mut FlContract, n: usize) {
        advertise_all(c, n);
        for i in 0..n as u32 {
            let update = plain_update(c, 0.01 * (i as f64 + 1.0));
            c.execute(
                &ctx(i),
                &FlCall::SubmitMaskedUpdate {
                    round: 0,
                    masked: update,
                },
            )
            .unwrap();
        }
        c.execute(&ctx(0), &FlCall::EvaluateRound { round: 0 })
            .unwrap();
    }

    #[test]
    fn method_choice_appears_in_audit_record() {
        let method = SvMethod::Stratified {
            samples_per_stratum: 2,
        };
        let mut c = contract_with_method(4, 4, method);
        run_one_round(&mut c, 4);
        let record = &c.history()[0];
        assert_eq!(record.sv_method, method);
        // Stratified cost envelope: 2 evals × m² strata × k samples.
        assert_eq!(record.utility_evaluations, 2 * 16 * 2);
        assert_eq!(record.samples, 16 * 2);
        // Exact records report zero samples.
        let mut exact = contract_with_method(4, 4, SvMethod::GroupExact);
        run_one_round(&mut exact, 4);
        let exact_record = &exact.history()[0];
        assert_eq!(exact_record.sv_method, SvMethod::GroupExact);
        assert_eq!(exact_record.samples, 0);
        assert_eq!(exact_record.utility_evaluations, 16);
    }

    #[test]
    fn method_name_appears_in_round_event() {
        let mut c = contract_with_method(3, 3, SvMethod::MonteCarlo { permutations: 8 });
        advertise_all(&mut c, 3);
        for i in 0..3u32 {
            let update = plain_update(&c, 0.01);
            c.execute(
                &ctx(i),
                &FlCall::SubmitMaskedUpdate {
                    round: 0,
                    masked: update,
                },
            )
            .unwrap();
        }
        let out = c
            .execute(&ctx(0), &FlCall::EvaluateRound { round: 0 })
            .unwrap();
        assert!(
            out.events[0].contains("method monte_carlo"),
            "event must name the estimator: {}",
            out.events[0]
        );
    }

    #[test]
    fn method_is_part_of_the_state_digest() {
        // Two replicas that agree on everything but the estimator must
        // diverge from genesis: the method is consensus configuration.
        let a = contract_with_method(3, 2, SvMethod::GroupExact);
        let b = contract_with_method(3, 2, SvMethod::MonteCarlo { permutations: 50 });
        assert_ne!(a.state_digest(), b.state_digest());
    }

    #[test]
    fn sampling_replicas_stay_digest_identical() {
        // The sampling estimators are deterministic per (seed, round), so
        // two honest replicas running Stratified agree bit-for-bit.
        let method = SvMethod::Stratified {
            samples_per_stratum: 3,
        };
        let mut a = contract_with_method(4, 2, method);
        let mut b = contract_with_method(4, 2, method);
        run_one_round(&mut a, 4);
        run_one_round(&mut b, 4);
        assert_eq!(a.state_digest(), b.state_digest());
        assert_eq!(a.history()[0].per_owner_sv, b.history()[0].per_owner_sv);
    }

    #[test]
    #[should_panic(expected = "must support the group count")]
    fn genesis_rejects_method_that_cannot_cover_the_groups() {
        let mut params = test_params(4, 2);
        params.sv_method = SvMethod::MonteCarlo { permutations: 0 };
        let test_set = SyntheticDigits::small().generate(99);
        let _ = FlContract::genesis(params, test_set);
    }

    #[test]
    fn contributions_accumulate_across_rounds() {
        let mut c = contract(3, 3);
        advertise_all(&mut c, 3);
        for round in 0..2u64 {
            for i in 0..3u32 {
                let update = plain_update(&c, 0.01 * (i as f64 + 1.0));
                c.execute(
                    &ctx(i),
                    &FlCall::SubmitMaskedUpdate {
                        round,
                        masked: update,
                    },
                )
                .unwrap();
            }
            c.execute(&ctx(0), &FlCall::EvaluateRound { round })
                .unwrap();
        }
        assert!(c.finished());
        // Cumulative SV equals the sum over round records.
        for (pos, owner) in (0..3u32).enumerate() {
            let total: f64 = c.history().iter().map(|r| r.per_owner_sv[pos]).sum();
            let ledger = c.contributions()[&owner];
            assert!((ledger - total).abs() < 1e-12);
        }
        // Further activity is rejected.
        assert!(matches!(
            c.execute(&ctx(0), &FlCall::EvaluateRound { round: 2 }),
            Err(FlError::ProtocolFinished)
        ));
    }

    #[test]
    fn replicas_stay_digest_identical() {
        let mut a = contract(3, 2);
        let mut b = contract(3, 2);
        assert_eq!(a.state_digest(), b.state_digest());
        advertise_all(&mut a, 3);
        advertise_all(&mut b, 3);
        assert_eq!(a.state_digest(), b.state_digest());
        let update = plain_update(&a, 0.2);
        for c in [&mut a, &mut b] {
            c.execute(
                &ctx(1),
                &FlCall::SubmitMaskedUpdate {
                    round: 0,
                    masked: update.clone(),
                },
            )
            .unwrap();
        }
        assert_eq!(a.state_digest(), b.state_digest());
    }

    #[test]
    fn digest_changes_with_state() {
        let mut c = contract(3, 2);
        let before = c.state_digest();
        advertise_all(&mut c, 3);
        assert_ne!(c.state_digest(), before);
    }

    #[test]
    fn flat_round_record_has_no_cohort_section() {
        let mut c = contract(4, 2);
        run_one_round(&mut c, 4);
        assert!(c.history()[0].cohorts.is_empty());
    }

    #[test]
    #[should_panic(expected = "num_cohorts out of range")]
    fn genesis_rejects_zero_cohorts() {
        let mut params = test_params(4, 2);
        params.num_cohorts = 0;
        FlContract::genesis(params, SyntheticDigits::small().generate(99));
    }

    #[test]
    #[should_panic(expected = "num_cohorts out of range")]
    fn genesis_rejects_more_cohorts_than_owners() {
        let mut params = test_params(4, 1);
        params.num_cohorts = 5;
        FlContract::genesis(params, SyntheticDigits::small().generate(99));
    }

    #[test]
    #[should_panic(expected = "num_groups exceeds the smallest cohort")]
    fn genesis_rejects_groups_wider_than_smallest_cohort() {
        let mut params = test_params(4, 3);
        params.num_cohorts = 2;
        FlContract::genesis(params, SyntheticDigits::small().generate(99));
    }

    #[test]
    #[should_panic(expected = "SV method must support the cohort count")]
    fn genesis_rejects_method_incapable_of_cohort_count() {
        let mut params = test_params(26, 1);
        params.num_cohorts = 26;
        FlContract::genesis(params, SyntheticDigits::small().generate(99));
    }

    #[test]
    fn sharded_history_snapshot_roundtrip() {
        // CohortEvidence must survive the snapshot/restore cycle and
        // land on the identical state digest.
        let (n, m, k) = (8usize, 2usize, 2usize);
        let mut w = dropout_lifecycle::masked_world_sharded(n, m, k);
        for i in 0..n {
            let masked = dropout_lifecycle::masked_submission(&w, i, 0);
            w.contract
                .execute(
                    &ctx(i as u32),
                    &FlCall::SubmitMaskedUpdate { round: 0, masked },
                )
                .unwrap();
        }
        w.contract
            .execute(&ctx(0), &FlCall::EvaluateRound { round: 0 })
            .unwrap();
        assert!(!w.contract.history()[0].cohorts.is_empty());
        let snap = w.contract.snapshot_state();
        let restored = FlContract::restore(
            w.contract.params().clone(),
            SyntheticDigits::small().generate(99),
            &snap,
        )
        .unwrap();
        assert_eq!(restored.state_digest(), w.contract.state_digest());
    }

    mod dropout_lifecycle {
        //! The round state machine under real pairwise masks: escrow,
        //! dropout declaration, share verification, survivor-only
        //! evaluation.

        use super::*;
        use fl_crypto::dh::{DhGroup, DhKeyPair};
        use fl_crypto::dropout::escrow_private_key;
        use fl_crypto::secure_agg::{KeyDirectory, PartyState};
        use fl_crypto::ChaChaPrg;

        pub(super) struct MaskedWorld {
            pub contract: FlContract,
            pub keypairs: Vec<DhKeyPair>,
            /// `escrowed[i][j]`: share of owner i's key held by owner j.
            pub escrowed: Vec<Vec<Share>>,
            pub groups: Vec<Vec<usize>>,
            pub weights: Vec<Vec<f64>>,
        }

        /// Builds a contract with real DH keys advertised, escrows
        /// committed, and per-owner plaintext weights prepared.
        pub(super) fn masked_world(n: usize, m: usize) -> MaskedWorld {
            masked_world_from(super::contract(n, m))
        }

        /// Like [`masked_world`] but sharded into `k` cohorts: the
        /// group directories are the flattened per-cohort groupings of
        /// the round-0 cohort plan.
        pub(super) fn masked_world_sharded(n: usize, m: usize, k: usize) -> MaskedWorld {
            let mut params = test_params(n, m);
            params.num_cohorts = k;
            let test_set = SyntheticDigits::small().generate(99);
            masked_world_from(FlContract::genesis(params, test_set))
        }

        fn masked_world_from(contract: FlContract) -> MaskedWorld {
            let n = contract.params().owners.len();
            let m = contract.params().num_groups;
            let k = contract.params().num_cohorts;
            let dh = DhGroup::simulation_256();
            let shamir = Shamir::default();
            let threshold = contract.params().escrow_threshold;
            let keypairs: Vec<DhKeyPair> = (0..n)
                .map(|i| dh.keypair_from_seed(&[i as u8 + 1; 32]))
                .collect();
            let mut c = contract;
            for (i, kp) in keypairs.iter().enumerate() {
                c.execute(
                    &ctx(i as u32),
                    &FlCall::AdvertiseKey {
                        public_key: kp.public.to_be_bytes(),
                    },
                )
                .unwrap();
            }
            let escrowed: Vec<Vec<Share>> = keypairs
                .iter()
                .enumerate()
                .map(|(i, kp)| {
                    let mut prg = ChaChaPrg::from_seed(&[i as u8 + 50; 32]);
                    escrow_private_key(&shamir, kp, threshold, n, &mut prg).unwrap()
                })
                .collect();
            for (i, shares) in escrowed.iter().enumerate() {
                let commitments: Vec<Hash32> = shares
                    .iter()
                    .map(|s| share_commitment(i as u32, s))
                    .collect();
                c.execute(&ctx(i as u32), &FlCall::EscrowKeyShares { commitments })
                    .unwrap();
            }
            let groups: Vec<Vec<usize>> = RoundPlan::new(c.params().permutation_seed, 0, n, k, m)
                .unwrap()
                .groups()
                .concat();
            let dim = c.params().model_dim;
            let weights: Vec<Vec<f64>> =
                (0..n).map(|i| vec![0.1 * (i as f64 + 1.0); dim]).collect();
            MaskedWorld {
                contract: c,
                keypairs,
                escrowed,
                groups,
                weights,
            }
        }

        pub(super) fn masked_submission(w: &MaskedWorld, i: usize, round: u64) -> Vec<u64> {
            let codec = FixedCodec::new(w.contract.params().frac_bits);
            let group = w
                .groups
                .iter()
                .find(|g| g.contains(&i))
                .expect("every owner grouped");
            if group.len() == 1 {
                return codec.encode_vec(&w.weights[i]);
            }
            let dh = DhGroup::simulation_256();
            let mut dir = KeyDirectory::new();
            for &j in group {
                dir.advertise(j as u32, w.keypairs[j].public).unwrap();
            }
            let party = PartyState::derive(&dh, i as u32, &w.keypairs[i], &dir).unwrap();
            party.masked_update(&codec, round, &w.weights[i])
        }

        pub(super) fn recovery_share_call(
            w: &MaskedWorld,
            dropped: usize,
            provider: usize,
        ) -> FlCall {
            let share = &w.escrowed[dropped][provider];
            FlCall::SubmitRecoveryShare {
                round: 0,
                dropped: dropped as u32,
                share_x: share.x,
                share_y: share.y.to_be_bytes(),
            }
        }

        #[test]
        fn escrow_requires_key_size_and_uniqueness() {
            let mut c = contract(3, 2);
            let commitments = vec![Hash32::ZERO; 3];
            assert!(matches!(
                c.execute(
                    &ctx(0),
                    &FlCall::EscrowKeyShares {
                        commitments: commitments.clone()
                    }
                ),
                Err(FlError::EscrowWithoutKey(0))
            ));
            advertise_all(&mut c, 3);
            assert!(matches!(
                c.execute(
                    &ctx(0),
                    &FlCall::EscrowKeyShares {
                        commitments: vec![Hash32::ZERO; 2]
                    }
                ),
                Err(FlError::EscrowSizeMismatch {
                    expected: 3,
                    got: 2
                })
            ));
            c.execute(
                &ctx(0),
                &FlCall::EscrowKeyShares {
                    commitments: commitments.clone(),
                },
            )
            .unwrap();
            assert_eq!(c.escrow_of(0), Some(&commitments[..]));
            assert!(matches!(
                c.execute(&ctx(0), &FlCall::EscrowKeyShares { commitments }),
                Err(FlError::EscrowAlreadyCommitted(0))
            ));
        }

        #[test]
        fn dropout_round_completes_on_survivors_only() {
            // 4 owners in ONE group (everyone pairwise masked), owner 2
            // vanishes after masking. Threshold = 3.
            let mut w = masked_world(4, 1);
            let dropped = 2usize;
            for i in [0usize, 1, 3] {
                let masked = masked_submission(&w, i, 0);
                w.contract
                    .execute(
                        &ctx(i as u32),
                        &FlCall::SubmitMaskedUpdate { round: 0, masked },
                    )
                    .unwrap();
            }

            // Evaluation with a missing owner opens recovery.
            let out = w
                .contract
                .execute(&ctx(0), &FlCall::EvaluateRound { round: 0 })
                .unwrap();
            assert!(
                out.events[0].contains("entered recovery"),
                "{:?}",
                out.events
            );
            assert_eq!(
                w.contract.phase(),
                &RoundPhase::Recovering { dropped: vec![2] }
            );

            // Late submission from the dropped owner is rejected.
            let late = masked_submission(&w, dropped, 0);
            assert!(matches!(
                w.contract.execute(
                    &ctx(2),
                    &FlCall::SubmitMaskedUpdate {
                        round: 0,
                        masked: late
                    }
                ),
                Err(FlError::RoundInRecovery(0))
            ));

            // Recovery-share validation: wrong target, dead sender,
            // foreign evaluation point, tampered value, early evaluate.
            assert!(matches!(
                w.contract.execute(&ctx(0), &recovery_share_call(&w, 1, 0)),
                Err(FlError::NotDropped(1))
            ));
            assert!(matches!(
                w.contract.execute(&ctx(2), &recovery_share_call(&w, 2, 2)),
                Err(FlError::NotASurvivor(2))
            ));
            assert!(matches!(
                w.contract.execute(&ctx(0), &recovery_share_call(&w, 2, 1)),
                Err(FlError::BadRecoveryShare {
                    expected_x: 1,
                    got: 2
                })
            ));
            let tampered = FlCall::SubmitRecoveryShare {
                round: 0,
                dropped: 2,
                share_x: 1,
                share_y: vec![0xAB; 32],
            };
            assert!(matches!(
                w.contract.execute(&ctx(0), &tampered),
                Err(FlError::ShareCommitmentMismatch {
                    dropped: 2,
                    provider: 0
                })
            ));
            // An oversized share value must be a clean error, never a
            // parse panic that would crash every replica.
            let oversized = FlCall::SubmitRecoveryShare {
                round: 0,
                dropped: 2,
                share_x: 1,
                share_y: vec![0xAB; 33],
            };
            assert!(matches!(
                w.contract.execute(&ctx(0), &oversized),
                Err(FlError::BadShareEncoding {
                    expected: 32,
                    got: 33
                })
            ));
            assert!(matches!(
                w.contract
                    .execute(&ctx(0), &FlCall::EvaluateRound { round: 0 }),
                Err(FlError::RecoveryIncomplete {
                    dropped: 2,
                    have: 0,
                    need: 3
                })
            ));

            // Three survivors reveal their verified shares; duplicates
            // are rejected.
            for provider in [0usize, 1, 3] {
                w.contract
                    .execute(
                        &ctx(provider as u32),
                        &recovery_share_call(&w, dropped, provider),
                    )
                    .unwrap();
            }
            assert!(matches!(
                w.contract
                    .execute(&ctx(0), &recovery_share_call(&w, dropped, 0)),
                Err(FlError::DuplicateRecoveryShare {
                    dropped: 2,
                    provider: 0
                })
            ));

            // The second EvaluateRound completes the round on survivors.
            let out = w
                .contract
                .execute(&ctx(0), &FlCall::EvaluateRound { round: 0 })
                .unwrap();
            assert!(out.events[0].contains("survivors 3/4"), "{:?}", out.events);
            assert_eq!(w.contract.current_round(), 1);
            assert_eq!(w.contract.phase(), &RoundPhase::Submitting);

            let record = &w.contract.history()[0];
            assert_eq!(record.survivors, vec![0, 1, 3]);
            assert_eq!(record.dropped, vec![2]);
            assert_eq!(record.per_owner_sv[2], 0.0);
            assert_eq!(record.recovery.len(), 1);
            assert_eq!(record.recovery[0].dropped, 2);
            assert_eq!(record.recovery[0].providers, vec![0, 1, 3]);

            // Survivor-only aggregate: the single group model must be
            // the survivors' mean — masks (incl. the dropped owner's
            // residuals) stripped exactly.
            let expect = (0.1 + 0.2 + 0.4) / 3.0;
            for v in w.contract.global_model() {
                assert!((v - expect).abs() < 1e-6, "got {v}, want {expect}");
            }
        }

        #[test]
        fn recovery_state_is_part_of_the_digest() {
            // Two replicas agree while both track the same lifecycle;
            // declaring the dropout (and each accepted share) moves the
            // digest, so replicas cannot silently disagree on phase.
            let build = || {
                let mut w = masked_world(4, 1);
                for i in [0usize, 1, 3] {
                    let masked = masked_submission(&w, i, 0);
                    w.contract
                        .execute(
                            &ctx(i as u32),
                            &FlCall::SubmitMaskedUpdate { round: 0, masked },
                        )
                        .unwrap();
                }
                w
            };
            let mut a = build();
            let b = build();
            assert_eq!(a.contract.state_digest(), b.contract.state_digest());
            a.contract
                .execute(&ctx(0), &FlCall::EvaluateRound { round: 0 })
                .unwrap();
            assert_ne!(
                a.contract.state_digest(),
                b.contract.state_digest(),
                "entering recovery must move the state root"
            );
            let before_share = a.contract.state_digest();
            a.contract
                .execute(&ctx(0), &recovery_share_call(&a, 2, 0))
                .unwrap();
            assert_ne!(
                a.contract.state_digest(),
                before_share,
                "every accepted share must move the state root"
            );
        }

        #[test]
        fn full_round_records_everyone_as_survivor() {
            let mut w = masked_world(4, 2);
            for i in 0..4usize {
                let masked = masked_submission(&w, i, 0);
                w.contract
                    .execute(
                        &ctx(i as u32),
                        &FlCall::SubmitMaskedUpdate { round: 0, masked },
                    )
                    .unwrap();
            }
            w.contract
                .execute(&ctx(0), &FlCall::EvaluateRound { round: 0 })
                .unwrap();
            let record = &w.contract.history()[0];
            assert_eq!(record.survivors, vec![0, 1, 2, 3]);
            assert!(record.dropped.is_empty());
            assert!(record.recovery.is_empty());
        }

        #[test]
        fn sharded_round_emits_cohort_evidence_and_composes() {
            // 8 owners, 2 cohorts of 4, 2 groups per cohort, nobody
            // drops: the hierarchical path must bind per-cohort
            // evidence into the record and compose within-cohort
            // values with the second-level cohort values.
            let (n, m, k) = (8usize, 2usize, 2usize);
            let mut w = masked_world_sharded(n, m, k);
            for i in 0..n {
                let masked = masked_submission(&w, i, 0);
                w.contract
                    .execute(
                        &ctx(i as u32),
                        &FlCall::SubmitMaskedUpdate { round: 0, masked },
                    )
                    .unwrap();
            }
            let out = w
                .contract
                .execute(&ctx(0), &FlCall::EvaluateRound { round: 0 })
                .unwrap();
            assert!(out.events[0].contains("k=2 cohorts"), "{:?}", out.events);

            let record = &w.contract.history()[0];
            assert_eq!(record.cohorts.len(), k);
            assert_eq!(record.groups.len(), k * m);
            assert_eq!(record.per_group_sv.len(), k * m);

            // The cohort memberships partition the owner set.
            let mut all: Vec<usize> = record
                .cohorts
                .iter()
                .flat_map(|c| c.members.clone())
                .collect();
            all.sort_unstable();
            assert_eq!(all, (0..n).collect::<Vec<_>>());

            for (c, ev) in record.cohorts.iter().enumerate() {
                assert_eq!(ev.survivors, ev.members, "nobody dropped");
                assert!(ev.dropped.is_empty());
                assert_eq!(ev.sv_method, SvMethod::GroupExact);
                // Composition efficiency: each cohort's member values
                // sum to the cohort's second-level value.
                let total: f64 = ev.members.iter().map(|&i| record.per_owner_sv[i]).sum();
                assert!(
                    (total - ev.sv).abs() < 1e-9,
                    "cohort {c}: members sum {total}, cohort SV {}",
                    ev.sv
                );
            }
            // The record totals include the second-level game on top
            // of the per-cohort passes.
            let within: usize = record.cohorts.iter().map(|c| c.utility_evaluations).sum();
            assert!(record.utility_evaluations > within);
        }

        #[test]
        fn fully_dropped_cohort_scores_zero_and_survives_evaluation() {
            // 9 owners, 3 cohorts of 3, one group per cohort. Every
            // member of one cohort drops after masking; the 6 survivors
            // (>= threshold 5) recover the keys and the round completes
            // with the dead cohort out of the second-level game.
            let (n, m, k) = (9usize, 1usize, 3usize);
            let mut w = masked_world_sharded(n, m, k);
            let threshold = w.contract.params().escrow_threshold;
            let plan = RoundPlan::new(w.contract.params().permutation_seed, 0, n, k, m).unwrap();
            let dead: Vec<usize> = {
                let mut v = plan.cohorts()[0].clone();
                v.sort_unstable();
                v
            };
            let survivors: Vec<usize> = (0..n).filter(|i| !dead.contains(i)).collect();

            for &i in &survivors {
                let masked = masked_submission(&w, i, 0);
                w.contract
                    .execute(
                        &ctx(i as u32),
                        &FlCall::SubmitMaskedUpdate { round: 0, masked },
                    )
                    .unwrap();
            }
            w.contract
                .execute(
                    &ctx(survivors[0] as u32),
                    &FlCall::EvaluateRound { round: 0 },
                )
                .unwrap();
            assert!(matches!(w.contract.phase(), RoundPhase::Recovering { .. }));
            for &d in &dead {
                for &p in survivors.iter().take(threshold) {
                    w.contract
                        .execute(&ctx(p as u32), &recovery_share_call(&w, d, p))
                        .unwrap();
                }
            }
            w.contract
                .execute(
                    &ctx(survivors[0] as u32),
                    &FlCall::EvaluateRound { round: 0 },
                )
                .unwrap();

            let record = &w.contract.history()[0];
            assert_eq!(record.survivors, survivors);
            assert_eq!(record.dropped, dead);
            // The dead cohort stays evidence-complete but worthless.
            let ev0 = &record.cohorts[0];
            assert!(ev0.survivors.is_empty());
            assert_eq!(ev0.sv, 0.0);
            assert_eq!(ev0.utility_evaluations, 0);
            for &i in &dead {
                assert_eq!(record.per_owner_sv[i], 0.0);
            }
            // Live cohorts still compose to their second-level values.
            for ev in &record.cohorts[1..] {
                let total: f64 = ev.members.iter().map(|&i| record.per_owner_sv[i]).sum();
                assert!((total - ev.sv).abs() < 1e-9);
            }
            assert_eq!(w.contract.current_round(), 1);
            assert_eq!(w.contract.phase(), &RoundPhase::Submitting);
        }
    }

    #[test]
    fn masked_aggregation_cancels_for_real_masks() {
        // End-to-end through the contract: three owners in ONE group mask
        // pairwise; the group model must equal the mean of the plaintext.
        use fl_crypto::dh::DhGroup;
        use fl_crypto::secure_agg::{KeyDirectory, PartyState};

        let mut c = contract(3, 1); // single group: all three cancel
        let dh = DhGroup::simulation_256();
        let codec = FixedCodec::new(c.params.frac_bits);
        let dim = c.params.model_dim;

        let keypairs: Vec<_> = (0..3u8)
            .map(|i| dh.keypair_from_seed(&[i + 1; 32]))
            .collect();
        let mut dir = KeyDirectory::new();
        for (i, kp) in keypairs.iter().enumerate() {
            dir.advertise(i as u32, kp.public).unwrap();
        }
        for (i, kp) in keypairs.iter().enumerate() {
            c.execute(
                &ctx(i as u32),
                &FlCall::AdvertiseKey {
                    public_key: kp.public.to_be_bytes(),
                },
            )
            .unwrap();
        }
        let plain: Vec<Vec<f64>> = (0..3).map(|i| vec![0.1 * (i as f64 + 1.0); dim]).collect();
        for (i, kp) in keypairs.iter().enumerate() {
            let party = PartyState::derive(&dh, i as u32, kp, &dir).unwrap();
            let masked = party.masked_update(&codec, 0, &plain[i]);
            c.execute(
                &ctx(i as u32),
                &FlCall::SubmitMaskedUpdate { round: 0, masked },
            )
            .unwrap();
        }
        c.execute(&ctx(0), &FlCall::EvaluateRound { round: 0 })
            .unwrap();
        // Global model = the single group model = mean of plaintexts = 0.2.
        for w in c.global_model() {
            assert!((w - 0.2).abs() < 1e-6, "got {w}");
        }
    }

    #[test]
    fn fl_call_decode_roundtrips_every_variant() {
        let calls = [
            FlCall::AdvertiseKey {
                public_key: vec![7; 32],
            },
            FlCall::SubmitMaskedUpdate {
                round: 3,
                masked: vec![1, u64::MAX, 0],
            },
            FlCall::EvaluateRound { round: 9 },
            FlCall::EscrowKeyShares {
                commitments: vec![Hash32::of_bytes(b"a"), Hash32::of_bytes(b"b")],
            },
            FlCall::SubmitRecoveryShare {
                round: 1,
                dropped: 2,
                share_x: 3,
                share_y: vec![0xde, 0xad],
            },
        ];
        for call in &calls {
            let enc = call.encode();
            assert_eq!(&FlCall::decode(&enc).unwrap(), call);
            // Strict: a truncated call must never decode.
            assert!(FlCall::decode(&enc[..enc.len() - 1]).is_err());
        }
        assert!(FlCall::decode(&[0xee]).is_err(), "unknown tag rejected");
    }

    #[test]
    fn snapshot_state_restores_to_identical_digest() {
        // Drive a contract through a full round — keys, escrows, masked
        // updates, evaluation — then snapshot, restore, and require the
        // restored contract to be digest-identical AND behaviourally
        // live (it must accept the next round's traffic).
        let mut c = contract(3, 2);
        advertise_all(&mut c, 3);
        for i in 0..3u32 {
            let masked = plain_update(&c, 0.5);
            c.execute(&ctx(i), &FlCall::SubmitMaskedUpdate { round: 0, masked })
                .unwrap();
        }
        c.execute(&ctx(0), &FlCall::EvaluateRound { round: 0 })
            .unwrap();
        assert_eq!(c.history().len(), 1);

        let blob = c.snapshot_state();
        let test_set = SyntheticDigits::small().generate(99);
        let mut restored =
            FlContract::restore(test_params(3, 2), test_set, &blob).expect("snapshot decodes");
        assert_eq!(
            restored.state_digest(),
            c.state_digest(),
            "restore must be digest-exact"
        );
        assert_eq!(restored.history().len(), 1);

        // The restored contract keeps executing in lockstep.
        for i in 0..3u32 {
            let call = FlCall::SubmitMaskedUpdate {
                round: 1,
                masked: plain_update(&restored, 0.25),
            };
            restored.execute(&ctx(i), &call).unwrap();
            c.execute(&ctx(i), &call).unwrap();
        }
        assert_eq!(restored.state_digest(), c.state_digest());
    }

    #[test]
    fn snapshot_restore_rejects_malformed_blobs() {
        let c = contract(3, 2);
        let blob = c.snapshot_state();
        let test_set = SyntheticDigits::small().generate(99);
        // Truncations and trailing garbage must error, never panic.
        for cut in [0, 1, blob.len() / 2, blob.len() - 1] {
            assert!(
                FlContract::restore(test_params(3, 2), test_set.clone(), &blob[..cut]).is_err(),
                "prefix of {cut} bytes"
            );
        }
        let mut padded = blob;
        padded.push(0);
        assert!(FlContract::restore(test_params(3, 2), test_set, &padded).is_err());
    }
}
