//! The contract's call surface: [`FlCall`] and its wire codec, the
//! escrow-share commitment, and the typed rejection [`FlError`].

use fl_chain::codec::{Decode, DecodeError, Encode, Reader};
use fl_chain::hash::Hash32;
use fl_chain::tx::AccountId;
use fl_crypto::shamir::Share;
use shapley::hierarchy::HierarchyError;

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
    /// Reconstruction of a dropped owner's key failed: the pooled shares
    /// do not reproduce the advertised public key, or the state lacks the
    /// shares or the key.
    RecoveryFailed {
        /// The dropped owner.
        owner: AccountId,
        /// Underlying dropout-recovery error.
        reason: String,
    },
    /// The state holds no masked update of an owner the round counts as
    /// a survivor.
    MissingSubmission(AccountId),
    /// The state holds no advertised key of a survivor whose group's
    /// residual masks need stripping.
    MissingKey(AccountId),
    /// The round's layout — cohort plan or composition of its two
    /// levels — could not be built from the parameters.
    Layout(HierarchyError),
    /// The genesis parameters are inconsistent with each other or with
    /// the test set ([`super::FlParams::validate`]).
    InvalidParams(String),
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
            Self::MissingSubmission(id) => {
                write!(f, "survivor {id} has no submission on record")
            }
            Self::MissingKey(id) => write!(f, "survivor {id} has no advertised key"),
            Self::Layout(e) => write!(f, "round layout: {e}"),
            Self::InvalidParams(reason) => write!(f, "invalid genesis parameters: {reason}"),
        }
    }
}

impl std::error::Error for FlError {}
