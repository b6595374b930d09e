//! The consensus-visible records of a round: its lifecycle phase and
//! the immutable audit trail an evaluated round leaves behind.

use fl_chain::codec::{Decode, DecodeError, Encode, Reader};
use fl_chain::tx::AccountId;

use crate::config::SvMethod;

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
        /// Owners declared dropped, in owner-list order.
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
