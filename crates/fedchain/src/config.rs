//! Protocol configuration — the paper's "off-chain setup stage".
//!
//! Sect. IV-B: "users reach a consensus on FL parameters (e.g., FL
//! algorithm), secure aggregation parameters (e.g., generator g), and
//! contribution evaluation parameters (e.g., permutation seed e, group
//! size m, utility function u) and submit them to the blockchain."

use fl_chain::codec::{Decode, DecodeError, Encode, Reader};
use fl_ml::dataset::SyntheticDigits;
use fl_ml::split::train_len;
use fl_ml::TrainConfig;
use numeric::FixedCodec;
use shapley::coalition::{MAX_PLAYERS, MAX_SAMPLED_PLAYERS};
use shapley::hierarchy::{HierarchyError, RoundPlan};

/// The contribution-evaluation method for a protocol run — part of the
/// on-chain agreement, exactly like the permutation seed and group
/// count.
///
/// The paper treats "contribution evaluation parameters" as setup-stage
/// consensus artefacts; making the *method* one of them keeps the
/// evaluation transparent: every miner dispatches through the same
/// [`shapley::estimator::SvEstimator`], and the choice is encoded into
/// the contract's state digest and every round's audit record, so an
/// auditor replaying the chain with a different method diverges
/// immediately.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SvMethod {
    /// Exact SV over the `m` group models — the paper's Algorithm 1
    /// lines 4–6 (`2^m` utility evaluations, `m ≤ 25`).
    #[default]
    GroupExact,
    /// Permutation-sampling Monte-Carlo over the group models
    /// (`m ≤ 64`).
    MonteCarlo {
        /// Permutations sampled per evaluation.
        permutations: u32,
    },
    /// Stratified per-(group, size) subset sampling over the group
    /// models — polynomial cost, `m ≤ 64`; the method that lifts the
    /// exact-enumeration cap.
    Stratified {
        /// Subset draws per stratum.
        samples_per_stratum: u32,
    },
}

impl SvMethod {
    /// Stable method name, shown in round events, reports and
    /// validation errors. Nothing is derived from it: the contract
    /// dispatches on the variant itself.
    pub fn name(&self) -> &'static str {
        match self {
            Self::GroupExact => "group_exact",
            Self::MonteCarlo { .. } => "monte_carlo",
            Self::Stratified { .. } => "stratified",
        }
    }

    /// Largest group count the method supports: the `2^m` enumeration
    /// cap for [`SvMethod::GroupExact`], the coalition-mask width for
    /// the sampling methods.
    pub fn max_groups(&self) -> usize {
        match self {
            Self::GroupExact => MAX_PLAYERS,
            Self::MonteCarlo { .. } | Self::Stratified { .. } => MAX_SAMPLED_PLAYERS,
        }
    }

    /// Validates the method against a group count.
    pub fn validate_groups(&self, num_groups: usize) -> Result<(), ConfigError> {
        if num_groups > self.max_groups() {
            return Err(ConfigError::GroupCountExceedsMethodCap {
                groups: num_groups,
                cap: self.max_groups(),
                method: self.name(),
            });
        }
        match self {
            Self::MonteCarlo { permutations: 0 } => Err(ConfigError::NoSvSamples("monte_carlo")),
            Self::Stratified {
                samples_per_stratum: 0,
            } => Err(ConfigError::NoSvSamples("stratified")),
            _ => Ok(()),
        }
    }
}

impl Encode for SvMethod {
    fn encode_to(&self, out: &mut Vec<u8>) {
        match self {
            Self::GroupExact => out.push(0),
            Self::MonteCarlo { permutations } => {
                out.push(1);
                u64::from(*permutations).encode_to(out);
            }
            Self::Stratified {
                samples_per_stratum,
            } => {
                out.push(2);
                u64::from(*samples_per_stratum).encode_to(out);
            }
        }
    }
}

impl Decode for SvMethod {
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let widened = |v: u64| {
            u32::try_from(v).map_err(|_| DecodeError::BadTag {
                type_name: "SvMethod sample count",
                tag: 0xff,
            })
        };
        match r.take_u8()? {
            0 => Ok(Self::GroupExact),
            1 => Ok(Self::MonteCarlo {
                permutations: widened(u64::decode_from(r)?)?,
            }),
            2 => Ok(Self::Stratified {
                samples_per_stratum: widened(u64::decode_from(r)?)?,
            }),
            tag => Err(DecodeError::BadTag {
                type_name: "SvMethod",
                tag,
            }),
        }
    }
}

/// Full configuration of one protocol run.
#[derive(Debug, Clone)]
pub struct FlConfig {
    /// Number of data owners `n` (the paper uses 9).
    pub num_owners: usize,
    /// Number of SV groups `m` (resolution/privacy knob, `1..=n`).
    pub num_groups: usize,
    /// Contribution-evaluation method the contract dispatches to.
    pub sv_method: SvMethod,
    /// Public permutation seed `e`.
    pub permutation_seed: u64,
    /// Total federated rounds `R`.
    pub rounds: u64,
    /// Local-trainer hyper-parameters.
    pub train: TrainConfig,
    /// Dataset generator settings.
    pub data: SyntheticDigits,
    /// Data-quality noise schedule `σ` (owner `i` gets `N(0, σ·i)`).
    pub sigma: f64,
    /// Train fraction of the train/test split (paper: 0.8).
    pub train_fraction: f64,
    /// Master seed: derives the dataset, the split, the shards, the
    /// noise, and every DH keypair. One seed ⇒ one reproducible world.
    pub world_seed: u64,
    /// Fixed-point fractional bits for the secure-aggregation ring.
    pub frac_bits: u32,
    /// Per-round dropout schedule: `(round, owner positions)` pairs
    /// naming owners that vanish after masking but before submitting in
    /// that round. The protocol driver withholds their transactions and
    /// drives the contract's recovery phase instead; an empty schedule is
    /// the paper's no-churn setting.
    pub dropout_schedule: Vec<(u64, Vec<usize>)>,
    /// Number of cohorts `k` the owners are partitioned into each round
    /// by the deterministic [`shapley::hierarchy::RoundPlan`]: secure
    /// aggregation and a cohort-local SV pass run per cohort, one block
    /// is committed per cohort, and for `k > 1` the second-level cohort
    /// game composes the global contributions. `1` is the paper's flat
    /// round: one cohort holding every owner, one block, no second
    /// level.
    pub num_cohorts: usize,
    /// Size of the miner committee that runs consensus (`0` = every
    /// owner mines, the cross-silo default). At cohort scale a bounded
    /// committee keeps per-commit re-execution cost independent of the
    /// owner count.
    pub miner_committee: usize,
}

/// Errors from validating a configuration.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// Fewer than two owners: secure aggregation cannot hide anything.
    TooFewOwners(usize),
    /// Group count outside `1..=num_owners`.
    BadGroupCount {
        /// Requested groups.
        groups: usize,
        /// Owner count.
        owners: usize,
    },
    /// Zero rounds requested.
    NoRounds,
    /// Train fraction outside `(0, 1)`.
    BadTrainFraction(f64),
    /// Negative (or NaN) sigma.
    NegativeSigma(f64),
    /// Fixed-point fractional bits outside [`FixedCodec::FRAC_BITS`].
    BadFracBits(u32),
    /// Fewer than two classes: softmax regression has nothing to tell
    /// apart.
    TooFewClasses(usize),
    /// Zero features per example.
    NoFeatures,
    /// A feature clip range that is not finite with `lo < hi`.
    BadClipRange {
        /// Lower end.
        lo: f64,
        /// Upper end.
        hi: f64,
    },
    /// A non-finite or negative within-class standard deviation.
    BadWithinClassStd(f64),
    /// A non-finite centroid spread.
    BadCentroidSpread(f64),
    /// The train/test split of `instances` leaves one side empty.
    EmptySplitSide {
        /// Generated instances.
        instances: usize,
        /// Instances the split sends to training.
        train: usize,
    },
    /// More owners than training examples: some shard would be empty.
    MoreOwnersThanExamples {
        /// Owner count.
        owners: usize,
        /// Training examples after the split.
        examples: usize,
    },
    /// The chosen SV method cannot evaluate this many groups.
    GroupCountExceedsMethodCap {
        /// Requested groups.
        groups: usize,
        /// The method's cap.
        cap: usize,
        /// Method name.
        method: &'static str,
    },
    /// A sampling SV method was configured with zero samples.
    NoSvSamples(&'static str),
    /// A dropout schedule entry names a round the protocol never runs.
    DropoutRoundOutOfRange {
        /// Scheduled round.
        round: u64,
        /// Configured round count.
        rounds: u64,
    },
    /// A dropout schedule entry names an owner position out of range.
    DropoutOwnerOutOfRange {
        /// Scheduled owner position.
        owner: usize,
        /// Owner count.
        owners: usize,
    },
    /// A round drops so many owners that the survivors cannot reach the
    /// escrow threshold — the dropped keys would be unrecoverable.
    TooManyDropouts {
        /// The offending round.
        round: u64,
        /// Owners dropped in that round.
        dropped: usize,
        /// Maximum recoverable dropouts (`n - escrow_threshold`).
        max: usize,
    },
    /// Cohort count outside `1..=num_owners`.
    BadCohortCount {
        /// Requested cohorts.
        cohorts: usize,
        /// Owner count.
        owners: usize,
    },
    /// The chosen SV method cannot play the second-level game over this
    /// many cohorts.
    CohortCountExceedsMethodCap {
        /// Requested cohorts.
        cohorts: usize,
        /// The method's cap.
        cap: usize,
        /// Method name.
        method: &'static str,
    },
    /// More within-cohort groups requested than the smallest cohort
    /// holds under the balanced partition.
    GroupCountExceedsCohortSize {
        /// Requested within-cohort groups.
        groups: usize,
        /// Smallest cohort size (`num_owners / num_cohorts`).
        cohort_size: usize,
    },
    /// The dropout schedule wipes out an entire cohort of that round's
    /// plan. The contract tolerates a fully-dropped cohort at runtime
    /// (the second-level game restricts to survivors), but *scheduling*
    /// one is almost always a misconfiguration — the cohort's data
    /// contributes nothing that round — so validation rejects it.
    CohortFullyDropped {
        /// The offending round.
        round: u64,
        /// Cohort index within that round's plan.
        cohort: usize,
        /// The cohort's size.
        size: usize,
    },
    /// Miner committee larger than the owner set.
    BadMinerCommittee {
        /// Requested committee size.
        committee: usize,
        /// Owner count.
        owners: usize,
    },
    /// The ring clamp `±2^(63 − frac_bits) / g_max` an honest owner
    /// applies before encoding (`FlConfig::ring_clamp`) falls below 1:
    /// ordinary weights would saturate.
    RingClampBelowOne {
        /// Fractional bits of the encoding.
        frac_bits: u32,
        /// The largest planned group, `g_max`.
        largest_group: usize,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::TooFewOwners(n) => write!(f, "need >= 2 owners, got {n}"),
            Self::BadGroupCount { groups, owners } => {
                write!(f, "num_groups {groups} outside 1..={owners}")
            }
            Self::NoRounds => write!(f, "need at least one round"),
            Self::BadTrainFraction(v) => write!(f, "train fraction {v} outside (0,1)"),
            Self::NegativeSigma(v) => write!(f, "sigma {v} must be non-negative"),
            Self::BadFracBits(bits) => write!(f, "frac_bits {bits} outside 1..=52"),
            Self::TooFewClasses(c) => write!(f, "need >= 2 classes, got {c}"),
            Self::NoFeatures => write!(f, "need at least one feature"),
            Self::BadClipRange { lo, hi } => {
                write!(f, "clip range ({lo}, {hi}) must be finite with lo < hi")
            }
            Self::BadWithinClassStd(v) => {
                write!(f, "within-class std {v} must be finite and non-negative")
            }
            Self::BadCentroidSpread(v) => write!(f, "centroid spread {v} must be finite"),
            Self::EmptySplitSide { instances, train } => write!(
                f,
                "splitting {instances} instances sends {train} to training, leaving a side empty"
            ),
            Self::MoreOwnersThanExamples { owners, examples } => {
                write!(
                    f,
                    "more owners ({owners}) than training examples ({examples})"
                )
            }
            Self::GroupCountExceedsMethodCap {
                groups,
                cap,
                method,
            } => {
                write!(
                    f,
                    "SV method {method} supports at most {cap} groups, got {groups}"
                )
            }
            Self::NoSvSamples(method) => {
                write!(f, "SV method {method} needs a non-zero sample count")
            }
            Self::DropoutRoundOutOfRange { round, rounds } => {
                write!(
                    f,
                    "dropout scheduled for round {round}, but only {rounds} rounds run"
                )
            }
            Self::DropoutOwnerOutOfRange { owner, owners } => {
                write!(
                    f,
                    "dropout names owner {owner}, but only {owners} owners exist"
                )
            }
            Self::TooManyDropouts {
                round,
                dropped,
                max,
            } => {
                write!(
                    f,
                    "round {round} drops {dropped} owners; at most {max} are recoverable"
                )
            }
            Self::BadCohortCount { cohorts, owners } => {
                write!(f, "num_cohorts {cohorts} outside 1..={owners}")
            }
            Self::CohortCountExceedsMethodCap {
                cohorts,
                cap,
                method,
            } => {
                write!(
                    f,
                    "SV method {method} supports at most {cap} cohorts in the second-level game, got {cohorts}"
                )
            }
            Self::GroupCountExceedsCohortSize {
                groups,
                cohort_size,
            } => {
                write!(
                    f,
                    "num_groups {groups} exceeds the smallest cohort ({cohort_size} members)"
                )
            }
            Self::CohortFullyDropped {
                round,
                cohort,
                size,
            } => {
                write!(
                    f,
                    "round {round} drops all {size} members of cohort {cohort}"
                )
            }
            Self::BadMinerCommittee { committee, owners } => {
                write!(f, "miner committee {committee} exceeds {owners} owners")
            }
            Self::RingClampBelowOne {
                frac_bits,
                largest_group,
            } => write!(
                f,
                "frac_bits {frac_bits} leaves a group of {largest_group} a weight clamp \
                 below 1 (2^(63 - frac_bits) / group size)"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

impl FlConfig {
    /// The paper's experimental setting: 9 owners on the digits layout,
    /// 8:2 split. `num_groups` defaults to 3; experiments sweep it.
    pub fn paper_setting() -> Self {
        Self {
            num_owners: 9,
            num_groups: 3,
            sv_method: SvMethod::GroupExact,
            permutation_seed: 0x5eed,
            rounds: 1,
            train: TrainConfig {
                learning_rate: 0.5,
                epochs: 30,
                l2: 1e-4,
            },
            data: SyntheticDigits::default(),
            sigma: 0.0,
            train_fraction: 0.8,
            world_seed: 20210424, // arXiv v2 date of the paper
            frac_bits: 24,
            dropout_schedule: Vec::new(),
            num_cohorts: 1,
            miner_committee: 0,
        }
    }

    /// A small, fast configuration for doc-tests and examples: 4 owners,
    /// 600 instances, 2 groups, 1 round.
    pub fn quick_demo() -> Self {
        Self {
            num_owners: 4,
            num_groups: 2,
            data: SyntheticDigits::small(),
            train: TrainConfig {
                learning_rate: 0.5,
                epochs: 10,
                l2: 1e-4,
            },
            ..Self::paper_setting()
        }
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.num_owners < 2 {
            return Err(ConfigError::TooFewOwners(self.num_owners));
        }
        if self.num_groups == 0 || self.num_groups > self.num_owners {
            return Err(ConfigError::BadGroupCount {
                groups: self.num_groups,
                owners: self.num_owners,
            });
        }
        if self.rounds == 0 {
            return Err(ConfigError::NoRounds);
        }
        if !(self.train_fraction > 0.0 && self.train_fraction < 1.0) {
            return Err(ConfigError::BadTrainFraction(self.train_fraction));
        }
        // NaN fails this too, where `sigma < 0.0` would let it through
        // to the quality schedule's assert.
        if self.sigma < 0.0 || self.sigma.is_nan() {
            return Err(ConfigError::NegativeSigma(self.sigma));
        }
        if !FixedCodec::FRAC_BITS.contains(&self.frac_bits) {
            return Err(ConfigError::BadFracBits(self.frac_bits));
        }
        if self.data.classes < 2 {
            return Err(ConfigError::TooFewClasses(self.data.classes));
        }
        if self.data.features == 0 {
            return Err(ConfigError::NoFeatures);
        }
        // The generator's other numbers: each feature is clamped to the
        // clip range (which panics on `lo > hi` or a NaN end), and a
        // non-finite std or spread turns the data into NaN or ∞.
        let (lo, hi) = self.data.clip;
        if !(lo.is_finite() && hi.is_finite() && lo < hi) {
            return Err(ConfigError::BadClipRange { lo, hi });
        }
        let std = self.data.within_class_std;
        if !(std.is_finite() && std >= 0.0) {
            return Err(ConfigError::BadWithinClassStd(std));
        }
        if !self.data.centroid_spread.is_finite() {
            return Err(ConfigError::BadCentroidSpread(self.data.centroid_spread));
        }
        // What `World::generate` will split and shard.
        let instances = self.data.instances;
        let train = train_len(instances, self.train_fraction);
        if train == 0 || train >= instances {
            return Err(ConfigError::EmptySplitSide { instances, train });
        }
        if self.num_owners > train {
            return Err(ConfigError::MoreOwnersThanExamples {
                owners: self.num_owners,
                examples: train,
            });
        }
        self.sv_method.validate_groups(self.num_groups)?;
        // Cohorts in 1..=n, groups that fit the smallest cohort: the
        // layout's own rules, which hold for every round if for one —
        // as do the group sizes the ring clamp is derived from.
        let plan = self.round_plan(0)?;
        if self.ring_clamp(&plan) < 1.0 {
            return Err(ConfigError::RingClampBelowOne {
                frac_bits: self.frac_bits,
                largest_group: largest_group(&plan),
            });
        }
        // The second-level game enumerates coalitions over the cohorts
        // (vacuous for the one cohort of a flat round).
        if self.num_cohorts > self.sv_method.max_groups() {
            return Err(ConfigError::CohortCountExceedsMethodCap {
                cohorts: self.num_cohorts,
                cap: self.sv_method.max_groups(),
                method: self.sv_method.name(),
            });
        }
        if self.miner_committee > self.num_owners {
            return Err(ConfigError::BadMinerCommittee {
                committee: self.miner_committee,
                owners: self.num_owners,
            });
        }
        let max_dropouts = self.num_owners - self.escrow_threshold();
        for (round, owners) in &self.dropout_schedule {
            if *round >= self.rounds {
                return Err(ConfigError::DropoutRoundOutOfRange {
                    round: *round,
                    rounds: self.rounds,
                });
            }
            for &owner in owners {
                if owner >= self.num_owners {
                    return Err(ConfigError::DropoutOwnerOutOfRange {
                        owner,
                        owners: self.num_owners,
                    });
                }
            }
            let dropped = self.dropped_in_round(*round);
            if dropped.len() > max_dropouts {
                return Err(ConfigError::TooManyDropouts {
                    round: *round,
                    dropped: dropped.len(),
                    max: max_dropouts,
                });
            }
            // Cohort interaction: the partition is round-dependent, so
            // check each scheduled round's actual plan. Wiping a whole
            // cohort is rejected here as a planning error; the contract
            // itself still tolerates one at runtime. (The one cohort of
            // a flat round can never be wiped: `max_dropouts < n`.)
            let plan = self.round_plan(*round)?;
            for (c, cohort) in plan.cohorts().iter().enumerate() {
                if cohort.iter().all(|m| dropped.binary_search(m).is_ok()) {
                    return Err(ConfigError::CohortFullyDropped {
                        round: *round,
                        cohort: c,
                        size: cohort.len(),
                    });
                }
            }
        }
        Ok(())
    }

    /// The layout of `round`, its rejection mapped onto this type's
    /// variants.
    fn round_plan(&self, round: u64) -> Result<RoundPlan, ConfigError> {
        RoundPlan::new(
            self.permutation_seed,
            round,
            self.num_owners,
            self.num_cohorts,
            self.num_groups,
        )
        .map_err(|e| match e {
            HierarchyError::GroupCountExceedsCohortSize {
                groups,
                cohort_size,
            } => ConfigError::GroupCountExceedsCohortSize {
                groups,
                cohort_size,
            },
            // `LengthMismatch` is `compose`'s; a layout fails only on
            // its counts.
            HierarchyError::BadCohortCount { .. } | HierarchyError::LengthMismatch { .. } => {
                ConfigError::BadCohortCount {
                    cohorts: self.num_cohorts,
                    owners: self.num_owners,
                }
            }
        })
    }

    /// The clamp an honest owner applies to each weight before encoding
    /// it in a round laid out by `plan`: `±2^(63 − frac_bits) / g_max`
    /// ([`FixedCodec::summand_limit`]), `g_max` the plan's largest group,
    /// so no group's ring sum of survivors can wrap. Group sizes depend
    /// on the counts alone, so one round's plan answers for every round.
    fn ring_clamp(&self, plan: &RoundPlan) -> f64 {
        FixedCodec::new(self.frac_bits).summand_limit(largest_group(plan))
    }

    /// The clamp of every round: [`Self::ring_clamp`] of the round-0 plan,
    /// unbounded when the counts lay out no round (a configuration
    /// [`Self::validate`] rejects). The contract's owners
    /// ([`crate::protocol`]) and the off-chain reference
    /// ([`crate::world::World::local_updates_from`]) both take it here and
    /// apply it with [`clamp_weights`].
    pub(crate) fn weight_clamp(&self) -> f64 {
        self.round_plan(0)
            .map_or(f64::INFINITY, |plan| self.ring_clamp(&plan))
    }

    /// Shamir reconstruction threshold for the on-chain key escrow: a
    /// strict majority of the cohort, so any honest-majority survivor set
    /// can recover a dropped owner's key while no minority can.
    pub fn escrow_threshold(&self) -> usize {
        self.num_owners / 2 + 1
    }

    /// Owner positions scheduled to drop in `round`, ascending and
    /// deduplicated across schedule entries.
    pub fn dropped_in_round(&self, round: u64) -> Vec<usize> {
        let mut dropped: Vec<usize> = self
            .dropout_schedule
            .iter()
            .filter(|(r, _)| *r == round)
            .flat_map(|(_, owners)| owners.iter().copied())
            .collect();
        dropped.sort_unstable();
        dropped.dedup();
        dropped
    }

    /// Derived sub-seed for a named purpose, so the world seed fans out
    /// into independent streams.
    pub fn sub_seed(&self, purpose: &str) -> u64 {
        let mut acc: u64 = self.world_seed;
        for b in purpose.bytes() {
            acc = acc.wrapping_mul(0x100_0000_01b3).wrapping_add(b as u64);
        }
        acc
    }
}

/// Clamps each weight of an update to `±clamp` ([`FlConfig::weight_clamp`]),
/// as an honest owner does before encoding it.
pub(crate) fn clamp_weights(update: &mut [f64], clamp: f64) {
    for w in update {
        *w = w.clamp(-clamp, clamp);
    }
}

/// The largest secure-aggregation group of `plan`.
fn largest_group(plan: &RoundPlan) -> usize {
    plan.groups()
        .iter()
        .flatten()
        .map(Vec::len)
        .max()
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{FlProtocol, ProtocolError};
    use crate::world::World;

    #[test]
    fn paper_setting_is_valid_and_matches_paper() {
        let c = FlConfig::paper_setting();
        c.validate().unwrap();
        assert_eq!(c.num_owners, 9);
        assert_eq!(c.data.instances, 5620);
        assert!((c.train_fraction - 0.8).abs() < 1e-12);
    }

    #[test]
    fn quick_demo_is_valid() {
        FlConfig::quick_demo().validate().unwrap();
    }

    #[test]
    fn a_ring_clamp_below_one_is_a_typed_error() {
        // At 52 fractional bits the ring holds ±2048: one group of 2 047
        // owners may still clamp at ±1.0005, one of 2 048 would clamp
        // below 1.
        let config = |owners: usize| FlConfig {
            num_owners: owners,
            num_groups: 1,
            frac_bits: 52,
            data: SyntheticDigits {
                instances: 5200,
                ..SyntheticDigits::small()
            },
            ..FlConfig::quick_demo()
        };
        config(2047).validate().unwrap();
        let plan = config(2047).round_plan(0).unwrap();
        assert!(config(2047).ring_clamp(&plan) >= 1.0);
        assert_eq!(
            config(2048).validate(),
            Err(ConfigError::RingClampBelowOne {
                frac_bits: 52,
                largest_group: 2048,
            })
        );
        // 4 095 owners in two groups: the larger (2 048) decides. At the
        // default 24 bits the clamp is nowhere near 1.
        let split = FlConfig {
            num_groups: 2,
            ..config(4095)
        };
        assert_eq!(
            split.validate(),
            Err(ConfigError::RingClampBelowOne {
                frac_bits: 52,
                largest_group: 2048,
            })
        );
        FlConfig {
            frac_bits: 24,
            ..config(2048)
        }
        .validate()
        .unwrap();
    }

    #[test]
    fn validation_catches_each_field() {
        let base = FlConfig::quick_demo;
        let mut c = base();
        c.num_owners = 1;
        assert_eq!(c.validate(), Err(ConfigError::TooFewOwners(1)));

        let mut c = base();
        c.num_groups = 0;
        assert!(matches!(
            c.validate(),
            Err(ConfigError::BadGroupCount { .. })
        ));

        let mut c = base();
        c.num_groups = c.num_owners + 1;
        assert!(matches!(
            c.validate(),
            Err(ConfigError::BadGroupCount { .. })
        ));

        let mut c = base();
        c.rounds = 0;
        assert_eq!(c.validate(), Err(ConfigError::NoRounds));

        let mut c = base();
        c.train_fraction = 1.0;
        assert!(matches!(
            c.validate(),
            Err(ConfigError::BadTrainFraction(_))
        ));

        let mut c = base();
        c.sigma = -0.1;
        assert!(matches!(c.validate(), Err(ConfigError::NegativeSigma(_))));
    }

    #[test]
    fn configs_that_panicked_world_generation_are_typed_errors() {
        // quick_demo: 600 instances, 480 of them training examples. Each
        // case passed `validate` and then panicked inside
        // `World::generate` or `FlProtocol::new`.
        let base = FlConfig::quick_demo;
        let mut cases: Vec<(FlConfig, ConfigError)> = vec![
            (
                FlConfig {
                    num_owners: 481,
                    num_groups: 1,
                    ..base()
                },
                ConfigError::MoreOwnersThanExamples {
                    owners: 481,
                    examples: 480,
                },
            ),
            (
                FlConfig {
                    data: SyntheticDigits {
                        instances: 1,
                        ..base().data
                    },
                    ..base()
                },
                ConfigError::EmptySplitSide {
                    instances: 1,
                    train: 1,
                },
            ),
            (
                FlConfig {
                    data: SyntheticDigits {
                        classes: 1,
                        ..base().data
                    },
                    ..base()
                },
                ConfigError::TooFewClasses(1),
            ),
            (
                FlConfig {
                    data: SyntheticDigits {
                        features: 0,
                        ..base().data
                    },
                    ..base()
                },
                ConfigError::NoFeatures,
            ),
            (
                FlConfig {
                    frac_bits: 80,
                    ..base()
                },
                ConfigError::BadFracBits(80),
            ),
            // NaN is no sigma either.
            (
                FlConfig {
                    sigma: f64::NAN,
                    ..base()
                },
                ConfigError::NegativeSigma(f64::NAN),
            ),
        ];
        // The generator's numbers: a clip range `f64::clamp` panics on,
        // and numbers that made every feature NaN or ∞ (such a run
        // committed with final accuracy 0.0).
        let with_data = |data: SyntheticDigits| FlConfig { data, ..base() };
        let clip = |lo: f64, hi: f64| {
            (
                with_data(SyntheticDigits {
                    clip: (lo, hi),
                    ..base().data
                }),
                ConfigError::BadClipRange { lo, hi },
            )
        };
        let (nan, inf) = (f64::NAN, f64::INFINITY);
        cases.extend([
            clip(16.0, 0.0),
            clip(nan, 16.0),
            clip(0.0, inf),
            clip(-inf, 16.0),
            clip(8.0, 8.0),
        ]);
        for std in [nan, inf, -1.0] {
            cases.push((
                with_data(SyntheticDigits {
                    within_class_std: std,
                    ..base().data
                }),
                ConfigError::BadWithinClassStd(std),
            ));
        }
        for spread in [nan, -inf] {
            cases.push((
                with_data(SyntheticDigits {
                    centroid_spread: spread,
                    ..base().data
                }),
                ConfigError::BadCentroidSpread(spread),
            ));
        }
        // `PartialEq` cannot compare a NaN payload; `Debug` prints it.
        let same =
            |got: &ConfigError, want: &ConfigError| format!("{got:?}") == format!("{want:?}");
        for (config, expected) in cases {
            let got = config.validate().expect_err("validate accepted the config");
            assert!(same(&got, &expected), "{expected}: validate gave {got}");
            let got = World::generate(&config).expect_err("World::generate accepted the config");
            assert!(
                same(&got, &expected),
                "{expected}: World::generate gave {got}"
            );
            match FlProtocol::new(config) {
                Err(ProtocolError::Config(e)) => assert!(same(&e, &expected), "{expected}: {e}"),
                Err(other) => panic!("{expected}: FlProtocol::new gave {other}"),
                Ok(_) => panic!("{expected}: FlProtocol::new accepted the config"),
            }
        }
        // The edges stay valid: a zero std, a negative spread.
        for data in [
            SyntheticDigits {
                within_class_std: 0.0,
                ..base().data
            },
            SyntheticDigits {
                centroid_spread: -4.0,
                ..base().data
            },
        ] {
            assert_eq!(FlConfig { data, ..base() }.validate(), Ok(()));
        }
    }

    #[test]
    fn sv_method_caps_and_samples_validated() {
        // GroupExact is capped at the exact-enumeration bound.
        assert_eq!(SvMethod::GroupExact.max_groups(), 25);
        assert!(SvMethod::GroupExact.validate_groups(25).is_ok());
        assert!(matches!(
            SvMethod::GroupExact.validate_groups(26),
            Err(ConfigError::GroupCountExceedsMethodCap { cap: 25, .. })
        ));
        // Sampling methods reach the full mask width.
        let strat = SvMethod::Stratified {
            samples_per_stratum: 8,
        };
        assert!(strat.validate_groups(64).is_ok());
        assert!(strat.validate_groups(65).is_err());
        // Zero samples are rejected.
        assert_eq!(
            SvMethod::MonteCarlo { permutations: 0 }.validate_groups(4),
            Err(ConfigError::NoSvSamples("monte_carlo"))
        );
        assert_eq!(
            SvMethod::Stratified {
                samples_per_stratum: 0
            }
            .validate_groups(4),
            Err(ConfigError::NoSvSamples("stratified"))
        );
    }

    #[test]
    fn sv_method_encoding_distinguishes_variants() {
        let encodings: Vec<Vec<u8>> = [
            SvMethod::GroupExact,
            SvMethod::MonteCarlo { permutations: 100 },
            SvMethod::MonteCarlo { permutations: 101 },
            SvMethod::Stratified {
                samples_per_stratum: 100,
            },
        ]
        .iter()
        .map(|m| {
            let mut buf = Vec::new();
            m.encode_to(&mut buf);
            buf
        })
        .collect();
        for i in 0..encodings.len() {
            for j in (i + 1)..encodings.len() {
                assert_ne!(encodings[i], encodings[j], "{i} vs {j}");
            }
        }
    }

    #[test]
    fn config_validation_includes_sv_method() {
        let mut c = FlConfig::quick_demo();
        c.sv_method = SvMethod::MonteCarlo { permutations: 0 };
        assert_eq!(c.validate(), Err(ConfigError::NoSvSamples("monte_carlo")));
    }

    #[test]
    fn dropout_schedule_validated() {
        // quick_demo: 4 owners, threshold 3 → at most 1 recoverable drop.
        let mut c = FlConfig::quick_demo();
        assert_eq!(c.escrow_threshold(), 3);
        c.dropout_schedule = vec![(0, vec![1])];
        c.validate().unwrap();

        c.dropout_schedule = vec![(5, vec![1])];
        assert_eq!(
            c.validate(),
            Err(ConfigError::DropoutRoundOutOfRange {
                round: 5,
                rounds: 1
            })
        );

        c.dropout_schedule = vec![(0, vec![9])];
        assert_eq!(
            c.validate(),
            Err(ConfigError::DropoutOwnerOutOfRange {
                owner: 9,
                owners: 4
            })
        );

        // Two entries for the same round accumulate (and dedup).
        c.dropout_schedule = vec![(0, vec![1, 1]), (0, vec![2])];
        assert_eq!(c.dropped_in_round(0), vec![1, 2]);
        assert_eq!(
            c.validate(),
            Err(ConfigError::TooManyDropouts {
                round: 0,
                dropped: 2,
                max: 1
            })
        );
    }

    #[test]
    fn cohort_knobs_validated() {
        // quick_demo: 4 owners. Two cohorts of two is a valid sharding.
        let mut c = FlConfig::quick_demo();
        c.num_cohorts = 2;
        c.validate().unwrap();

        let mut c = FlConfig::quick_demo();
        c.num_cohorts = 0;
        assert_eq!(
            c.validate(),
            Err(ConfigError::BadCohortCount {
                cohorts: 0,
                owners: 4
            })
        );

        let mut c = FlConfig::quick_demo();
        c.num_cohorts = 5;
        assert_eq!(
            c.validate(),
            Err(ConfigError::BadCohortCount {
                cohorts: 5,
                owners: 4
            })
        );

        // GroupExact caps the second-level game at 25 cohorts.
        let mut c = FlConfig::quick_demo();
        c.num_owners = 60;
        c.num_groups = 1;
        c.num_cohorts = 26;
        assert_eq!(
            c.validate(),
            Err(ConfigError::CohortCountExceedsMethodCap {
                cohorts: 26,
                cap: 25,
                method: "group_exact"
            })
        );
        // A sampling method lifts the cap to the mask width.
        c.sv_method = SvMethod::Stratified {
            samples_per_stratum: 4,
        };
        c.validate().unwrap();
        c.num_owners = 70;
        c.num_cohorts = 65;
        assert_eq!(
            c.validate(),
            Err(ConfigError::CohortCountExceedsMethodCap {
                cohorts: 65,
                cap: 64,
                method: "stratified"
            })
        );

        // Groups must fit the smallest cohort: 4 owners in 3 cohorts
        // leaves a smallest cohort of 1, so 2 groups cannot fit.
        let mut c = FlConfig::quick_demo();
        c.num_cohorts = 3;
        assert_eq!(
            c.validate(),
            Err(ConfigError::GroupCountExceedsCohortSize {
                groups: 2,
                cohort_size: 1
            })
        );
    }

    #[test]
    fn miner_committee_validated() {
        let mut c = FlConfig::quick_demo();
        c.miner_committee = 3;
        c.validate().unwrap();
        c.miner_committee = 5;
        assert_eq!(
            c.validate(),
            Err(ConfigError::BadMinerCommittee {
                committee: 5,
                owners: 4
            })
        );
    }

    #[test]
    fn cohort_dropout_interaction_validated() {
        // 9 owners, threshold 5 → up to 4 recoverable drops; 3 cohorts of
        // 3, so wiping one cohort (3 drops) passes the global bound but
        // must be rejected as a planning error.
        let mut c = FlConfig::paper_setting();
        c.num_cohorts = 3;
        c.validate().unwrap();
        let plan = RoundPlan::new(c.permutation_seed, 0, 9, 3, c.num_groups).unwrap();
        let victim: Vec<usize> = plan.cohorts()[1].clone();
        assert_eq!(victim.len(), 3);
        c.dropout_schedule = vec![(0, victim.clone())];
        assert_eq!(
            c.validate(),
            Err(ConfigError::CohortFullyDropped {
                round: 0,
                cohort: 1,
                size: 3
            })
        );
        // Dropping all but one member of the cohort is recoverable and
        // allowed — the cohort still has a survivor.
        c.dropout_schedule = vec![(0, victim[..2].to_vec())];
        c.validate().unwrap();
        // The flat path is indifferent to cohort structure.
        c.num_cohorts = 1;
        c.dropout_schedule = vec![(0, victim)];
        c.validate().unwrap();
    }

    #[test]
    fn dropped_in_round_is_sorted_and_scoped() {
        let mut c = FlConfig::quick_demo();
        c.rounds = 2;
        c.dropout_schedule = vec![(1, vec![3]), (0, vec![2]), (1, vec![0])];
        assert_eq!(c.dropped_in_round(0), vec![2]);
        assert_eq!(c.dropped_in_round(1), vec![0, 3]);
        assert!(c.dropped_in_round(7).is_empty());
    }

    #[test]
    fn sub_seeds_differ_by_purpose_and_world() {
        let c = FlConfig::quick_demo();
        assert_ne!(c.sub_seed("data"), c.sub_seed("keys"));
        let mut c2 = FlConfig::quick_demo();
        c2.world_seed += 1;
        assert_ne!(c.sub_seed("data"), c2.sub_seed("data"));
    }

    #[test]
    fn error_messages_render() {
        assert!(ConfigError::TooFewOwners(1).to_string().contains("2"));
        assert!(ConfigError::NoRounds.to_string().contains("round"));
    }
}
