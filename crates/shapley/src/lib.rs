//! Shapley-value contribution evaluation.
//!
//! Three engines, one per on-chain evaluation method, and one way to run
//! each: the [`estimator::SvEstimator`] trait, whose `estimate` returns a
//! uniform [`estimator::SvEstimate`] (values + evaluation counts +
//! sampling diagnostics), so the on-chain contract can treat the
//! evaluation method as auditable round configuration. The estimator
//! structs live in [`estimator`]; each engine module holds its one
//! implementation:
//!
//! * [`native`] — [`estimator::Exact`], the exact Shapley value (the
//!   paper's Eq. 1) over all `2^n` coalitions. This is the ground truth
//!   of Fig. 1 and the slow baseline of Table I.
//! * [`monte_carlo`] — [`estimator::MonteCarlo`], permutation sampling
//!   (Ghorbani & Zou's Monte-Carlo Shapley, without truncation), the
//!   standard scalability baseline from the related work.
//! * [`stratified`] — [`estimator::Stratified`], subset sampling over
//!   `(player, size)` strata: polynomial cost, deterministic per-(seed,
//!   stratum, index) streams, and the engine that lifts the 25-player
//!   exact cap to [`coalition::MAX_SAMPLED_PLAYERS`].
//!
//! The game they play is **GroupSV, the paper's Algorithm 1**
//! ([`group`]): users are partitioned into `m` groups by a seeded
//! permutation, coalitions of groups are valued by *averaging group
//! models* ([`GroupModelGame`]), and each group's value is split
//! uniformly among its members. It is compatible with secure aggregation
//! because it only ever touches group-level aggregates. [`hierarchy`]
//! holds the one round layout, [`RoundPlan`] — cohorts, groups and seed
//! streams — and [`compose`], which prices cohorts of such games against
//! each other. The contract's one round path is [`RoundPlan`], an
//! estimator over a [`GroupModelGame`] per cohort and [`compose`];
//! [`group_shapley`] is its off-chain oracle for the flat round.
//!
//! Plus [`axioms`], machine-checkable statements of the properties the
//! paper cites (efficiency/balance, symmetry, null player, additivity),
//! used by the property-based test-suite.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod axioms;
pub mod coalition;
pub mod estimator;
pub mod group;
pub mod hierarchy;
pub mod monte_carlo;
pub mod native;
mod rng;
pub mod stratified;
pub mod utility;

pub use coalition::CoalitionError;
pub use estimator::{SvDiagnostics, SvEstimate, SvEstimator};
pub use group::{group_shapley, GroupModelGame, GroupSvConfig, GroupSvResult};
pub use hierarchy::{compose, HierarchyError, RoundPlan};
pub use monte_carlo::McConfig;
pub use stratified::StratifiedConfig;
pub use utility::{CachedUtility, CoalitionUtility, ModelUtility};
