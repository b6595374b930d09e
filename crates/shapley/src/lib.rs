//! Shapley-value contribution evaluation.
//!
//! Four engines behind one pluggable interface ([`estimator`]):
//!
//! * [`native`] — the exact Shapley value (the paper's Eq. 1), computed
//!   over all `2^n` coalitions. This is the ground truth of Fig. 1 and
//!   the slow baseline of Table I.
//! * [`group`] — **GroupSV, the paper's Algorithm 1**: partition users
//!   into `m` groups by a seeded permutation, evaluate group coalitions
//!   built by *averaging group models*, compute exact SV over the `m`
//!   groups, and split each group's value uniformly among its members.
//!   Compatible with secure aggregation because it only ever touches
//!   group-level aggregates.
//! * [`monte_carlo`] — permutation-sampling approximation (Ghorbani &
//!   Zou's TMC-Shapley), the standard scalability baseline from the
//!   related work.
//! * [`stratified`] — stratified subset sampling over `(player, size)`
//!   strata: polynomial cost, deterministic per-(seed, stratum, index)
//!   streams, and the engine that lifts the 25-player exact cap to
//!   [`coalition::MAX_SAMPLED_PLAYERS`].
//!
//! The [`estimator`] module wraps all of them in the [`estimator::SvEstimator`]
//! trait returning a uniform [`estimator::SvEstimate`] (values +
//! evaluation counts + sampling diagnostics), so the on-chain contract
//! can treat the evaluation method as auditable round configuration.
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
pub use hierarchy::{
    compose, hierarchical_shapley, CohortPlan, HierarchyConfig, HierarchyError, HierarchyResult,
    RoundPlan,
};
pub use monte_carlo::{monte_carlo_shapley, McConfig};
pub use native::exact_shapley;
pub use stratified::{stratified_shapley, StratifiedConfig};
pub use utility::{CachedUtility, CoalitionUtility, ModelUtility};
