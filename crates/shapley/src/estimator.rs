//! The pluggable estimator layer — one interface over every SV engine.
//!
//! The paper's deliverable is *on-chain, re-executable* contribution
//! evaluation, which means the evaluation **method** must itself be a
//! first-class, auditable choice rather than a function call baked into
//! the contract (cf. 2CP's swappable contribution policies and
//! reward-driven smart-contract designs). This module defines that
//! choice surface:
//!
//! * [`SvEstimator`] — the trait every engine implements, and the only
//!   way to run one: `estimate(&game) -> SvEstimate`.
//! * [`SvEstimate`] — values plus the cost/diagnostic envelope
//!   (utility-evaluation count, sampling diagnostics) that downstream
//!   consumers (rewards, audit records, Table I) read uniformly.
//! * Three estimators, one per on-chain `SvMethod`: [`Exact`] (Eq. 1 by
//!   full enumeration), [`MonteCarlo`] (permutation sampling), and
//!   [`Stratified`] (per-(player, size) stratified subset sampling — the
//!   estimator that lifts the 25-player exact cap to 64). Algorithm 1's
//!   grouping is not an estimator: the contract plays any of the three
//!   over a [`GroupModelGame`](crate::group::GroupModelGame) built from
//!   the groups of a [`RoundPlan`](crate::hierarchy::RoundPlan).
//!
//! Every estimator preserves the determinism contract of
//! [`numeric::par`]: output slots are pure functions of global indices,
//! reductions happen in index order, and sampling draws from streams
//! keyed by `(seed, stratum/permutation, index)` — so an estimate is
//! bit-identical for any thread count and any miner can re-execute it.

use crate::monte_carlo::McConfig;
use crate::stratified::StratifiedConfig;
use crate::utility::CoalitionUtility;

/// Sampling diagnostics attached to every estimate.
///
/// Exhaustive estimators report all-zero diagnostics; the sampling
/// estimators record how the estimate was assembled so an auditor can
/// judge its variance without re-deriving the configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SvDiagnostics {
    /// Independent samples drawn (permutations for [`MonteCarlo`],
    /// subset draws for [`Stratified`]); 0 for exhaustive estimators.
    pub samples: usize,
    /// Strata covered (`(player, coalition size)` pairs); 0 when the
    /// estimator does not stratify.
    pub strata: usize,
    /// Utility evaluations answered from a
    /// [`CachedUtility`](crate::utility::CachedUtility) memo table. No
    /// estimator fills it: a caller that runs one behind a cache may copy
    /// the cache's [`CacheStats`](crate::utility::CacheStats) here.
    /// Observability only — cache counters never feed consensus digests.
    pub cache_hits: usize,
    /// Utility evaluations that missed the memo table and ran the
    /// underlying game; filled like [`Self::cache_hits`].
    pub cache_misses: usize,
}

/// The uniform output of every estimator.
#[derive(Debug, Clone, PartialEq)]
pub struct SvEstimate {
    /// Estimated Shapley values, indexed by player.
    pub values: Vec<f64>,
    /// Utility evaluations performed — the cost driver (the paper's
    /// Table I counts exactly this).
    pub utility_evaluations: usize,
    /// How the estimate was sampled.
    pub diagnostics: SvDiagnostics,
}

/// A Shapley-value estimator over coalition games.
///
/// Implementations must be deterministic given their configuration and
/// schedule-invariant (bit-identical for every thread count) — the
/// consensus layer relies on both. Each engine module holds its
/// estimator's one implementation: [`Exact`] in [`crate::native`],
/// [`MonteCarlo`] in [`crate::monte_carlo`], [`Stratified`] in
/// [`crate::stratified`].
pub trait SvEstimator {
    /// Estimates every player's Shapley value.
    ///
    /// # Panics
    ///
    /// Panics if the game has more players than the estimator can
    /// address — [`MAX_PLAYERS`](crate::coalition::MAX_PLAYERS) for
    /// [`Exact`]'s `2^n` enumeration,
    /// [`MAX_SAMPLED_PLAYERS`](crate::coalition::MAX_SAMPLED_PLAYERS) for
    /// the samplers' coalition masks — or if its configuration is
    /// unusable (e.g. zero samples).
    fn estimate<U: CoalitionUtility + Sync>(&self, game: &U) -> SvEstimate;
}

/// Exact Shapley values (the paper's Eq. 1) by full `2^n` enumeration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Exact;

/// Permutation-sampling Monte-Carlo estimation.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MonteCarlo {
    /// Sampling configuration (permutation count, seed).
    pub config: McConfig,
}

/// Stratified subset sampling — the estimator that lifts the
/// exact-enumeration player cap.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stratified {
    /// Sampling configuration (samples per stratum, seed).
    pub config: StratifiedConfig,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::GroupModelGame;
    use crate::hierarchy::RoundPlan;
    use crate::utility::games::GloveGame;
    use crate::utility::{model_utility_fn, ModelUtility};
    use numeric::linalg::mean_vectors;

    /// The group models of the flat round `RoundPlan` lays out for
    /// `models`: each group's mean of its members.
    fn flat_group_models(models: &[Vec<f64>], seed: u64, m: usize) -> Vec<Vec<f64>> {
        let plan = RoundPlan::new(seed, 0, models.len(), 1, m).unwrap();
        plan.groups()[0]
            .iter()
            .map(|g| mean_vectors(&g.iter().map(|&i| models[i].clone()).collect::<Vec<_>>()))
            .collect()
    }

    fn user_models(n: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| vec![(i as f64 * 0.9).sin(), (i as f64 * 0.4).cos()])
            .collect()
    }

    #[test]
    fn exact_estimator_counts_every_coalition() {
        let game = GloveGame { left: 2, n: 5 };
        let estimate = Exact.estimate(&game);
        assert_eq!(estimate.utility_evaluations, 32);
        assert_eq!(estimate.diagnostics, SvDiagnostics::default());
    }

    #[test]
    fn monte_carlo_estimator_carries_diagnostics() {
        let game = GloveGame { left: 2, n: 5 };
        let estimate = MonteCarlo {
            config: McConfig {
                permutations: 40,
                seed: 3,
            },
        }
        .estimate(&game);
        assert_eq!(estimate.values.len(), 5);
        assert_eq!(estimate.diagnostics.samples, 40);
        assert_eq!(estimate.utility_evaluations, 2 + 5 * 40);
    }

    #[test]
    fn group_sv_m_equals_n_is_exact_sv() {
        // m = n puts one owner in each group, so the group game is the
        // per-owner game with its players permuted.
        let utility = model_utility_fn(|w: &[f64]| w.iter().map(|x| x.tanh()).sum(), 0.0);
        let models = user_models(5);
        let plan = RoundPlan::new(11, 0, 5, 1, 5).unwrap();
        let per_group = Exact
            .estimate(&GroupModelGame::new(
                &flat_group_models(&models, 11, 5),
                &utility,
            ))
            .values;
        let per_owner = Exact
            .estimate(&GroupModelGame::new(&models, &utility))
            .values;
        for (group, got) in plan.groups()[0].iter().zip(&per_group) {
            assert!((got - per_owner[group[0]]).abs() < 1e-12);
        }
    }

    #[test]
    fn group_sv_handles_games_beyond_the_exact_cap() {
        // 40 owners are far beyond MAX_PLAYERS, but m = 8 groups keep the
        // enumeration at 2^8.
        let utility = model_utility_fn(|w: &[f64]| w.iter().map(|x| x.tanh()).sum(), 0.0);
        let groups = flat_group_models(&user_models(40), 1, 8);
        let estimate = Exact.estimate(&GroupModelGame::new(&groups, &utility));
        assert_eq!(estimate.utility_evaluations, 256);
        let total: f64 = estimate.values.iter().sum();
        let grand = utility.of_model(&mean_vectors(&groups)) - utility.of_empty();
        assert!((total - grand).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn group_sv_rejects_too_many_groups() {
        let utility = model_utility_fn(|w: &[f64]| w[0], 0.0);
        let groups = flat_group_models(&user_models(30), 0, 30);
        let _ = Exact.estimate(&GroupModelGame::new(&groups, &utility));
    }
}
