//! The pluggable estimator layer — one interface over every SV engine.
//!
//! The paper's deliverable is *on-chain, re-executable* contribution
//! evaluation, which means the evaluation **method** must itself be a
//! first-class, auditable choice rather than a function call baked into
//! the contract (cf. 2CP's swappable contribution policies and
//! reward-driven smart-contract designs). This module defines that
//! choice surface:
//!
//! * [`SvEstimator`] — the trait every engine implements:
//!   `estimate(&game) -> SvEstimate`.
//! * [`SvEstimate`] — values plus the cost/diagnostic envelope
//!   (utility-evaluation count, sampling diagnostics) that downstream
//!   consumers (rewards, audit records, Table I) read uniformly.
//! * Four estimators: [`Exact`] (Eq. 1 by full enumeration), [`GroupSv`]
//!   (Algorithm 1's group-then-exact reduction, generalized to any
//!   coalition game), [`MonteCarlo`] (permutation sampling), and
//!   [`Stratified`] (per-(player, size) stratified subset sampling — the
//!   estimator that lifts the 25-player exact cap to 64).
//!
//! Every estimator preserves the determinism contract of
//! [`numeric::par`]: output slots are pure functions of global indices,
//! reductions happen in index order, and sampling draws from streams
//! keyed by `(seed, stratum/permutation, index)` — so an estimate is
//! bit-identical for any thread count and any miner can re-execute it.

use crate::coalition::{Coalition, MAX_PLAYERS, MAX_SAMPLED_PLAYERS};
use crate::group::{grouping, permutation};
use crate::monte_carlo::{monte_carlo_shapley, McConfig, McResult};
use crate::native::exact_shapley;
use crate::stratified::{stratified_shapley, StratifiedConfig};
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
    /// Marginals skipped by truncation (TMC Monte-Carlo only).
    pub truncated_marginals: usize,
    /// Utility evaluations answered from a
    /// [`CachedUtility`](crate::utility::CachedUtility) memo table; 0
    /// when the estimate ran against an uncached utility.
    /// Observability only — cache counters never feed consensus
    /// digests (see [`crate::utility::CacheStats`]).
    pub cache_hits: usize,
    /// Utility evaluations that missed the memo table and ran the
    /// underlying game; 0 when uncached.
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

impl From<McResult> for SvEstimate {
    fn from(r: McResult) -> Self {
        let samples = r.permutations;
        SvEstimate {
            values: r.values,
            utility_evaluations: r.utility_evaluations,
            diagnostics: SvDiagnostics {
                samples,
                strata: 0,
                truncated_marginals: r.truncated_marginals,
                cache_hits: 0,
                cache_misses: 0,
            },
        }
    }
}

/// A Shapley-value estimator over coalition games.
///
/// Implementations must be deterministic given their configuration and
/// schedule-invariant (bit-identical for every thread count) — the
/// consensus layer relies on both.
pub trait SvEstimator {
    /// Stable method name, recorded in audit trails and bench reports.
    fn name(&self) -> &'static str;

    /// Largest player count this estimator accepts
    /// ([`MAX_PLAYERS`] for exhaustive enumeration,
    /// [`MAX_SAMPLED_PLAYERS`] for sampling).
    fn max_players(&self) -> usize;

    /// Estimates every player's Shapley value.
    ///
    /// # Panics
    ///
    /// Panics if the game exceeds [`Self::max_players`] or the
    /// estimator's configuration is unusable (e.g. zero samples).
    fn estimate<U: CoalitionUtility + Sync>(&self, game: &U) -> SvEstimate;
}

/// Exact Shapley values (the paper's Eq. 1) by full `2^n` enumeration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Exact;

impl SvEstimator for Exact {
    fn name(&self) -> &'static str {
        "exact"
    }

    fn max_players(&self) -> usize {
        MAX_PLAYERS
    }

    fn estimate<U: CoalitionUtility + Sync>(&self, game: &U) -> SvEstimate {
        let n = game.num_players();
        let values = exact_shapley(game);
        SvEstimate {
            values,
            utility_evaluations: if n == 0 { 0 } else { 1usize << n },
            diagnostics: SvDiagnostics::default(),
        }
    }
}

/// Algorithm 1's group-then-exact reduction, generalized to arbitrary
/// coalition games.
///
/// Players are partitioned into `num_groups` groups by the public seeded
/// permutation (`π ← permutation(seed, round, I)`); the **group game**
/// `U(T) = u(∪_{j∈T} group_j)` is solved exactly over the `m` groups and
/// each group's value is split uniformly among its members — the same
/// resolution-for-cost trade the paper makes at the model level
/// ([`crate::group::group_shapley`] is the model-averaging instance the
/// contract runs; this estimator is the coalition-game counterpart usable
/// with any utility). Cost drops from `2^n` to `2^m` evaluations, so
/// games up to [`MAX_SAMPLED_PLAYERS`] players are feasible as long as
/// `num_groups ≤` [`MAX_PLAYERS`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupSv {
    /// Number of groups `m` (the resolution knob).
    pub num_groups: usize,
    /// Public permutation seed.
    pub seed: u64,
    /// Round number, mixed into the permutation so each round
    /// re-partitions.
    pub round: u64,
}

/// The group-level game: coalition of groups → union of their members.
struct GroupedGame<'a, U> {
    inner: &'a U,
    group_masks: Vec<Coalition>,
}

impl<U: CoalitionUtility> CoalitionUtility for GroupedGame<'_, U> {
    fn num_players(&self) -> usize {
        self.group_masks.len()
    }

    fn evaluate(&self, coalition: Coalition) -> f64 {
        let mut union = Coalition::EMPTY;
        for (j, mask) in self.group_masks.iter().enumerate() {
            if coalition.contains(j) {
                union = Coalition(union.0 | mask.0);
            }
        }
        self.inner.evaluate(union)
    }

    fn eval_flops(&self) -> usize {
        self.inner.eval_flops()
    }
}

impl SvEstimator for GroupSv {
    fn name(&self) -> &'static str {
        "group_sv"
    }

    fn max_players(&self) -> usize {
        MAX_SAMPLED_PLAYERS
    }

    fn estimate<U: CoalitionUtility + Sync>(&self, game: &U) -> SvEstimate {
        let n = game.num_players();
        assert!(n > 0, "empty game");
        assert!(
            n <= MAX_SAMPLED_PLAYERS,
            "coalition masks hold {MAX_SAMPLED_PLAYERS} players, got {n}"
        );
        let m = self.num_groups;
        assert!(
            (1..=n).contains(&m),
            "num_groups must be in 1..={n}, got {m}"
        );
        assert!(
            m <= MAX_PLAYERS,
            "GroupSV enumerates 2^m coalitions; m={m} exceeds {MAX_PLAYERS}"
        );

        let pi = permutation(self.seed, self.round, n);
        let groups = grouping(&pi, m);
        let grouped = GroupedGame {
            inner: game,
            group_masks: groups.iter().map(|g| Coalition::from_members(g)).collect(),
        };
        let per_group = exact_shapley(&grouped);

        let mut values = vec![0.0f64; n];
        for (j, group) in groups.iter().enumerate() {
            let share = per_group[j] / group.len() as f64;
            for &i in group {
                values[i] = share;
            }
        }
        SvEstimate {
            values,
            utility_evaluations: 1usize << m,
            diagnostics: SvDiagnostics::default(),
        }
    }
}

/// Permutation-sampling Monte-Carlo estimation
/// ([`crate::monte_carlo::monte_carlo_shapley`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MonteCarlo {
    /// Sampling configuration (permutation count, seed, truncation).
    pub config: McConfig,
}

impl SvEstimator for MonteCarlo {
    fn name(&self) -> &'static str {
        "monte_carlo"
    }

    fn max_players(&self) -> usize {
        MAX_SAMPLED_PLAYERS
    }

    fn estimate<U: CoalitionUtility + Sync>(&self, game: &U) -> SvEstimate {
        monte_carlo_shapley(game, &self.config).into()
    }
}

/// Stratified subset sampling
/// ([`crate::stratified::stratified_shapley`]) — the estimator that
/// lifts the exact-enumeration player cap.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stratified {
    /// Sampling configuration (samples per stratum, seed).
    pub config: StratifiedConfig,
}

impl SvEstimator for Stratified {
    fn name(&self) -> &'static str {
        "stratified"
    }

    fn max_players(&self) -> usize {
        MAX_SAMPLED_PLAYERS
    }

    fn estimate<U: CoalitionUtility + Sync>(&self, game: &U) -> SvEstimate {
        stratified_shapley(game, &self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::native::exact_shapley;
    use crate::utility::games::{AdditiveGame, GloveGame};
    use crate::utility::utility_fn;

    #[test]
    fn exact_estimator_matches_exact_shapley() {
        let game = GloveGame { left: 2, n: 5 };
        let estimate = Exact.estimate(&game);
        assert_eq!(estimate.values, exact_shapley(&game));
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
                truncation_tolerance: None,
            },
        }
        .estimate(&game);
        assert_eq!(estimate.values.len(), 5);
        assert_eq!(estimate.diagnostics.samples, 40);
        assert!(estimate.utility_evaluations > 0);
    }

    #[test]
    fn group_sv_additive_game_is_exact() {
        // Additive games are group-decomposable: each player's share of
        // its group's value equals the group mean of the members' values.
        let values = vec![4.0, 8.0, 6.0, 2.0];
        let game = AdditiveGame {
            values: values.clone(),
        };
        let estimate = GroupSv {
            num_groups: 2,
            seed: 7,
            round: 0,
        }
        .estimate(&game);
        assert_eq!(estimate.utility_evaluations, 4);
        // Efficiency: shares sum to u(grand).
        let total: f64 = estimate.values.iter().sum();
        assert!((total - 20.0).abs() < 1e-12);
        // Each player gets its group's mean value.
        let pi = permutation(7, 0, 4);
        let groups = grouping(&pi, 2);
        for group in &groups {
            let mean: f64 = group.iter().map(|&i| values[i]).sum::<f64>() / group.len() as f64;
            for &i in group {
                assert!((estimate.values[i] - mean).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn group_sv_m_equals_n_is_exact_sv() {
        let game = GloveGame { left: 2, n: 5 };
        let estimate = GroupSv {
            num_groups: 5,
            seed: 11,
            round: 2,
        }
        .estimate(&game);
        let exact = exact_shapley(&game);
        for (got, expect) in estimate.values.iter().zip(&exact) {
            assert!((got - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn group_sv_handles_games_beyond_the_exact_cap() {
        // 40 players is far beyond MAX_PLAYERS, but m = 8 groups keep the
        // enumeration at 2^8.
        let n = 40usize;
        let game = utility_fn(n, |c: Coalition| c.len() as f64);
        let estimate = GroupSv {
            num_groups: 8,
            seed: 1,
            round: 0,
        }
        .estimate(&game);
        assert_eq!(estimate.utility_evaluations, 256);
        let total: f64 = estimate.values.iter().sum();
        assert!((total - n as f64).abs() < 1e-9);
    }

    #[test]
    fn names_and_caps() {
        assert_eq!(Exact.name(), "exact");
        assert_eq!(Exact.max_players(), MAX_PLAYERS);
        assert_eq!(Stratified::default().name(), "stratified");
        assert_eq!(Stratified::default().max_players(), MAX_SAMPLED_PLAYERS);
        assert_eq!(MonteCarlo::default().name(), "monte_carlo");
        let g = GroupSv {
            num_groups: 2,
            seed: 0,
            round: 0,
        };
        assert_eq!(g.name(), "group_sv");
        assert_eq!(g.max_players(), MAX_SAMPLED_PLAYERS);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn group_sv_rejects_too_many_groups() {
        let game = utility_fn(30, |c: Coalition| c.len() as f64);
        let _ = GroupSv {
            num_groups: 30,
            seed: 0,
            round: 0,
        }
        .estimate(&game);
    }
}
