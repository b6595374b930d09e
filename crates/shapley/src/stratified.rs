//! Stratified Shapley sampling — the large-`m` estimator, [`Stratified`].
//!
//! Exact enumeration stops at [`MAX_PLAYERS`](crate::coalition::MAX_PLAYERS)
//! players; permutation Monte-Carlo scales further but spends its samples
//! unevenly across coalition sizes. This module implements the classic
//! stratified decomposition of Eq. 1 (Castro et al., *Polynomial
//! calculation of the Shapley value based on sampling*):
//!
//! ```text
//! v_i = (1/n) Σ_{s=0}^{n−1}  E[ u(S ∪ {i}) − u(S) ]   over uniform
//!                            s-subsets S ⊆ I\{i}
//! ```
//!
//! Every `(player i, coalition size s)` pair is one **stratum**, and each
//! stratum draws exactly `samples_per_stratum` independent subsets — so
//! every coalition size of every player is covered by construction, which
//! a fixed budget of whole permutations cannot guarantee.
//!
//! Re-executability: each sample draws from its **own splitmix64 stream**
//! derived from `(seed, stratum, sample index)` — never from a shared
//! evolving stream — so sample `k` of stratum `t` is identical whether it
//! runs first on one thread or last on sixty-four. Strata fan out on the
//! deterministic fork-join layer ([`numeric::par`]) with one output slot
//! per stratum, combined in stratum order; the estimate is therefore
//! bit-identical for every thread count, which is what lets miners
//! re-execute it as part of contract verification.

use numeric::par;

use crate::coalition::{Coalition, MAX_SAMPLED_PLAYERS};
use crate::estimator::{Stratified, SvDiagnostics, SvEstimate, SvEstimator};
use crate::rng::splitmix;
use crate::utility::CoalitionUtility;

/// Flop-equivalents of reading one value back from a warm
/// [`CachedUtility`](crate::utility::CachedUtility): a stripe lock and a
/// hashed lookup, ≈ 50 ns.
const CACHE_READ_FLOPS: usize = 256;

/// Stratified-sampling configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StratifiedConfig {
    /// Independent subset draws per `(player, size)` stratum.
    pub samples_per_stratum: usize,
    /// RNG seed; the per-sample streams are derived from
    /// `(seed, stratum, index)`.
    pub seed: u64,
}

impl Default for StratifiedConfig {
    fn default() -> Self {
        Self {
            samples_per_stratum: 32,
            seed: 0,
        }
    }
}

/// The independent stream state for sample `index` of `stratum` under
/// `seed`.
///
/// Each coordinate passes through its own finalizer round with a distinct
/// odd multiplier before mixing, decorrelating neighbouring strata and
/// neighbouring sample indices; the result depends only on the triple,
/// never on which thread runs the draw.
fn stream_state(seed: u64, stratum: u64, index: u64) -> u64 {
    splitmix(
        seed ^ splitmix(stratum.wrapping_mul(crate::rng::GOLDEN).wrapping_add(1))
            ^ splitmix(index.wrapping_mul(0xd1b5_4a32_d192_ed03).wrapping_add(2)),
    )
}

/// Shapley values by stratified subset sampling.
///
/// Unbiased for any sample count: each stratum mean estimates one term of
/// the size-decomposed Eq. 1, and the per-player value averages the `n`
/// stratum means. Cost is `2 · n² · samples_per_stratum` utility
/// evaluations — polynomial in `n`, so games far beyond the exact-
/// enumeration cap (up to [`MAX_SAMPLED_PLAYERS`] players) are feasible.
///
/// Panics if the game is empty, has more than [`MAX_SAMPLED_PLAYERS`]
/// players, or `samples_per_stratum == 0`.
impl SvEstimator for Stratified {
    fn estimate<U: CoalitionUtility + Sync>(&self, utility: &U) -> SvEstimate {
        let config = &self.config;
        let n = utility.num_players();
        assert!(n > 0, "empty game");
        assert!(
            n <= MAX_SAMPLED_PLAYERS,
            "coalition masks hold {MAX_SAMPLED_PLAYERS} players, got {n}"
        );
        let k = config.samples_per_stratum;
        assert!(k > 0, "need at least one sample per stratum");

        // Stratum t = (player i = t / n, size s = t % n). Each slot is the
        // *sum* of that stratum's k marginals — a pure function of t.
        //
        // The work is split into two passes so caching utilities can stream.
        // Pass 1 runs only the RNG: it enumerates each stratum's k sampled
        // base coalitions (cheap — no utility evaluation). The full coalition
        // list is then handed to `CoalitionUtility::prewarm`, which a
        // [`CachedUtility`](crate::utility::CachedUtility) services by
        // deduplicating and evaluating each *unique* coalition exactly once,
        // in parallel, as the list streams in — instead of every stratum
        // barriering on its own redundant evaluations. Pass 2 re-walks the
        // strata in the original order and reads the (now warm) utility, so
        // the combine below sees the exact same values in the exact same
        // order as the single-pass form: the estimate is bit-identical, warm
        // or cold, for every thread count.
        //
        // Both passes are priced as what they are behind a cache — k partial
        // shuffles of n players, 2k reads — so neither takes a thread below
        // thousands of strata: the evaluations fan out inside the prewarm,
        // priced by the game (one too dear for a thread goes in a cache).
        let strata = n * n;
        let bases_per_lease = par::items_per_lease(k * 4 * n);
        let stratum_bases = par::par_map_indices(strata, bases_per_lease, |t| {
            let i = t / n;
            let s = t % n;
            // The other n−1 players, from which s-subsets are drawn.
            let others_template: Vec<usize> = (0..n).filter(|&p| p != i).collect();
            let mut others = others_template.clone();
            let mut bases = Vec::with_capacity(k);
            for sample in 0..k {
                let mut state = stream_state(config.seed, t as u64, sample as u64);
                let mut next = || crate::rng::stream_next(&mut state);
                // Partial Fisher–Yates: after s steps the prefix is a
                // uniform s-subset of the others. One buffer per stratum —
                // the shuffle only permutes, so resetting from the template
                // is enough and spares n²·k clone allocations.
                others.copy_from_slice(&others_template);
                for j in 0..s {
                    let r = j + (next() % (others.len() - j) as u64) as usize;
                    others.swap(j, r);
                }
                bases.push(Coalition::from_members(&others[..s]));
            }
            bases
        });

        let mut wanted = Vec::with_capacity(2 * strata * k);
        for (t, bases) in stratum_bases.iter().enumerate() {
            let i = t / n;
            for &base in bases {
                wanted.push(base);
                wanted.push(base.with(i));
            }
        }
        utility.prewarm(&wanted);

        let sums_per_lease = par::items_per_lease(2 * k * CACHE_READ_FLOPS);
        let stratum_sums = par::par_map_indices(strata, sums_per_lease, |t| {
            let i = t / n;
            let mut sum = 0.0f64;
            for &coalition in &stratum_bases[t] {
                let base = utility.evaluate(coalition);
                let with_i = utility.evaluate(coalition.with(i));
                sum += with_i - base;
            }
            sum
        });

        // Combine in stratum order: v_i = (1/n) Σ_s (stratum sum / k). The
        // floating-point reduction is independent of the parallel schedule.
        let scale = 1.0 / (n as f64 * k as f64);
        let mut values = vec![0.0f64; n];
        for (t, sum) in stratum_sums.iter().enumerate() {
            values[t / n] += sum * scale;
        }

        SvEstimate {
            values,
            utility_evaluations: 2 * strata * k,
            diagnostics: SvDiagnostics {
                samples: strata * k,
                strata,
                ..SvDiagnostics::default()
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::Exact;
    use crate::utility::games::{AdditiveGame, GloveGame};
    use crate::utility::utility_fn;

    #[test]
    fn additive_game_exact_in_every_sample() {
        // Marginals of an additive game are constant, so even one sample
        // per stratum recovers the exact values.
        let game = AdditiveGame {
            values: vec![1.0, -2.0, 3.0],
        };
        let estimate = Stratified {
            config: StratifiedConfig {
                samples_per_stratum: 1,
                seed: 5,
            },
        }
        .estimate(&game);
        for (got, expect) in estimate.values.iter().zip(&game.values) {
            assert!((got - expect).abs() < 1e-12);
        }
        assert_eq!(estimate.utility_evaluations, 2 * 9);
        assert_eq!(estimate.diagnostics.strata, 9);
        assert_eq!(estimate.diagnostics.samples, 9);
    }

    #[test]
    fn converges_to_exact_on_glove_game() {
        let game = GloveGame { left: 2, n: 5 };
        let exact = Exact.estimate(&game).values;
        let estimate = Stratified {
            config: StratifiedConfig {
                samples_per_stratum: 2000,
                seed: 1,
            },
        }
        .estimate(&game);
        for (got, expect) in estimate.values.iter().zip(&exact) {
            assert!(
                (got - expect).abs() < 0.05,
                "stratified {got} too far from exact {expect}"
            );
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let game = GloveGame { left: 2, n: 4 };
        let cfg = StratifiedConfig {
            samples_per_stratum: 10,
            seed: 42,
        };
        let estimator = Stratified { config: cfg };
        assert_eq!(estimator.estimate(&game), estimator.estimate(&game));
        let other = Stratified {
            config: StratifiedConfig { seed: 43, ..cfg },
        }
        .estimate(&game);
        assert_ne!(estimator.estimate(&game).values, other.values);
    }

    #[test]
    fn runs_a_48_player_game() {
        // Impossible for the exact estimators (2^48 coalitions); the
        // stratified sampler handles it in n²·k samples.
        let n = 48usize;
        let game = utility_fn(n, move |c: Coalition| {
            c.members().map(|i| ((i * 13 + 5) as f64).sin()).sum()
        });
        let estimate = Stratified {
            config: StratifiedConfig {
                samples_per_stratum: 2,
                seed: 9,
            },
        }
        .estimate(&game);
        assert_eq!(estimate.values.len(), n);
        assert_eq!(estimate.diagnostics.strata, n * n);
        // Additive game: even 2 samples per stratum are exact.
        for (i, v) in estimate.values.iter().enumerate() {
            let expect = ((i * 13 + 5) as f64).sin();
            assert!((v - expect).abs() < 1e-9, "player {i}: {v} vs {expect}");
        }
    }

    #[test]
    fn null_player_gets_zero_exactly() {
        // Player 2 never changes the utility, so every sampled marginal
        // is exactly zero regardless of sample count.
        let game = utility_fn(3, |c: Coalition| {
            (c.contains(0) as u8 + c.contains(1) as u8) as f64
        });
        let estimate = Stratified {
            config: StratifiedConfig {
                samples_per_stratum: 3,
                seed: 0,
            },
        }
        .estimate(&game);
        assert_eq!(estimate.values[2], 0.0);
    }

    #[test]
    fn cached_estimate_is_bit_identical_and_all_hits_after_prewarm() {
        use crate::utility::CachedUtility;
        let game = GloveGame { left: 3, n: 6 };
        let cfg = StratifiedConfig {
            samples_per_stratum: 8,
            seed: 17,
        };
        let estimator = Stratified { config: cfg };
        let plain = estimator.estimate(&game);
        let cached = CachedUtility::new(&game);
        let streamed = estimator.estimate(&cached);
        // Streaming through the cache must not move a single bit.
        assert_eq!(plain, streamed);
        // The prewarm pass dedups: every pass-2 read is a hit, and the
        // miss count equals the number of distinct sampled coalitions.
        let stats = cached.stats();
        assert_eq!(stats.misses, cached.unique_evaluations());
        assert_eq!(stats.hits, 2 * 6 * 6 * 8);
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn zero_samples_panics() {
        let game = AdditiveGame { values: vec![1.0] };
        let _ = Stratified {
            config: StratifiedConfig {
                samples_per_stratum: 0,
                seed: 0,
            },
        }
        .estimate(&game);
    }

    #[test]
    #[should_panic(expected = "empty game")]
    fn empty_game_panics() {
        let game = AdditiveGame { values: vec![] };
        let _ = Stratified::default().estimate(&game);
    }
}
