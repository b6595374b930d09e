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
//! runs first on one thread or last on sixty-four. Strata draw their
//! samples on the deterministic fork-join layer ([`numeric::par`]) into
//! slots of their own, each distinct coalition the samples name is valued
//! once, and the strata combine in stratum order; the estimate is
//! therefore bit-identical for every thread count, which is what lets
//! miners re-execute it as part of contract verification.

use numeric::par;

use crate::coalition::{Coalition, MAX_SAMPLED_PLAYERS};
use crate::estimator::{Stratified, SvDiagnostics, SvEstimate, SvEstimator};
use crate::rng::splitmix;
use crate::utility::{evaluate_in_runs, CoalitionUtility};

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

        // Stratum t = (player i = t / n, size s = t % n), its k samples
        // the bases S and S ∪ {i}. Three passes, none allocating per
        // stratum:
        //
        // 1. The RNG alone: each stratum's k bases, k slots of one list,
        //    drawn per chunk of strata on a stack buffer (k partial
        //    shuffles of n players apiece, so no thread below thousands of
        //    strata).
        // 2. The wanted coalitions — base and base ∪ {i} of every sample —
        //    sorted once into member-trie pre-order (`reverse_bits`, see
        //    [`crate::group`]) and deduplicated: every size-0 stratum draws
        //    the empty base, every size-(n−1) one the grand coalition. The
        //    distinct ones go to the game in contiguous runs of its batch
        //    call (`evaluate_in_runs`), each a `numeric::par` slot priced
        //    by the game; each wanted coalition keeps the index of its
        //    value.
        // 3. Each stratum sums its k marginals `u(S ∪ {i}) − u(S)` in
        //    sample order from `0.0`, read back by index, and the strata
        //    combine in stratum order.
        //
        // A value is the game's to the bit however its batch is cut, so
        // the estimate is bit-identical for every thread count, and to the
        // same passes asking the game one coalition at a time.
        let strata = n * n;
        let mut bases = vec![Coalition::EMPTY; strata * k];
        let per_lease = par::items_per_lease(k * 4 * n);
        par::par_fill_rows(&mut bases, k, per_lease, |first, rows| {
            let mut others = [0usize; MAX_SAMPLED_PLAYERS];
            for (t, row) in (first..).zip(rows.chunks_exact_mut(k)) {
                let (i, s) = (t / n, t % n);
                for (sample, base) in row.iter_mut().enumerate() {
                    let mut state = stream_state(config.seed, t as u64, sample as u64);
                    let mut next = || crate::rng::stream_next(&mut state);
                    // Partial Fisher–Yates over the other n − 1 players,
                    // reset to ascending order: after s steps the prefix
                    // is a uniform s-subset of them.
                    let others = &mut others[..n - 1];
                    for (slot, p) in others.iter_mut().zip((0..n).filter(|&p| p != i)) {
                        *slot = p;
                    }
                    for j in 0..s {
                        let r = j + (next() % (others.len() - j) as u64) as usize;
                        others.swap(j, r);
                    }
                    *base = Coalition::from_members(&others[..s]);
                }
            }
        });

        // Wanted coalition 2w is sample w's base, 2w + 1 the base with its
        // stratum's player.
        let mut keyed: Vec<(u64, usize)> = Vec::with_capacity(2 * bases.len());
        for (w, base) in bases.iter().enumerate() {
            keyed.push((base.0.reverse_bits(), 2 * w));
            keyed.push((base.with(w / k / n).0.reverse_bits(), 2 * w + 1));
        }
        keyed.sort_unstable();
        let mut distinct: Vec<Coalition> = Vec::new();
        let mut slot = vec![0usize; keyed.len()];
        for &(key, wanted) in &keyed {
            if distinct.last().map(|c| c.0.reverse_bits()) != Some(key) {
                distinct.push(Coalition(key.reverse_bits()));
            }
            slot[wanted] = distinct.len() - 1;
        }
        let utilities = evaluate_in_runs(utility, &distinct);

        // Combine in stratum order: v_i = (1/n) Σ_s (stratum sum / k). The
        // floating-point reduction is independent of the parallel schedule.
        let scale = 1.0 / (n as f64 * k as f64);
        let mut values = vec![0.0f64; n];
        for (t, samples) in slot.chunks_exact(2 * k).enumerate() {
            let mut sum = 0.0f64;
            for pair in samples.chunks_exact(2) {
                sum += utilities[pair[1]] - utilities[pair[0]];
            }
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
    fn cached_estimate_is_bit_identical_with_one_miss_per_distinct_coalition() {
        use crate::utility::{CacheStats, CachedUtility};
        let game = GloveGame { left: 3, n: 6 };
        let cfg = StratifiedConfig {
            samples_per_stratum: 8,
            seed: 17,
        };
        let estimator = Stratified { config: cfg };
        let plain = estimator.estimate(&game);
        let cached = CachedUtility::new(&game);
        let through = estimator.estimate(&cached);
        // Going through the cache must not move a single bit.
        assert_eq!(plain, through);
        // The estimator dedups before it asks: every coalition it names
        // is one miss, and no slot is a hit.
        let stats = cached.stats();
        assert_eq!(stats.misses, cached.unique_evaluations());
        assert_eq!(
            stats,
            CacheStats {
                hits: 0,
                misses: stats.misses
            }
        );
    }

    /// The estimate as the per-stratum form computes it: each sample's
    /// base drawn from its own stream, both coalitions asked one at a time
    /// through a [`CachedUtility`](crate::utility::CachedUtility), each
    /// stratum's marginals summed in sample order and the strata combined
    /// in stratum order. Also returns the distinct coalitions asked.
    fn per_stratum_oracle<U: CoalitionUtility + Sync>(
        utility: &U,
        k: usize,
        seed: u64,
    ) -> (Vec<f64>, usize) {
        let cached = crate::utility::CachedUtility::new(utility);
        let n = utility.num_players();
        let scale = 1.0 / (n as f64 * k as f64);
        let mut values = vec![0.0f64; n];
        for t in 0..n * n {
            let (i, s) = (t / n, t % n);
            let mut sum = 0.0f64;
            for sample in 0..k {
                let mut state = stream_state(seed, t as u64, sample as u64);
                let mut others: Vec<usize> = (0..n).filter(|&p| p != i).collect();
                for j in 0..s {
                    let draw = crate::rng::stream_next(&mut state);
                    let r = j + (draw % (others.len() - j) as u64) as usize;
                    others.swap(j, r);
                }
                let base = Coalition::from_members(&others[..s]);
                let without = cached.evaluate(base);
                sum += cached.evaluate(base.with(i)) - without;
            }
            values[i] += sum * scale;
        }
        (values, cached.unique_evaluations())
    }

    #[test]
    fn indexed_passes_equal_the_cached_per_stratum_form_at_caps_1_and_2() {
        use crate::utility::games::{Recording, THREAD_CAP};
        use crate::utility::{CacheStats, CachedUtility};
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let _cap = THREAD_CAP.lock().expect("thread-cap mutex poisoned");
        for cap in [1usize, 2] {
            numeric::par::set_max_threads(cap);
            // Few players and many samples: most draws collide.
            for n in 1..=10usize {
                for k in 1..=8usize {
                    let wavy = |c: Coalition| ((c.0 as f64 + 0.5) * 0.731).sin() * c.len() as f64;
                    let game = utility_fn(n, wavy);
                    let seed = (n * 31 + k) as u64;
                    let (oracle, distinct) = per_stratum_oracle(&game, k, seed);
                    let estimator = Stratified {
                        config: StratifiedConfig {
                            samples_per_stratum: k,
                            seed,
                        },
                    };
                    let plain = estimator.estimate(&game);
                    assert_eq!(
                        bits(&plain.values),
                        bits(&oracle),
                        "n {n}, k {k}, cap {cap}"
                    );
                    let cached = CachedUtility::new(&game);
                    assert_eq!(
                        estimator.estimate(&cached),
                        plain,
                        "n {n}, k {k}, cap {cap}"
                    );
                    assert_eq!(
                        cached.stats(),
                        CacheStats {
                            hits: 0,
                            misses: distinct
                        },
                        "n {n}, k {k}, cap {cap}"
                    );
                    // Each distinct coalition is asked once, in runs that
                    // keep member-trie pre-order.
                    let recording = Recording::new(utility_fn(n, wavy));
                    assert_eq!(estimator.estimate(&recording), plain);
                    let batches = recording.take();
                    assert!(batches
                        .iter()
                        .all(|b| b.is_sorted_by_key(|c| c.0.reverse_bits())));
                    let mut asked = batches.concat();
                    let asked_len = asked.len();
                    asked.sort_unstable();
                    asked.dedup();
                    assert_eq!((asked.len(), asked_len), (distinct, distinct));
                }
            }
        }
        numeric::par::set_max_threads(0);
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
