//! The native (exact) Shapley value — the paper's Eq. 1 — as the [`Exact`]
//! estimator.
//!
//! ```text
//! v_i = (1/n) Σ_{S ⊆ I\{i}}  [u(S ∪ {i}) − u(S)] / C(n−1, |S|)
//! ```
//!
//! Evaluated by enumerating the full powerset once, caching utilities by
//! bitmask, then assembling every player's weighted marginal sum. Cost is
//! `2^n` utility evaluations plus `n · 2^(n−1)` table lookups — exactly
//! the `2^n` coalition-model trainings the paper's Table I counts for
//! NativeSV. Both passes run on the deterministic fork-join layer
//! ([`numeric::par`]): each cache slot and each player's marginal sum is
//! a pure function of its index, so the result is bit-identical for every
//! thread count.

use numeric::par;

use crate::coalition::{binomial, Coalition, MAX_PLAYERS};
use crate::estimator::{Exact, SvDiagnostics, SvEstimate, SvEstimator};
use crate::utility::{CoalitionUtility, MAX_BATCH};

/// The exact Shapley value of every player: powerset utility cache plus
/// weighted marginal assembly, `2^n` evaluations and no diagnostics.
///
/// Every exact entry point — the contract's `GroupExact` rounds and the
/// off-chain Algorithm 1 oracle [`crate::group::group_shapley`] — is
/// this estimator, so the determinism contract is pinned once: the
/// utilities are asked for in batches whose boundaries move with the
/// thread cap ([`CoalitionUtility::evaluate_many`], a pure function of
/// each mask), every value lands in its mask's cache slot, and each
/// player's marginal sum is a pure function of its index on
/// [`numeric::par`] — bit-identical for every thread count. The game
/// prices its own evaluations ([`CoalitionUtility::eval_flops`]): cheap
/// arithmetic stays on the caller where model retraining fans out.
///
/// Panics if the game has more than [`MAX_PLAYERS`] players (the `2^n`
/// enumeration would be intractable).
impl SvEstimator for Exact {
    fn estimate<U: CoalitionUtility + Sync>(&self, utility: &U) -> SvEstimate {
        let n = utility.num_players();
        assert!(
            n <= MAX_PLAYERS,
            "exact SV enumerates 2^n coalitions; {n} players exceeds {MAX_PLAYERS}"
        );
        if n == 0 {
            return SvEstimate {
                values: Vec::new(),
                utility_evaluations: 0,
                diagnostics: SvDiagnostics::default(),
            };
        }

        // One pass over the powerset, cache[mask] = u(mask), a subtree of
        // the member trie per slot: its index fixes the low players, every
        // coalition of the high ones above them is one batch — a vector add
        // each where the game shares member-prefix sums. Four slots per
        // thread keep the contiguous split near even at thread counts that
        // are no power of two; one thread gets the powerset whole.
        let per_lease = par::items_per_lease(utility.eval_flops());
        let threads = ((1usize << n) / per_lease).clamp(1, par::max_threads());
        let slots: usize = if threads > 1 { 4 * threads } else { 1 };
        let low_bits = (slots.next_power_of_two().ilog2() as usize)
            .max(n.saturating_sub(MAX_BATCH.ilog2() as usize))
            .min(n);
        let subtrees = par::par_map_indices(1 << low_bits, (1 << low_bits) / threads, |low| {
            let batch: Vec<Coalition> = (0..1u64 << (n - low_bits))
                .map(|high| Coalition(high << low_bits | low as u64))
                .collect();
            utility.evaluate_many(&batch)
        });
        let mut cache = vec![0.0f64; 1usize << n];
        for (low, values) in subtrees.iter().enumerate() {
            for (high, &value) in values.iter().enumerate() {
                cache[high << low_bits | low] = value;
            }
        }

        // Precompute the per-size weights 1 / (n · C(n−1, s)).
        let weights: Vec<f64> = (0..n)
            .map(|s| 1.0 / (n as f64 * binomial(n - 1, s)))
            .collect();

        // A player's sum reads two cached values per subset of the others.
        let values = par::par_map_indices(n, par::items_per_lease(4 << (n - 1)), |i| {
            let others = Coalition::grand(n).without(i);
            let mut acc = 0.0;
            for s in others.subsets() {
                let with_i = s.with(i);
                let marginal = cache[with_i.0 as usize] - cache[s.0 as usize];
                acc += weights[s.len()] * marginal;
            }
            acc
        });
        SvEstimate {
            values,
            utility_evaluations: 1 << n,
            diagnostics: SvDiagnostics::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::utility::games::{AdditiveGame, GloveGame, MajorityGame};
    use crate::utility::{utility_fn, CachedUtility};
    use proptest::prelude::*;

    #[test]
    fn empty_game() {
        let u = utility_fn(0, |_| 0.0);
        assert!(Exact.estimate(&u).values.is_empty());
    }

    #[test]
    fn single_player_gets_everything() {
        let u = utility_fn(1, |c: Coalition| if c.is_empty() { 0.0 } else { 5.0 });
        assert_eq!(Exact.estimate(&u).values, vec![5.0]);
    }

    #[test]
    fn additive_game_sv_equals_values() {
        let game = AdditiveGame {
            values: vec![3.0, -1.0, 0.5, 2.0],
        };
        let sv = Exact.estimate(&game).values;
        for (v, expect) in sv.iter().zip(&game.values) {
            assert!((v - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn glove_game_two_left_one_right() {
        // Classic result: with L={0,1}, R={2}, SV = (1/6, 1/6, 4/6).
        let game = GloveGame { left: 2, n: 3 };
        let sv = Exact.estimate(&game).values;
        assert!((sv[0] - 1.0 / 6.0).abs() < 1e-12);
        assert!((sv[1] - 1.0 / 6.0).abs() < 1e-12);
        assert!((sv[2] - 4.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn majority_game_symmetric() {
        let game = MajorityGame { n: 5 };
        let sv = Exact.estimate(&game).values;
        for v in &sv {
            assert!((v - 0.2).abs() < 1e-12, "5 symmetric voters split 1.0");
        }
    }

    #[test]
    fn null_player_gets_zero() {
        // Player 2 contributes nothing.
        let u = utility_fn(3, |c: Coalition| {
            (c.contains(0) as u8 + c.contains(1) as u8) as f64
        });
        let sv = Exact.estimate(&u).values;
        assert!((sv[2]).abs() < 1e-12);
        assert!((sv[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cache_sees_every_coalition_exactly_once() {
        let game = MajorityGame { n: 6 };
        let cached = CachedUtility::new(&game);
        let _ = Exact.estimate(&cached);
        assert_eq!(cached.unique_evaluations(), 64);
    }

    #[test]
    fn exact_core_asks_for_every_mask_once_a_subtree_per_batch() {
        use crate::utility::games::{Recording, THREAD_CAP};
        let _cap = THREAD_CAP.lock().expect("thread-cap mutex poisoned");
        for n in 0usize..=14 {
            // Sixteen evaluations make up a lease.
            let game = Recording::priced(
                utility_fn(n, |c: Coalition| {
                    let s: f64 = c.members().map(|i| ((i * 37 + 11) as f64).sin()).sum();
                    s + 0.25 * s.abs().sqrt() * c.len() as f64
                }),
                par::LEASE_FLOPS / 16,
            );
            // Eq. 1 with every utility asked for on the spot: equal bits
            // mean every batched value landed in its own mask's slot.
            let by_definition: Vec<f64> = (0..n)
                .map(|i| {
                    let mut acc = 0.0;
                    for s in Coalition::grand(n).without(i).subsets() {
                        let marginal = game.evaluate(s.with(i)) - game.evaluate(s);
                        acc += 1.0 / (n as f64 * binomial(n - 1, s.len())) * marginal;
                    }
                    acc
                })
                .collect();
            game.take();
            for cap in [1usize, 2, 3, 8] {
                par::set_max_threads(cap);
                let values = Exact.estimate(&game).values;
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&values), bits(&by_definition), "n = {n}, cap {cap}");
                let batches = game.take();
                if n == 0 {
                    assert!(batches.is_empty());
                    continue;
                }
                let mut asked: Vec<u64> = batches.iter().flatten().map(|c| c.0).collect();
                asked.sort_unstable();
                assert_eq!(
                    asked,
                    (0..1u64 << n).collect::<Vec<_>>(),
                    "n = {n}, cap {cap}"
                );
                for batch in &batches {
                    // 2^h masks that agree on the n − h low players.
                    assert!(batch.len().is_power_of_two() && batch.len() <= MAX_BATCH);
                    let low = (1u64 << n) / batch.len() as u64 - 1;
                    assert!(batch.iter().all(|c| c.0 & low == batch[0].0 & low));
                }
                if (1usize << n) >= 2 * 16 {
                    assert!(batches.len() >= cap, "n = {n}, cap {cap}");
                } else {
                    assert_eq!(batches.len(), 1, "n = {n}: too small to split");
                }
            }
        }
        // A game that states no price retrains per coalition: the
        // retraining bench's shape must not lose its second thread.
        let game = Recording::new(MajorityGame { n: 6 });
        for cap in [1usize, 2, 3, 8] {
            par::set_max_threads(cap);
            let _ = Exact.estimate(&game);
            assert!(game.take().len() >= cap, "n = 6 unpriced, cap {cap}");
        }
        par::set_max_threads(0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn prop_efficiency(values in proptest::collection::vec(-10.0f64..10.0, 1..8)) {
            // Σ v_i = u(N) − u(∅) for any game; use a nonlinear one.
            let n = values.len();
            let vals = values.clone();
            let u = utility_fn(n, move |c: Coalition| {
                let s: f64 = c.members().map(|i| vals[i]).sum();
                s + 0.5 * (s.abs()).sqrt() * c.len() as f64
            });
            let sv = Exact.estimate(&u).values;
            let total: f64 = sv.iter().sum();
            let grand = u.evaluate(Coalition::grand(n));
            let empty = u.evaluate(Coalition::EMPTY);
            prop_assert!((total - (grand - empty)).abs() < 1e-9);
        }

        #[test]
        fn prop_symmetry(v in -5.0f64..5.0, n in 2usize..7) {
            // All players identical ⇒ identical SVs.
            let u = utility_fn(n, move |c: Coalition| v * (c.len() as f64).powi(2));
            let sv = Exact.estimate(&u).values;
            for w in sv.windows(2) {
                prop_assert!((w[0] - w[1]).abs() < 1e-9);
            }
        }

        #[test]
        fn prop_additivity(
            a in proptest::collection::vec(-5.0f64..5.0, 4),
            b in proptest::collection::vec(-5.0f64..5.0, 4),
        ) {
            // SV(u1 + u2) = SV(u1) + SV(u2).
            let (a2, b2) = (a.clone(), b.clone());
            let u1 = utility_fn(4, move |c: Coalition| {
                c.members().map(|i| a[i]).sum::<f64>().sin()
            });
            let u2 = utility_fn(4, move |c: Coalition| {
                c.members().map(|i| b[i]).sum::<f64>().cos()
            });
            let (a3, b3) = (a2.clone(), b2.clone());
            let sum_game = utility_fn(4, move |c: Coalition| {
                c.members().map(|i| a3[i]).sum::<f64>().sin()
                    + c.members().map(|i| b3[i]).sum::<f64>().cos()
            });
            let sv1 = Exact.estimate(&u1).values;
            let sv2 = Exact.estimate(&u2).values;
            let sv_sum = Exact.estimate(&sum_game).values;
            for i in 0..4 {
                prop_assert!((sv_sum[i] - (sv1[i] + sv2[i])).abs() < 1e-9);
            }
            let _ = (a2, b2);
        }
    }
}
