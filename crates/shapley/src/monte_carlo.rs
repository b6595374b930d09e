//! Monte-Carlo Shapley approximation (permutation sampling): the
//! [`MonteCarlo`] estimator.
//!
//! The related-work baseline (Ghorbani & Zou's TMC-Shapley, Jia et al.):
//! sample random permutations of the players, walk each permutation
//! accumulating marginal contributions, and average. Unbiased for any
//! sample count. Every permutation is walked to its end: the truncated
//! variant (TMC) skips late marginals and with them the exact
//! telescoping sum, and no on-chain method selects it.
//!
//! Every permutation draws from its **own splitmix64 stream** derived
//! from `(seed, permutation index)`, so permutation `p` shuffles
//! identically whether it runs first on one thread or last on sixteen.
//! The sampled walks execute on the deterministic fork-join layer
//! ([`numeric::par`]) and their marginals are reduced in permutation
//! order, making the estimate bit-identical for every thread count.

use numeric::par;

use crate::coalition::Coalition;
use crate::estimator::{MonteCarlo, SvDiagnostics, SvEstimate, SvEstimator};
use crate::rng::splitmix;
use crate::utility::CoalitionUtility;

/// Monte-Carlo configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct McConfig {
    /// Number of permutations to sample.
    pub permutations: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for McConfig {
    fn default() -> Self {
        Self {
            permutations: 200,
            seed: 0,
        }
    }
}

/// The independent stream state for permutation `index` under `seed`.
///
/// Two finalizer rounds decorrelate neighbouring indices; the result
/// depends only on `(seed, index)`, never on which thread runs the walk.
fn stream_state(seed: u64, index: u64) -> u64 {
    splitmix(seed ^ splitmix(index.wrapping_mul(crate::rng::GOLDEN).wrapping_add(1)))
}

/// Shapley values by permutation sampling.
///
/// The estimate counts `2 + n · permutations` utility evaluations: one
/// per walk step, plus `u(∅)` and `u(N)` up front. Nothing reads `u(N)`
/// any more, but it stays evaluated because round records commit the
/// count; behind the contract's memo table every walk's last step finds
/// it there.
///
/// Panics if `permutations == 0` or the game is empty.
impl SvEstimator for MonteCarlo {
    fn estimate<U: CoalitionUtility + Sync>(&self, utility: &U) -> SvEstimate {
        let config = &self.config;
        let n = utility.num_players();
        assert!(n > 0, "empty game");
        assert!(config.permutations > 0, "need at least one permutation");

        utility.evaluate(Coalition::grand(n));
        let empty_value = utility.evaluate(Coalition::EMPTY);

        let walk_flops = n.saturating_mul(utility.eval_flops());
        let walks =
            par::par_map_indices(config.permutations, par::items_per_lease(walk_flops), |p| {
                let mut state = stream_state(config.seed, p as u64);
                let mut next = move || crate::rng::stream_next(&mut state);
                // Fisher–Yates with the per-permutation splitmix64 stream.
                let mut order: Vec<usize> = (0..n).collect();
                for i in (1..n).rev() {
                    let j = (next() % (i as u64 + 1)) as usize;
                    order.swap(i, j);
                }
                let mut marginals = vec![0.0f64; n];
                let mut coalition = Coalition::EMPTY;
                let mut prev_value = empty_value;
                for &player in &order {
                    coalition = coalition.with(player);
                    let value = utility.evaluate(coalition);
                    marginals[player] += value - prev_value;
                    prev_value = value;
                }
                marginals
            });

        // Reduce in permutation order: the floating-point sum is independent
        // of the parallel schedule.
        let mut acc = vec![0.0f64; n];
        for marginals in &walks {
            for (a, m) in acc.iter_mut().zip(marginals) {
                *a += m;
            }
        }

        let scale = 1.0 / config.permutations as f64;
        for v in &mut acc {
            *v *= scale;
        }
        SvEstimate {
            values: acc,
            utility_evaluations: 2 + n * config.permutations,
            diagnostics: SvDiagnostics {
                samples: config.permutations,
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

    #[test]
    fn additive_game_exact_in_every_sample() {
        // For additive games every permutation gives the exact marginal,
        // so even one permutation is exact.
        let game = AdditiveGame {
            values: vec![1.0, -2.0, 3.0],
        };
        let result = MonteCarlo {
            config: McConfig {
                permutations: 1,
                seed: 3,
            },
        }
        .estimate(&game);
        for (mc, exact) in result.values.iter().zip(&game.values) {
            assert!((mc - exact).abs() < 1e-12);
        }
    }

    #[test]
    fn converges_to_exact_on_glove_game() {
        let game = GloveGame { left: 2, n: 5 };
        let exact = Exact.estimate(&game).values;
        let result = MonteCarlo {
            config: McConfig {
                permutations: 4000,
                seed: 1,
            },
        }
        .estimate(&game);
        for (mc, ex) in result.values.iter().zip(&exact) {
            assert!((mc - ex).abs() < 0.05, "MC {mc} too far from exact {ex}");
        }
    }

    #[test]
    fn efficiency_holds_per_sample_family() {
        // Permutation sampling preserves efficiency exactly (telescoping
        // sum per permutation).
        let game = GloveGame { left: 3, n: 6 };
        let result = MonteCarlo {
            config: McConfig {
                permutations: 50,
                seed: 9,
            },
        }
        .estimate(&game);
        let total: f64 = result.values.iter().sum();
        let grand = game.evaluate(Coalition::grand(6));
        assert!((total - grand).abs() < 1e-9);
    }

    #[test]
    fn deterministic_per_seed() {
        let game = GloveGame { left: 2, n: 4 };
        let cfg = McConfig {
            permutations: 10,
            seed: 42,
        };
        let estimator = MonteCarlo { config: cfg };
        assert_eq!(estimator.estimate(&game), estimator.estimate(&game));
        let other = MonteCarlo {
            config: McConfig { seed: 43, ..cfg },
        }
        .estimate(&game);
        assert_ne!(estimator.estimate(&game).values, other.values);
    }

    #[test]
    #[should_panic(expected = "at least one permutation")]
    fn zero_permutations_panics() {
        let game = AdditiveGame { values: vec![1.0] };
        let _ = MonteCarlo {
            config: McConfig {
                permutations: 0,
                ..Default::default()
            },
        }
        .estimate(&game);
    }
}
