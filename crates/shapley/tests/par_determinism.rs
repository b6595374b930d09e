//! The determinism contract of the parallel execution layer, pinned.
//!
//! Miners re-execute the contract on machines with arbitrary core
//! counts, so every parallel engine must produce **bit-identical**
//! `Vec<f64>` output for any thread count. These tests run each engine
//! with the fork-join layer capped at 1 thread (the sequential
//! fallback), 2, 3 and 8 threads, and require exact equality — not
//! approximate closeness.
//!
//! The thread cap is a process-global knob, so the tests serialize on a
//! mutex and restore the automatic setting afterwards.

use std::sync::Mutex;

use numeric::par;
use proptest::prelude::*;
use shapley::coalition::Coalition;
use shapley::estimator::{Exact, MonteCarlo, Stratified, SvEstimator};
use shapley::group::{group_shapley, GroupModelGame, GroupSvConfig};
use shapley::monte_carlo::McConfig;
use shapley::stratified::StratifiedConfig;
use shapley::utility::{
    model_utility_fn, utility_fn, CachedUtility, CoalitionUtility, ModelUtility, RestrictedGame,
};

static THREAD_CAP: Mutex<()> = Mutex::new(());

/// Runs `f` under thread caps 1, 2, 3 and 8, asserting every result is
/// exactly equal to the one-thread result. (The automatic cap is 2 on
/// the CI box, and 3 is the first cap at which a nested region can lease
/// a thread while an outer one holds part of the budget.)
fn assert_schedule_invariant<T: PartialEq + std::fmt::Debug>(f: impl Fn() -> T) {
    let _lock = THREAD_CAP.lock().expect("thread-cap mutex poisoned");
    par::set_max_threads(1);
    let sequential = f();
    for cap in [2usize, 3, 8] {
        par::set_max_threads(cap);
        assert_eq!(
            sequential,
            f(),
            "1 thread vs cap {cap} must be bit-identical"
        );
    }
    par::set_max_threads(0);
}

/// A deliberately nonlinear coalition game whose floating-point path
/// would expose any reduction-order change.
fn nonlinear_game(n: usize) -> impl shapley::utility::CoalitionUtility + Sync {
    utility_fn(n, move |c: Coalition| {
        let s: f64 = c.members().map(|i| ((i * 37 + 11) as f64).sin()).sum();
        s + 0.25 * s.abs().sqrt() * c.len() as f64
    })
}

fn synthetic_models(m: usize, dim: usize) -> Vec<Vec<f64>> {
    (0..m)
        .map(|j| {
            (0..dim)
                .map(|d| ((j * dim + d) as f64 * 0.7).sin())
                .collect()
        })
        .collect()
}

#[test]
fn exact_is_schedule_invariant() {
    for n in [1usize, 3, 7, 12] {
        let game = nonlinear_game(n);
        assert_schedule_invariant(|| Exact.estimate(&game));
    }
}

#[test]
fn group_sv_over_models_is_schedule_invariant() {
    let utility = model_utility_fn(
        |w: &[f64]| {
            let s: f64 = w.iter().map(|x| x * x).sum();
            s.sqrt() - w.iter().sum::<f64>() * 0.1
        },
        0.05,
    );
    for m in [1usize, 2, 5, 10] {
        let models = synthetic_models(m, 64);
        assert_schedule_invariant(|| {
            Exact
                .estimate(&GroupModelGame::new(&models, &utility))
                .values
        });
    }
}

#[test]
fn group_shapley_end_to_end_is_schedule_invariant() {
    let utility = model_utility_fn(|w: &[f64]| w.iter().map(|x| x.tanh()).sum(), 0.0);
    let weights = synthetic_models(9, 32);
    for m in [1usize, 4, 9] {
        let cfg = GroupSvConfig {
            num_groups: m,
            seed: 42,
            round: 3,
        };
        assert_schedule_invariant(|| {
            let result = group_shapley(&weights, &utility, &cfg);
            (result.per_user, result.per_group, result.global_model)
        });
    }
}

#[test]
fn monte_carlo_is_schedule_invariant() {
    let game = nonlinear_game(9);
    for permutations in [1usize, 7, 200] {
        let estimator = MonteCarlo {
            config: McConfig {
                permutations,
                seed: 1234,
            },
        };
        assert_schedule_invariant(|| estimator.estimate(&game));
    }
}

#[test]
fn stratified_is_schedule_invariant() {
    // The new sampler must uphold the same contract as every other
    // engine, including at the player counts only it can reach.
    for n in [1usize, 5, 12, 30] {
        let game = nonlinear_game(n);
        let estimator = Stratified {
            config: StratifiedConfig {
                samples_per_stratum: 4,
                seed: 2024,
            },
        };
        assert_schedule_invariant(|| estimator.estimate(&game));
    }
}

#[test]
fn stratified_48_players_is_schedule_invariant() {
    // The acceptance case: a 48-player game — impossible for the exact
    // engines (2^48 coalitions) — runs and is bit-identical for thread
    // caps 1, 2, 3 and 8.
    let game = nonlinear_game(48);
    let estimator = Stratified {
        config: StratifiedConfig {
            samples_per_stratum: 2,
            seed: 7,
        },
    };
    assert_schedule_invariant(|| {
        let estimate = estimator.estimate(&game);
        assert_eq!(estimate.values.len(), 48);
        (
            estimate.values,
            estimate.utility_evaluations,
            estimate.diagnostics,
        )
    });
}

#[test]
fn estimator_layer_is_schedule_invariant() {
    // The sampling estimators behind `CachedUtility`, as the contract
    // runs Monte-Carlo: the memo table must not move a bit at any cap.
    let game = nonlinear_game(10);
    assert_schedule_invariant(|| Exact.estimate(&game));
    assert_schedule_invariant(|| {
        Stratified {
            config: StratifiedConfig {
                samples_per_stratum: 3,
                seed: 11,
            },
        }
        .estimate(&CachedUtility::new(&game))
    });
    assert_schedule_invariant(|| {
        MonteCarlo {
            config: McConfig {
                permutations: 40,
                seed: 3,
            },
        }
        .estimate(&CachedUtility::new(&game))
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn prop_stratified_converges_to_exact(
        n in 2usize..=10,
        seed in any::<u64>(),
    ) {
        // Estimator parity: at high sample counts the stratified
        // estimate approaches the exact values on games small enough to
        // enumerate. The game is nonlinear so agreement is not an
        // artifact of additivity.
        let game = nonlinear_game(n);
        let exact = Exact.estimate(&game);
        let sampled = Stratified {
            config: StratifiedConfig { samples_per_stratum: 600, seed },
        }
        .estimate(&game);
        for (i, (e, s)) in exact.values.iter().zip(&sampled.values).enumerate() {
            prop_assert!(
                (e - s).abs() < 0.15,
                "player {i}: exact {e} vs stratified {s}"
            );
        }
    }
}

#[test]
fn restricted_game_is_schedule_invariant() {
    // The survivor-restriction wrapper the contract evaluates dropout
    // rounds through must uphold the same contract as every engine.
    let game = nonlinear_game(12);
    let survivors = vec![0usize, 3, 4, 7, 9, 11];
    assert_schedule_invariant(|| {
        let restricted = RestrictedGame::new(&game, survivors.clone());
        Exact.estimate(&restricted)
    });
    assert_schedule_invariant(|| {
        let restricted = RestrictedGame::new(&game, survivors.clone());
        Stratified {
            config: StratifiedConfig {
                samples_per_stratum: 3,
                seed: 19,
            },
        }
        .estimate(&restricted)
    });
}

#[test]
fn accuracy_game_is_schedule_invariant_in_one_walk_tile_and_many() {
    // The game the contract plays: test accuracy, scored in logit space.
    // At m = 8 forty test rows fit one register group of the label
    // screen and one walk tile; the full 600-row set takes many groups
    // and, at a walk budget of 16 KiB, many tiles; and more groups than
    // the exact cap are sampled. Thread caps 1, 2 and 4 must agree to
    // the bit on every path.
    use fedchain::contract_fl::AccuracyUtility;
    use fl_ml::dataset::SyntheticDigits;

    let full = SyntheticDigits::small().generate(99);
    let short = full.subset(&(0..40).collect::<Vec<_>>());
    let stratified = Stratified {
        config: StratifiedConfig {
            samples_per_stratum: 3,
            seed: 23,
        },
    };
    let _lock = THREAD_CAP.lock().expect("thread-cap mutex poisoned");
    for (test_set, m, many_tiles) in [
        (&short, 8usize, false),
        (&full, 8, true),
        (&short, 30, false),
    ] {
        let utility = AccuracyUtility::new(test_set, 64, 10);
        let models = synthetic_models(m, 650);
        let game = |bytes| GroupModelGame::new(&models, &utility).with_walk_bytes(bytes);
        let bytes = if many_tiles { 16 << 10 } else { 1 << 20 };
        assert_eq!(game(bytes).walk_tiles(m) > 1, many_tiles);
        let run = |cap: usize| {
            par::set_max_threads(cap);
            let game = game(bytes);
            let exact = (m <= 8).then(|| Exact.estimate(&game).values);
            (exact, stratified.estimate(&game).values)
        };
        let sequential = run(1);
        assert!(sequential.1.iter().any(|&v| v != 0.0), "degenerate game");
        for cap in [2usize, 4] {
            assert_eq!(sequential, run(cap), "m = {m}: cap 1 vs cap {cap}");
        }
    }
    par::set_max_threads(0);
}

#[test]
fn benchmark_shaped_games_are_schedule_invariant() {
    // The two games the federation benchmark spends its evaluation time
    // in, through the batch kernel: the subtrees `Exact` hands out and
    // the runs `Stratified` cuts both move with the thread cap, the
    // values may not. `table1_sv`: 2^9 coalitions over 1 124 x 10
    // logits; `sharded_1k`'s second level: `Stratified{2}` over 32
    // cohorts and 410 x 4 logits, restricted as the contract's survivor
    // game (three cohorts dropped here, so the restriction lifts masks).
    use fedchain::contract_fl::AccuracyUtility;
    use fl_ml::dataset::SyntheticDigits;

    let digits = |instances, features, classes| {
        let data = SyntheticDigits {
            instances,
            features,
            classes,
            ..SyntheticDigits::default()
        };
        AccuracyUtility::new(&data.generate(3), features, classes)
    };

    let utility = digits(1_124, 64, 10);
    let models = synthetic_models(9, 650);
    assert_schedule_invariant(|| Exact.estimate(&GroupModelGame::new(&models, &utility)));

    let utility = digits(410, 16, 4);
    let models = synthetic_models(32, 68);
    let stratified = Stratified {
        config: StratifiedConfig {
            samples_per_stratum: 2,
            seed: 29,
        },
    };
    assert_schedule_invariant(|| {
        let full = GroupModelGame::new(&models, &utility);
        let alive = RestrictedGame::new(&full, (0..32).filter(|c| c % 11 != 5).collect());
        stratified.estimate(&alive)
    });
}

/// `AccuracyUtility` with no row settled: every row walked per coalition,
/// as in the benchmark's real second-level game.
struct EveryRow<'a>(&'a fedchain::contract_fl::AccuracyUtility);

impl ModelUtility for EveryRow<'_> {
    fn of_model(&self, weights: &[f64]) -> f64 {
        self.0.of_model(weights)
    }

    fn of_empty(&self) -> f64 {
        self.0.of_empty()
    }

    fn scores(&self, weights: &[f64]) -> Vec<f64> {
        self.0.scores(weights)
    }

    fn scores_many(&self, models: &[Vec<f64>]) -> Vec<f64> {
        self.0.scores_many(models)
    }

    fn granule(&self) -> Option<usize> {
        self.0.granule()
    }

    fn labels(&self) -> Option<&[usize]> {
        self.0.labels()
    }

    fn of_tally(&self, total: f64) -> f64 {
        self.0.of_tally(total)
    }
}

#[test]
fn l1_tiled_walk_equals_one_tile_at_the_benchmark_shapes() {
    // The walk budget the game derives: `sharded_1k`'s second level, 32
    // cohort models over 410 rows x 4 classes with no row settled, holds
    // one AVX-512F register group of its 32 players and 32 levels in
    // 48 KiB and walks seven tiles of the L1 budget; the 10 000-owner
    // round's, 64 models over 4 000 rows, does not and walks six of the
    // 1-MiB one. The seven-tile walk values every sampled coalition and
    // estimate as one tile does, to the bit, at caps 1 and 2.
    use fedchain::contract_fl::AccuracyUtility;
    use fl_ml::dataset::SyntheticDigits;

    let digits = |instances| {
        let data = SyntheticDigits {
            instances,
            features: 16,
            classes: 4,
            ..SyntheticDigits::default()
        };
        AccuracyUtility::new(&data.generate(5), 16, 4)
    };
    let utility = digits(4_000);
    let every_row = EveryRow(&utility);
    let wide = GroupModelGame::new(&synthetic_models(64, 68), &every_row);
    assert_eq!(wide.walk_tiles(64), 6);

    let utility = digits(410);
    let every_row = EveryRow(&utility);
    let models = synthetic_models(32, 68);
    let game = GroupModelGame::new(&models, &every_row);
    let one_tile = GroupModelGame::new(&models, &every_row).with_walk_bytes(1 << 20);
    assert_eq!((game.walk_tiles(32), one_tile.walk_tiles(32)), (7, 1));
    let stratified = Stratified {
        config: StratifiedConfig {
            samples_per_stratum: 2,
            seed: 31,
        },
    };
    let batch: Vec<Coalition> = (0..600u64)
        .map(|i| Coalition(i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32))
        .chain([Coalition::grand(32), Coalition::EMPTY])
        .collect();
    let bits = |values: Vec<f64>| values.into_iter().map(f64::to_bits).collect::<Vec<_>>();
    let _lock = THREAD_CAP.lock().expect("thread-cap mutex poisoned");
    for cap in [1usize, 2] {
        par::set_max_threads(cap);
        let estimate = stratified.estimate(&game).values;
        assert!(estimate.iter().any(|&v| v != 0.0), "degenerate game");
        assert_eq!(
            bits(estimate),
            bits(stratified.estimate(&one_tile).values),
            "cap {cap}"
        );
        assert_eq!(
            bits(game.evaluate_many(&batch)),
            bits(one_tile.evaluate_many(&batch)),
            "cap {cap}"
        );
    }
    par::set_max_threads(0);
}

#[test]
fn settled_table1_games_are_schedule_invariant() {
    // Table I's shape — nine trained group models over 64 features x 10
    // classes, σ = 1 — on a world small enough that about half of its
    // 300 test rows settle (the full 5 620-instance world settles all
    // 1 124). Two cuts of the test set: the rows that settle, and as many
    // of those as there are rows that do not, plus those. The first game
    // walks no row per coalition and states no work, so its 2^9
    // evaluations fit one lease; the second walks half its rows.
    use fedchain::config::FlConfig;
    use fedchain::contract_fl::AccuracyUtility;
    use fedchain::world::World;
    use shapley::utility::{CachedUtility, CoalitionUtility, ModelUtility};

    let mut config = FlConfig::paper_setting();
    config.num_groups = 9;
    config.sigma = 1.0;
    config.data.instances = 1_500;
    let world = World::generate(&config).expect("valid config");
    let models = world.local_updates(&config);
    let (features, classes) = (config.data.features, config.data.classes);
    let whole = AccuracyUtility::new(&world.test, features, classes);
    let logits: Vec<Vec<f64>> = models.iter().map(|w| whole.scores(w)).collect();
    let (settled, unsettled): (Vec<usize>, Vec<usize>) = (0..world.test.len()).partition(|&r| {
        let rows: Vec<&[f64]> = logits
            .iter()
            .map(|l| &l[r * classes..(r + 1) * classes])
            .collect();
        whole.settled(r, &rows).is_some()
    });
    let pairs = settled.len().min(unsettled.len());
    assert!(
        pairs >= 20,
        "{} settled, {} not",
        settled.len(),
        unsettled.len()
    );
    let mut half = [&settled[..pairs], &unsettled[..pairs]].concat();
    half.sort_unstable();

    let stratified = Stratified {
        config: StratifiedConfig {
            samples_per_stratum: 2,
            seed: 37,
        },
    };
    for (rows, walked) in [(&settled, 0), (&half, pairs)] {
        let utility = AccuracyUtility::new(&world.test.subset(rows), features, classes);
        let game = GroupModelGame::new(&models, &utility);
        // Each walked row screens its `classes − 1` label-minus-rival
        // differences, half an element apiece.
        assert_eq!(game.eval_flops(), walked * (classes - 1) * (9 / 2 + 2) / 2);
        if walked == 0 {
            assert!(par::items_per_lease(game.eval_flops()) >= 1 << 9);
        }
        assert_schedule_invariant(|| Exact.estimate(&GroupModelGame::new(&models, &utility)));
        assert_schedule_invariant(|| {
            let game = GroupModelGame::new(&models, &utility);
            let cached = CachedUtility::new(&game);
            (stratified.estimate(&cached), cached.stats())
        });
    }
}

#[test]
fn stratified_over_a_cached_group_game_is_schedule_invariant_at_both_levels() {
    // The two sizes a sharded round plays — a cohort's 4 groups, where
    // no pass of the estimator is worth a thread, and the 32 cohorts of
    // the second level, whose evaluation runs are — each sized by
    // `GroupModelGame::eval_flops` through the cache.
    use shapley::utility::{CachedUtility, CoalitionUtility};
    let utility = model_utility_fn(|w: &[f64]| w.iter().map(|x| x.tanh()).sum(), 0.1);
    for (m, dim) in [(4usize, 68usize), (32, 1640)] {
        let models = synthetic_models(m, dim);
        let stratified = Stratified {
            config: StratifiedConfig {
                samples_per_stratum: 2,
                seed: 31,
            },
        };
        assert_schedule_invariant(|| {
            let game = GroupModelGame::new(&models, &utility);
            let cached = CachedUtility::new(&game);
            assert_eq!(cached.eval_flops(), dim * (m / 2 + 2));
            let estimate = stratified.estimate(&cached);
            (
                estimate.values,
                estimate.utility_evaluations,
                cached.stats(),
            )
        });
    }
}

/// The survivor-only round evaluation, end to end through the FL
/// contract: real pairwise masks, on-chain key escrow, dropout
/// declaration, share-verified recovery, survivor-restricted estimation.
mod survivor_rounds {
    use fedchain::config::SvMethod;
    use fedchain::contract_fl::{share_commitment, FlCall, FlContract, FlParams, RoundPhase};
    use fl_chain::contract::{SmartContract, TxContext};
    use fl_chain::hash::Hash32;
    use fl_crypto::dh::{DhGroup, DhKeyPair};
    use fl_crypto::dropout::escrow_private_key;
    use fl_crypto::secure_agg::{key_epoch, KeyDirectory, PairSecretCache, PartyState};
    use fl_crypto::shamir::Shamir;
    use fl_crypto::ChaChaPrg;
    use fl_ml::dataset::SyntheticDigits;
    use numeric::FixedCodec;
    use shapley::hierarchy::RoundPlan;

    const FEATURES: usize = 64;
    const CLASSES: usize = 10;
    const DIM: usize = (FEATURES + 1) * CLASSES;

    fn ctx(sender: u32) -> TxContext {
        TxContext {
            block_height: 0,
            view: 0,
            sender,
            tx_index: 0,
        }
    }

    /// Runs one full dropout round through a fresh contract (`k > 1`
    /// takes the cohort-sharded hierarchical path) and returns
    /// `(per_owner_sv, global_model, state_digest)`.
    ///
    /// With `warm_cache` the pair keys come out of a pre-warmed
    /// [`PairSecretCache`] (every exponentiation skipped on the masking
    /// derivation) instead of the cold batched path — the returned tuple,
    /// state digest included, must be identical either way.
    pub(super) fn run_round(
        n: usize,
        m: usize,
        k: usize,
        dropped: &[usize],
        weights: &[Vec<f64>],
        warm_cache: bool,
    ) -> (Vec<f64>, Vec<f64>, Hash32) {
        let threshold = n / 2 + 1;
        let params = FlParams {
            owners: (0..n as u32).collect(),
            num_groups: m,
            sv_method: SvMethod::GroupExact,
            permutation_seed: 7,
            total_rounds: 1,
            model_dim: DIM,
            num_features: FEATURES,
            num_classes: CLASSES,
            frac_bits: 24,
            escrow_threshold: threshold,
            num_cohorts: k,
        };
        let test_set = SyntheticDigits::small().generate(99);
        let mut c = FlContract::genesis(params, test_set);
        let dh = DhGroup::simulation_256();
        let shamir = Shamir::default();
        let codec = FixedCodec::new(24);

        let keypairs: Vec<DhKeyPair> = (0..n)
            .map(|i| dh.keypair_from_seed(&[i as u8 + 1; 32]))
            .collect();
        for (i, kp) in keypairs.iter().enumerate() {
            c.execute(
                &ctx(i as u32),
                &FlCall::AdvertiseKey {
                    public_key: kp.public.to_be_bytes(),
                },
            )
            .unwrap();
        }
        let escrowed: Vec<Vec<fl_crypto::shamir::Share>> = keypairs
            .iter()
            .enumerate()
            .map(|(i, kp)| {
                let mut prg = ChaChaPrg::from_seed(&[i as u8 + 70; 32]);
                escrow_private_key(&shamir, kp, threshold, n, &mut prg).unwrap()
            })
            .collect();
        for (i, shares) in escrowed.iter().enumerate() {
            let commitments: Vec<Hash32> = shares
                .iter()
                .map(|s| share_commitment(i as u32, s))
                .collect();
            c.execute(&ctx(i as u32), &FlCall::EscrowKeyShares { commitments })
                .unwrap();
        }

        let groups: Vec<Vec<usize>> = RoundPlan::new(7, 0, n, k, m).unwrap().groups().concat();
        let survivors: Vec<usize> = (0..n).filter(|i| !dropped.contains(i)).collect();
        let mut full_dir = KeyDirectory::new();
        for (j, kp) in keypairs.iter().enumerate() {
            full_dir.advertise(j as u32, kp.public).unwrap();
        }
        let epoch = key_epoch(&full_dir.entries());
        for &i in &survivors {
            let group = groups.iter().find(|g| g.contains(&i)).unwrap();
            let masked = if group.len() == 1 {
                codec.encode_vec(&weights[i])
            } else {
                let mut dir = KeyDirectory::new();
                for &j in group {
                    dir.advertise(j as u32, keypairs[j].public).unwrap();
                }
                let party = if warm_cache {
                    // Warm the cache against the full cohort, then derive
                    // the group-restricted state entirely from cache hits.
                    let mut cache = PairSecretCache::new();
                    PartyState::derive_cached(
                        &dh,
                        i as u32,
                        &keypairs[i],
                        &full_dir,
                        epoch,
                        &mut cache,
                    )
                    .unwrap();
                    PartyState::derive_cached(&dh, i as u32, &keypairs[i], &dir, epoch, &mut cache)
                        .unwrap()
                } else {
                    PartyState::derive(&dh, i as u32, &keypairs[i], &dir).unwrap()
                };
                party.masked_update(&codec, 0, &weights[i])
            };
            c.execute(
                &ctx(i as u32),
                &FlCall::SubmitMaskedUpdate { round: 0, masked },
            )
            .unwrap();
        }

        c.execute(
            &ctx(survivors[0] as u32),
            &FlCall::EvaluateRound { round: 0 },
        )
        .unwrap();
        if !dropped.is_empty() {
            assert!(matches!(c.phase(), RoundPhase::Recovering { .. }));
            for &d in dropped {
                for &provider in survivors.iter().take(threshold) {
                    let share = &escrowed[d][provider];
                    c.execute(
                        &ctx(provider as u32),
                        &FlCall::SubmitRecoveryShare {
                            round: 0,
                            dropped: d as u32,
                            share_x: share.x,
                            share_y: share.y.to_be_bytes(),
                        },
                    )
                    .unwrap();
                }
            }
            c.execute(
                &ctx(survivors[0] as u32),
                &FlCall::EvaluateRound { round: 0 },
            )
            .unwrap();
        }
        let record = &c.history()[0];
        assert_eq!(
            record.survivors, survivors,
            "record must carry the true survivor set"
        );
        (
            record.per_owner_sv.clone(),
            c.global_model().to_vec(),
            c.state_digest(),
        )
    }

    /// From-scratch unmasked survivor aggregate over the round's plan:
    /// per-group survivor ring sums (same order, same fixed-point ring),
    /// the mean over each cohort's surviving groups, then the mean over
    /// the surviving cohorts — a flat round's one cohort *is* the
    /// global model.
    pub(super) fn from_scratch_global(
        n: usize,
        m: usize,
        k: usize,
        dropped: &[usize],
        weights: &[Vec<f64>],
    ) -> Vec<f64> {
        let codec = FixedCodec::new(24);
        let plan = RoundPlan::new(7, 0, n, k, m).unwrap();
        let mut cohort_models: Vec<Vec<f64>> = Vec::new();
        for groups in plan.groups() {
            let mut surviving_models: Vec<Vec<f64>> = Vec::new();
            for g in groups {
                let alive: Vec<usize> =
                    g.iter().copied().filter(|i| !dropped.contains(i)).collect();
                if alive.is_empty() {
                    continue;
                }
                let mut acc = vec![0u64; DIM];
                for &i in &alive {
                    FixedCodec::ring_add_assign(&mut acc, &codec.encode_vec(&weights[i]));
                }
                surviving_models.push(
                    acc.iter()
                        .map(|&r| codec.decode_avg(r, alive.len()))
                        .collect(),
                );
            }
            if !surviving_models.is_empty() {
                cohort_models.push(numeric::linalg::mean_vectors(&surviving_models));
            }
        }
        if k == 1 {
            cohort_models.remove(0)
        } else {
            numeric::linalg::mean_vectors(&cohort_models)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]
    #[test]
    fn prop_survivor_only_evaluation_is_schedule_invariant(
        n in 3usize..=6,
        m_raw in 1usize..=3,
        drop_seed in any::<u64>(),
    ) {
        // Random owner set, random dropout set (capped so the survivors
        // can reach the majority escrow threshold), thread caps 1/2/3/8:
        // the survivor-only round evaluation must be bit-identical across
        // thread counts AND equal a from-scratch unmasked aggregate of
        // the survivors.
        let m = m_raw.min(n);
        let threshold = n / 2 + 1;
        let max_drops = n - threshold;
        let drop_count = (drop_seed as usize) % (max_drops + 1);
        let mut dropped: Vec<usize> = Vec::new();
        let mut cursor = drop_seed;
        while dropped.len() < drop_count {
            cursor = cursor.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let candidate = (cursor >> 33) as usize % n;
            if !dropped.contains(&candidate) {
                dropped.push(candidate);
            }
        }
        dropped.sort_unstable();
        let weights: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                (0..650)
                    .map(|d| ((i * 650 + d) as f64 * 0.37).sin() * 0.1)
                    .collect()
            })
            .collect();

        assert_schedule_invariant(|| survivor_rounds::run_round(n, m, 1, &dropped, &weights, false));
        let (per_owner_sv, global_model, _) =
            survivor_rounds::run_round(n, m, 1, &dropped, &weights, false);
        for &d in &dropped {
            prop_assert_eq!(per_owner_sv[d], 0.0, "dropped owner {} must score 0", d);
        }
        let expect = survivor_rounds::from_scratch_global(n, m, 1, &dropped, &weights);
        prop_assert_eq!(
            global_model, expect,
            "mask-stripped survivor aggregate must be bit-identical to the plaintext ring sum"
        );
    }

    #[test]
    fn prop_cohort_fan_out_is_schedule_invariant(
        n in 4usize..=8,
        k_raw in 2usize..=3,
        m_raw in 1usize..=2,
        drop_seed in any::<u64>(),
    ) {
        // Random cohort plans (the per-cohort pass runs one numeric::par
        // slot per cohort) × thread caps 1/2/3/8: global per-owner
        // contributions AND the full contract state digest must be
        // bit-identical, and the global model must equal the two-level
        // from-scratch plaintext aggregate.
        let k = k_raw.min(n / 2);
        let m = m_raw.min(n / k);
        let threshold = n / 2 + 1;
        let max_drops = n - threshold;
        let drop_count = (drop_seed as usize) % (max_drops + 1);
        let mut dropped: Vec<usize> = Vec::new();
        let mut cursor = drop_seed ^ 0x5eed;
        while dropped.len() < drop_count {
            cursor = cursor.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let candidate = (cursor >> 33) as usize % n;
            if !dropped.contains(&candidate) {
                dropped.push(candidate);
            }
        }
        dropped.sort_unstable();
        let weights: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                (0..650)
                    .map(|d| ((i * 650 + d) as f64 * 0.41).cos() * 0.1)
                    .collect()
            })
            .collect();

        assert_schedule_invariant(|| survivor_rounds::run_round(n, m, k, &dropped, &weights, false));
        let (per_owner_sv, global_model, _) =
            survivor_rounds::run_round(n, m, k, &dropped, &weights, false);
        for &d in &dropped {
            prop_assert_eq!(per_owner_sv[d], 0.0, "dropped owner {} must score 0", d);
        }
        let expect = survivor_rounds::from_scratch_global(n, m, k, &dropped, &weights);
        prop_assert_eq!(
            global_model, expect,
            "sharded survivor aggregate must be bit-identical to the two-level plaintext mean"
        );
    }
}

#[test]
fn warm_pair_cache_round_digest_matches_cold() {
    // Batched DH agreements fan out one numeric::par slot per peer, and
    // the pair-secret cache replays stored secrets instead of
    // exponentiating. Neither may be visible in consensus: the full round
    // outcome — per-owner SV, global model, and the contract state digest
    // — must be bit-identical across thread caps 1/2/3/8 AND across
    // cache cold/warm, including through dropout recovery (whose residual
    // strip runs the batched pair API).
    let n = 6usize;
    let m = 2usize;
    let dropped = [1usize];
    let weights: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            (0..650)
                .map(|d| ((i * 650 + d) as f64 * 0.29).sin() * 0.1)
                .collect()
        })
        .collect();
    assert_schedule_invariant(|| survivor_rounds::run_round(n, m, 1, &dropped, &weights, false));
    assert_schedule_invariant(|| survivor_rounds::run_round(n, m, 1, &dropped, &weights, true));
    let cold = survivor_rounds::run_round(n, m, 1, &dropped, &weights, false);
    let warm = survivor_rounds::run_round(n, m, 1, &dropped, &weights, true);
    assert_eq!(cold, warm, "cache state must never reach the state digest");
}

#[test]
fn batched_key_agreement_is_schedule_invariant() {
    // One owner against 1 100 peers: 138 chunks of the lane ladder (or
    // 1 100 single agreements without it), enough for the batch to lease
    // a second thread; the pair keys may not move, and each equals the
    // single agreement.
    use fl_crypto::dh::DhGroup;
    use numeric::U256;
    let group = DhGroup::simulation_256();
    let me = group.keypair_from_seed(&[9u8; 32]);
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state
    };
    let peers: Vec<U256> = (0..1100)
        .map(|_| {
            let limbs = [next(), next(), next(), next() >> 1];
            U256::from_limbs(limbs)
        })
        .collect();
    let batch = || group.shared_keys_batch(&me.private, &peers).unwrap();
    assert_schedule_invariant(batch);
    for (pk, key) in peers.iter().zip(batch()).step_by(97) {
        assert_eq!(key, group.shared_key(&me.private, pk).unwrap());
    }
}

#[test]
fn blocked_gemm_is_schedule_invariant() {
    // The training engine's GEMM kernel fans out over output row panels;
    // panel boundaries move with the thread count, bits must not. Shapes
    // straddle the k-tile (KC = 256) and the micro-tile tails; the last
    // one is large enough (13 Mflop) that the kernel does split it, three
    // ways from cap 3 up, with an odd row count so panels cut mid-pair.
    use numeric::Matrix;
    for (m, k, n) in [
        (5usize, 64usize, 10usize),
        (33, 300, 13),
        (2, 257, 8),
        (10_001, 65, 10),
    ] {
        let a = Matrix::from_vec(
            m,
            k,
            (0..m * k).map(|i| ((i as f64) * 0.37).sin()).collect(),
        );
        let b = Matrix::from_vec(
            k,
            n,
            (0..k * n).map(|i| ((i as f64) * 0.73).cos()).collect(),
        );
        assert_schedule_invariant(|| a.matmul(&b));
        let at = Matrix::from_vec(
            k,
            m,
            (0..k * m).map(|i| ((i as f64) * 0.11).sin()).collect(),
        );
        let bt = Matrix::from_vec(
            k,
            n,
            (0..k * n).map(|i| ((i as f64) * 0.23).cos()).collect(),
        );
        assert_schedule_invariant(|| at.transpose().matmul(&bt));
    }
}

#[test]
fn logreg_training_is_schedule_invariant() {
    // End-to-end through the batched trainer: conditioned design, logits
    // GEMM, fused softmax+residual, gradient GEMM — trained weights must
    // be bit-identical for thread caps 1/2/3/8. This is the property
    // that makes coalition retraining (the native-SV ground truth)
    // re-executable by miners on arbitrary hardware.
    use fl_ml::dataset::SyntheticDigits;
    use fl_ml::logreg::{train_model, TrainConfig};
    let ds = SyntheticDigits::small().generate(21);
    let config = TrainConfig {
        learning_rate: 0.5,
        epochs: 8,
        l2: 1e-4,
    };
    assert_schedule_invariant(|| {
        let model = train_model(&ds, &config);
        (model.to_flat(), model.log_loss(&ds))
    });
}

#[test]
fn coalition_retrain_utility_is_schedule_invariant() {
    // The zero-copy coalition path: DatasetView over shards → fused
    // gather-scale-bias design → batched trainer → prepared-design
    // accuracy. One full powerset of a 3-owner world.
    use fedchain::config::FlConfig;
    use fedchain::ground_truth::RetrainUtility;
    use fedchain::world::World;
    use shapley::utility::CoalitionUtility;
    let mut config = FlConfig::quick_demo();
    config.num_owners = 3;
    config.train.epochs = 4;
    let world = World::generate(&config).expect("valid config");
    assert_schedule_invariant(|| {
        let utility = RetrainUtility::new(&world.shards, &world.test, config.train);
        Coalition::powerset(3)
            .map(|c| utility.evaluate(c))
            .collect::<Vec<f64>>()
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]
    #[test]
    fn prop_pipelined_run_matches_sequential_chain(
        cohort_choice in 0usize..2,
        rounds in 2u64..=3,
        drop_seed in any::<u64>(),
    ) {
        // The round-pipeline contract, end to end through the protocol
        // driver: the pipelined run (round r+1's off-chain half
        // overlapping round r's on-chain tail) must produce the same
        // chain as the strictly sequential loop — same contributions,
        // same accuracy trace, same block count, same tip digest — for
        // thread caps 1/2/3/8, across random dropout schedules and
        // cohort counts.
        use fedchain::config::FlConfig;
        use fedchain::protocol::FlProtocol;

        let cohorts = [1usize, 4][cohort_choice];
        let mut config = FlConfig::quick_demo();
        config.num_owners = 8;
        config.num_groups = 2;
        config.num_cohorts = cohorts;
        config.rounds = rounds;
        config.train.epochs = 2;
        // Random per-round dropout sets, capped so the survivors always
        // reach the escrow threshold and no cohort is fully dropped
        // (cohorts have 2 members at k = 4, so one drop per round is
        // always safe there).
        let max_per_round = if cohorts > 1 { 1 } else { 3 };
        let mut cursor = drop_seed;
        let mut next = || {
            cursor = cursor
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (cursor >> 33) as usize
        };
        let mut schedule = Vec::new();
        for r in 0..rounds {
            let count = next() % (max_per_round + 1);
            let mut dropped: Vec<usize> = Vec::new();
            while dropped.len() < count {
                let candidate = next() % 8;
                if !dropped.contains(&candidate) {
                    dropped.push(candidate);
                }
            }
            if !dropped.is_empty() {
                dropped.sort_unstable();
                schedule.push((r, dropped));
            }
        }
        config.dropout_schedule = schedule;
        config.validate().expect("schedule is constructed valid");

        let run = |pipelined: bool| {
            let mut p = FlProtocol::new(config.clone()).expect("valid config");
            let report = if pipelined { p.run() } else { p.run_sequential() }
                .expect("honest run");
            let tip = p.engine().store_of(0).expect("miner 0 always exists").tip_digest();
            (
                report.per_owner_sv,
                report.accuracy_history,
                report.blocks,
                tip,
            )
        };
        assert_schedule_invariant(|| {
            let sequential = run(false);
            let pipelined = run(true);
            assert_eq!(
                sequential, pipelined,
                "pipelined chain must be bit-identical to sequential"
            );
            sequential
        });
    }
}

#[test]
fn monte_carlo_streams_are_per_permutation() {
    // Prefix property of per-permutation streams: the first k
    // permutations of a longer run contribute exactly the estimate of a
    // k-permutation run (scaled), because each permutation's RNG is
    // derived from its index, not from a shared evolving stream.
    let game = nonlinear_game(6);
    let short = MonteCarlo {
        config: McConfig {
            permutations: 50,
            seed: 5,
        },
    }
    .estimate(&game);
    let long = MonteCarlo {
        config: McConfig {
            permutations: 100,
            seed: 5,
        },
    }
    .estimate(&game);
    // Both estimates converge on the same exact values, and neither run
    // may depend on the other's length; sanity-check agreement loosely.
    for (a, b) in short.values.iter().zip(&long.values) {
        assert!((a - b).abs() < 0.5, "short {a} vs long {b}");
    }
}
