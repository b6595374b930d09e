//! Criterion bench behind Table I: GroupSV (per m) vs NativeSV.
//!
//! Uses a reduced dataset so a full Criterion sampling run stays in
//! minutes; the `experiments table1` binary measures the paper-scale
//! wall-clock once instead of statistically.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use fedchain::config::FlConfig;
use fedchain::contract_fl::AccuracyUtility;
use fedchain::ground_truth::RetrainUtility;
use fedchain::world::World;
use fl_ml::dataset::SyntheticDigits;
use fl_ml::metrics::model_accuracy_design_reference;
use fl_ml::{Design, LogisticModel, TrainConfig};
use numeric::linalg::mean_vectors;
use numeric::stats::is_argmax;
use shapley::coalition::{binomial, Coalition};
use shapley::estimator::{Exact, MonteCarlo, Stratified, SvEstimator};
use shapley::group::{group_shapley, GroupModelGame, GroupSvConfig};
use shapley::monte_carlo::McConfig;
use shapley::stratified::StratifiedConfig;
use shapley::utility::{model_utility_fn, CachedUtility, CoalitionUtility, ModelUtility};

fn bench_config() -> FlConfig {
    let mut config = FlConfig::paper_setting();
    config.sigma = 1.0;
    config.data = SyntheticDigits {
        instances: 600,
        ..SyntheticDigits::default()
    };
    config.train = TrainConfig {
        learning_rate: 0.5,
        epochs: 5,
        l2: 1e-4,
    };
    config
}

/// Algorithm 1 end to end under the contract's accuracy utility:
/// `group_sv/opt/m` scores the `2^m` coalitions in logit space (one
/// test-set GEMM per group), `group_sv/seed/m` is the evaluation it
/// replaced — the same library code over a closure utility, so every
/// coalition pays a GEMM + softmax pass
/// ([`model_accuracy_design_reference`], the retained oracle). Before
/// any sampling every coalition's value — asked for alone and in one
/// batch of all `2^m` — is asserted equal between the two.
fn bench_group_sv(c: &mut Criterion) {
    let config = bench_config();
    let world = World::generate(&config).expect("valid config");
    let updates = world.local_updates(&config);
    let (features, classes) = (config.data.features, config.data.classes);
    let utility = AccuracyUtility::new(&world.test, features, classes);
    let design = Design::new(&world.test);
    let reference = model_utility_fn(
        |w: &[f64]| {
            let model = LogisticModel::from_flat(w, features, classes);
            model_accuracy_design_reference(&model, &design)
        },
        utility.of_empty(),
    );

    let mut group = c.benchmark_group("group_sv");
    group.sample_size(10);
    for m in [2usize, 3, 5, 7, 9] {
        let cfg = GroupSvConfig {
            num_groups: m,
            seed: config.permutation_seed,
            round: 0,
        };
        let models = group_shapley(&updates, &utility, &cfg).group_models;
        let game = GroupModelGame::new(&models, &utility);
        let all: Vec<Coalition> = Coalition::powerset(m).collect();
        let batched = game.evaluate_many(&all);
        for (&coalition, batched) in all.iter().zip(batched).skip(1) {
            let members: Vec<Vec<f64>> = coalition.members().map(|j| models[j].clone()).collect();
            let oracle = reference.of_model(&mean_vectors(&members));
            for (path, value) in [("evaluate", game.evaluate(coalition)), ("batch", batched)] {
                assert_eq!(
                    value, oracle,
                    "m = {m}, {coalition:?}, {path}: logit-space score differs from the reference"
                );
            }
        }
        group.bench_with_input(BenchmarkId::new("seed", m), &m, |b, _| {
            b.iter(|| group_shapley(black_box(&updates), &reference, &cfg))
        });
        group.bench_with_input(BenchmarkId::new("opt", m), &m, |b, _| {
            b.iter(|| group_shapley(black_box(&updates), &utility, &cfg))
        });
    }
    group.finish();
}

fn bench_native_sv(c: &mut Criterion) {
    // Native SV retrains 2^n models; keep n small for a samplable bench.
    let mut config = bench_config();
    config.num_owners = 6;
    let world = World::generate(&config).expect("valid config");

    let mut group = c.benchmark_group("native_sv");
    group.sample_size(10);
    group.bench_function("retrain_n6", |b| {
        b.iter(|| {
            let utility = RetrainUtility::new(&world.shards, &world.test, config.train);
            let cached = CachedUtility::new(&utility);
            Exact.estimate(black_box(&cached))
        })
    });
    group.finish();
}

/// The seed implementation of exact SV over group models (Algorithm 1
/// lines 4–6), kept verbatim as the regression baseline: per-coalition
/// member clones + `mean_vectors`, sequential powerset walk. The
/// `group_sv_models/seed/m` vs `group_sv_models/opt/m` pairs in
/// `BENCH_sv_runtime.json` are this function against what the contract
/// runs: `Exact` over a `GroupModelGame`.
fn seed_shapley_over_group_models(
    group_models: &[Vec<f64>],
    utility: &impl ModelUtility,
) -> (Vec<f64>, usize) {
    let m = group_models.len();
    let mut utility_cache = vec![0.0f64; 1usize << m];
    let mut evaluations = 0usize;
    for coalition in Coalition::powerset(m) {
        let value = if coalition.is_empty() {
            utility.of_empty()
        } else {
            let members: Vec<Vec<f64>> = coalition
                .members()
                .map(|j| group_models[j].clone())
                .collect();
            let w_s = mean_vectors(&members);
            utility.of_model(&w_s)
        };
        utility_cache[coalition.0 as usize] = value;
        evaluations += 1;
    }
    let weights: Vec<f64> = (0..m)
        .map(|s| 1.0 / (m as f64 * binomial(m - 1, s)))
        .collect();
    let mut per_group = vec![0.0f64; m];
    for (j, vj) in per_group.iter_mut().enumerate() {
        let others = Coalition::grand(m).without(j);
        let mut acc = 0.0;
        for s in others.subsets() {
            let marginal = utility_cache[s.with(j).0 as usize] - utility_cache[s.0 as usize];
            acc += weights[s.len()] * marginal;
        }
        *vj = acc;
    }
    (per_group, evaluations)
}

/// `m` deterministic models of `dim` weights in [−1, 1].
fn synthetic_models(m: usize, dim: usize) -> Vec<Vec<f64>> {
    (0..m)
        .map(|j| {
            (0..dim)
                .map(|d| ((j * dim + d) as f64 * 0.37).sin())
                .collect()
        })
        .collect()
}

/// GroupSV's on-chain core at paper model dimensionality (650 weights)
/// with a cheap deterministic utility, so the measured cost is the
/// coalition-model construction + enumeration machinery itself — the
/// part this workspace optimizes — not an arbitrary inference workload.
fn bench_group_sv_models(c: &mut Criterion) {
    let dim = 650usize;
    let utility = model_utility_fn(
        |w: &[f64]| {
            let s: f64 = w.iter().map(|x| x * x).sum();
            s.sqrt()
        },
        0.0,
    );

    let mut group = c.benchmark_group("group_sv_models");
    group.sample_size(10);
    for m in [4usize, 8, 12, 16] {
        let models = synthetic_models(m, dim);
        group.bench_with_input(BenchmarkId::new("seed", m), &models, |b, models| {
            b.iter(|| seed_shapley_over_group_models(black_box(models), &utility))
        });
        group.bench_with_input(BenchmarkId::new("opt", m), &models, |b, models| {
            b.iter(|| Exact.estimate(&GroupModelGame::new(black_box(models), &utility)))
        });
    }
    group.finish();
}

/// The estimator layer over the contract's group-model game at paper
/// model dimensionality, across group counts the exact path cannot
/// reach: `exact` runs only at m = 16 (the `2^m` wall), while the
/// sampling estimators cover m = 16/32/48 — the workload behind the
/// 64-group on-chain cap.
fn bench_sv_estimator(c: &mut Criterion) {
    let dim = 650usize;
    let utility = model_utility_fn(
        |w: &[f64]| {
            let s: f64 = w.iter().map(|x| x * x).sum();
            s.sqrt()
        },
        0.0,
    );

    let mut group = c.benchmark_group("sv_estimator");
    group.sample_size(10);
    for m in [16usize, 32, 48] {
        let models = synthetic_models(m, dim);
        let game = GroupModelGame::new(&models, &utility);
        if m <= 16 {
            group.bench_with_input(BenchmarkId::new("exact", m), &m, |b, _| {
                b.iter(|| Exact.estimate(black_box(&game)))
            });
        }
        group.bench_with_input(BenchmarkId::new("stratified", m), &m, |b, _| {
            b.iter(|| {
                Stratified {
                    config: StratifiedConfig {
                        samples_per_stratum: 4,
                        seed: 42,
                    },
                }
                .estimate(black_box(&game))
            })
        });
        group.bench_with_input(BenchmarkId::new("monte_carlo", m), &m, |b, &m| {
            b.iter(|| {
                MonteCarlo {
                    config: McConfig {
                        permutations: 2 * m,
                        seed: 42,
                    },
                }
                .estimate(black_box(&game))
            })
        });
    }
    group.finish();
}

/// A game stripped of its batch call: `evaluate_many` is the trait
/// default again, one `evaluate` per coalition — how every coalition was
/// valued before the batch kernel, and how uncached sampling still is.
struct OneAtATime<'a, G>(&'a G);

impl<G: CoalitionUtility> CoalitionUtility for OneAtATime<'_, G> {
    fn num_players(&self) -> usize {
        self.0.num_players()
    }

    fn evaluate(&self, coalition: Coalition) -> f64 {
        self.0.evaluate(coalition)
    }

    fn eval_flops(&self) -> usize {
        self.0.eval_flops()
    }
}

/// A utility stripped of its settled rows: `settled` is the trait
/// default again, so the game scores every test row per coalition — how
/// every coalition was valued before rows settled.
struct EveryRow<'a, U>(&'a U);

impl<U: ModelUtility> ModelUtility for EveryRow<'_, U> {
    fn of_model(&self, weights: &[f64]) -> f64 {
        self.0.of_model(weights)
    }

    fn of_empty(&self) -> f64 {
        self.0.of_empty()
    }

    fn scores(&self, weights: &[f64]) -> Vec<f64> {
        self.0.scores(weights)
    }

    fn of_scores(&self, mean_scores: &[f64]) -> f64 {
        self.0.of_scores(mean_scores)
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

/// The coalition game of an accuracy utility valued the way no walk
/// does it: each coalition's mean logits summed from scratch — the
/// members' score vectors in ascending order from `0.0`, then `1/|S|` —
/// and scored row by row with `is_argmax`. What the walk must equal to
/// the bit on a game that settles no row.
struct SeedWalk {
    /// Each group's logits, row-major.
    scores: Vec<Vec<f64>>,
    labels: Vec<usize>,
    classes: usize,
    empty: f64,
}

impl CoalitionUtility for SeedWalk {
    fn num_players(&self) -> usize {
        self.scores.len()
    }

    fn evaluate(&self, coalition: Coalition) -> f64 {
        if coalition.is_empty() {
            return self.empty;
        }
        let mut sum = vec![0.0f64; self.scores[0].len()];
        for j in coalition.members() {
            for (acc, s) in sum.iter_mut().zip(&self.scores[j]) {
                *acc += s;
            }
        }
        let inv = 1.0 / coalition.len() as f64;
        let mean: Vec<f64> = sum.iter().map(|s| s * inv).collect();
        let rows = mean.chunks_exact(self.classes).zip(&self.labels);
        let hits = rows.filter(|(row, &label)| is_argmax(row, label)).count();
        hits as f64 / self.labels.len() as f64
    }
}

/// The contract's estimator dispatch at the benchmark's two SV-bound
/// shapes: exact enumeration, or `Stratified{2}`.
fn play(game: &(impl CoalitionUtility + Sync), exact: bool) -> Vec<f64> {
    if exact {
        return Exact.estimate(game).values;
    }
    let stratified = Stratified {
        config: StratifiedConfig {
            samples_per_stratum: 2,
            seed: 42,
        },
    };
    stratified.estimate(game).values
}

/// What the batch kernel buys on the two games the federation benchmark
/// spends its evaluation time in: `table1_sv` (`Exact`, m = 9 groups,
/// 1 124 test rows × 10 classes) and the second level of `sharded_1k`
/// (`Stratified{2}` over k = 32 cohorts, 410 rows × 4 classes, as the
/// contract plays it).
/// `batch` lets the estimator hand the game whole subtrees / runs of the
/// distinct sampled coalitions, `single` asks the same game one
/// coalition at a time; the two
/// estimates are asserted equal to the bit before sampling. Their group
/// models are synthetic sine patterns: at `table1_sv`'s shape no test row
/// settles, so that pair measures the walk itself, while most of
/// `sharded_1k`'s rows do — unlike the benchmark's real second-level
/// game, whose 32 cohort aggregates settle none of the 410 rows.
/// `unsettled/sharded_1k` is that workload's shape: the same game over a
/// utility that settles nothing ([`EveryRow`]), every row walked per
/// coalition, asserted equal to `batch/sharded_1k` to the bit first.
/// `seed/sharded_1k` plays the same estimator over [`SeedWalk`] — every
/// coalition's mean summed from scratch and scored row-major — asserted
/// equal to `unsettled/sharded_1k` to the bit before sampling.
///
/// `settled/table1_sv` and `unsettled/table1_sv` play `Exact` over the
/// nine group models trained from `World::generate` at `table1_sv`'s
/// shape (Table I, m = n = 9, σ = 1), whose every test row settles:
/// `settled` is the game as the contract builds it, `unsettled` the same
/// game over a utility that settles nothing ([`EveryRow`]). The two are
/// asserted equal to the bit before sampling.
///
/// `scripts/bench_smoke.sh` gates `batch/table1_sv` against
/// `single/table1_sv`, `settled/table1_sv` against `unsettled/table1_sv`,
/// and `unsettled/sharded_1k` against `seed/sharded_1k`, each of one run.
fn bench_coalition_walk(c: &mut Criterion) {
    let bits = |values: Vec<f64>| values.into_iter().map(f64::to_bits).collect::<Vec<_>>();
    let mut group = c.benchmark_group("coalition_walk");
    group.sample_size(10);
    for (shape, m, rows, features, classes) in [
        ("table1_sv", 9usize, 1_124usize, 64usize, 10usize),
        ("sharded_1k", 32, 410, 16, 4),
    ] {
        let test = SyntheticDigits {
            instances: rows,
            features,
            classes,
            ..SyntheticDigits::default()
        }
        .generate(7);
        let utility = AccuracyUtility::new(&test, features, classes);
        let dim = (features + 1) * classes;
        let models = synthetic_models(m, dim);
        let game = GroupModelGame::new(&models, &utility);
        let single = OneAtATime(&game);
        let exact = m <= 9;
        let values = play(&game, exact);
        assert!(values.iter().any(|&v| v != 0.0), "{shape}: degenerate game");
        assert_eq!(
            bits(values),
            bits(play(&single, exact)),
            "{shape}: batched and one-at-a-time estimates differ"
        );
        group.bench_function(BenchmarkId::new("batch", shape), |b| {
            b.iter(|| play(black_box(&game), exact))
        });
        group.bench_function(BenchmarkId::new("single", shape), |b| {
            b.iter(|| play(black_box(&single), exact))
        });
        if !exact {
            let every_row = EveryRow(&utility);
            let unsettled = GroupModelGame::new(&models, &every_row);
            assert_eq!(
                bits(play(&game, exact)),
                bits(play(&unsettled, exact)),
                "{shape}: settled and unsettled estimates differ"
            );
            group.bench_function(BenchmarkId::new("unsettled", shape), |b| {
                b.iter(|| play(black_box(&unsettled), exact))
            });
            let design = Design::new(&test);
            let seed = SeedWalk {
                scores: models.iter().map(|w| utility.scores(w)).collect(),
                labels: design.labels().to_vec(),
                classes,
                empty: utility.of_empty(),
            };
            assert_eq!(
                bits(play(&unsettled, exact)),
                bits(play(&seed, exact)),
                "{shape}: the walk and the from-scratch sums differ"
            );
            group.bench_function(BenchmarkId::new("seed", shape), |b| {
                b.iter(|| play(black_box(&seed), exact))
            });
        }
    }

    let config = FlConfig {
        num_groups: 9,
        sigma: 1.0,
        ..FlConfig::paper_setting()
    };
    let world = World::generate(&config).expect("valid config");
    let models = world.local_updates(&config);
    let utility = AccuracyUtility::new(&world.test, config.data.features, config.data.classes);
    let every_row = EveryRow(&utility);
    let settled = GroupModelGame::new(&models, &utility);
    let unsettled = GroupModelGame::new(&models, &every_row);
    let values = play(&settled, true);
    assert!(
        values.iter().any(|&v| v != 0.0),
        "table1_sv: degenerate game"
    );
    assert_eq!(
        bits(values),
        bits(play(&unsettled, true)),
        "table1_sv: settled and unsettled estimates differ"
    );
    group.bench_function(BenchmarkId::new("settled", "table1_sv"), |b| {
        b.iter(|| play(black_box(&settled), true))
    });
    group.bench_function(BenchmarkId::new("unsettled", "table1_sv"), |b| {
        b.iter(|| play(black_box(&unsettled), true))
    });
    group.finish();
}

/// Dropout recovery (the round state machine's Recovering→Evaluated
/// work): reconstruct the dropped DH keys from their Shamir escrow
/// shares (verified against the advertised public keys) and strip the
/// residual pairwise masks from the survivors' partial aggregate —
/// measured at paper-adjacent and 10× model dimensionality, for a single
/// dropout and the ⌈n/3⌉ acceptance case.
fn bench_secure_agg_recovery(c: &mut Criterion) {
    use fl_crypto::dh::{DhGroup, DhKeyPair};
    use fl_crypto::dropout::{escrow_private_key, recover_dropout_set, DroppedParty};
    use fl_crypto::secure_agg::{KeyDirectory, PartyState};
    use fl_crypto::shamir::{Shamir, Share};
    use fl_crypto::ChaChaPrg;
    use numeric::FixedCodec;

    let n = 9usize;
    let threshold = n / 2 + 1;
    let round = 0u64;
    let dh = DhGroup::simulation_256();
    let shamir = Shamir::default();
    let codec = FixedCodec::default();

    let keypairs: Vec<DhKeyPair> = (0..n)
        .map(|i| dh.keypair_from_seed(&[i as u8 + 1; 32]))
        .collect();
    let mut directory = KeyDirectory::new();
    for (i, kp) in keypairs.iter().enumerate() {
        directory
            .advertise(i as u32, kp.public)
            .expect("unique ids");
    }
    let escrowed: Vec<Vec<Share>> = keypairs
        .iter()
        .enumerate()
        .map(|(i, kp)| {
            let mut prg = ChaChaPrg::from_seed(&[i as u8 + 40; 32]);
            escrow_private_key(&shamir, kp, threshold, n, &mut prg).expect("valid escrow")
        })
        .collect();

    let mut group = c.benchmark_group("secure_agg_recovery");
    group.sample_size(10);
    for dim in [1_000usize, 10_000] {
        let weights: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                (0..dim)
                    .map(|d| ((i * dim + d) as f64 * 0.37).sin())
                    .collect()
            })
            .collect();
        let submissions: Vec<Vec<u64>> = (0..n)
            .map(|i| {
                let party = PartyState::derive(&dh, i as u32, &keypairs[i], &directory)
                    .expect("cohort derives");
                party.masked_update(&codec, round, &weights[i])
            })
            .collect();
        for drops in [1usize, n.div_ceil(3)] {
            // The last `drops` owners vanish; survivors' masked
            // submissions form the partial sum to correct.
            let dropped_ids: Vec<usize> = (n - drops..n).collect();
            let survivor_ids: Vec<usize> = (0..n - drops).collect();
            let mut partial = vec![0u64; dim];
            for &s in &survivor_ids {
                FixedCodec::ring_add_assign(&mut partial, &submissions[s]);
            }
            let survivors: Vec<(u32, numeric::U256)> = survivor_ids
                .iter()
                .map(|&s| (s as u32, keypairs[s].public))
                .collect();
            let dropped: Vec<DroppedParty> = dropped_ids
                .iter()
                .map(|&d| DroppedParty {
                    id: d as u32,
                    advertised_public: keypairs[d].public,
                    shares: survivor_ids
                        .iter()
                        .take(threshold)
                        .map(|&s| escrowed[d][s].clone())
                        .collect(),
                })
                .collect();
            group.bench_with_input(
                BenchmarkId::new(format!("reconstruct_strip/dim{dim}"), drops),
                &partial,
                |b, partial| {
                    b.iter(|| {
                        let mut sum = partial.clone();
                        recover_dropout_set(
                            &shamir,
                            &dh,
                            &mut sum,
                            black_box(&dropped),
                            &survivors,
                            threshold,
                            round,
                        )
                        .expect("recovery succeeds");
                        sum
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_group_sv,
    bench_native_sv,
    bench_group_sv_models,
    bench_sv_estimator,
    bench_coalition_walk,
    bench_secure_agg_recovery
);
criterion_main!(benches);
