//! ML-substrate benchmarks: the training-engine costs that dominate both
//! columns of Table I.
//!
//! Two seed-vs-opt pairs measure the PR 5 training engine:
//!
//! * `logreg_train` — one local training over a dim×classes grid: the
//!   seed entries run the pre-blocked-GEMM pipeline (naive i-k-j loops,
//!   per-call conditioning, per-row softmax temporaries — kept verbatim
//!   below), the opt entries run the library's batched kernels.
//! * `coalition_retrain` — the native-SV ground-truth workload end to
//!   end: every coalition of a 4-owner world is pooled, retrained and
//!   scored on the test set. Seed pools with `Dataset::concat` and pays
//!   conditioning per coalition; opt uses the zero-copy `DatasetView` +
//!   prepared-design path of `RetrainUtility`.
//!
//! Both pipelines are asserted bit-identical before measuring, so the
//! speedup is pure engineering, not numerical drift. The seed softmax
//! calls the scalar `numeric::math::exp` per element in its naive
//! layout: the transcendental functions are the repository's, one
//! implementation, so the oracle differs from the library in layout
//! only.
//!
//! `gemm_train_shape` samples the trainer's two products on their own,
//! at thread caps 1 and 2, each held to the naive loops first: the
//! class-major pair the trainer runs and, beside it, the row-major pair
//! it ran before (and the test-set scoring still runs).
//!
//! Two groups measure `numeric::math`'s slice passes against the host
//! libm loops they replaced, kept below as `libm_softmax_rows` and
//! `seed_gaussian`:
//!
//! * `softmax_rows` — the trainer's softmax over a logits block at the
//!   Table I shard shape and at the two small shapes of `stream_churn`
//!   (where one dispatch and three passes are weighed against a handful
//!   of libm calls: 30 × 4 reads faster, 2 × 4 at parity). `opt` is
//!   asserted bit-identical to `seed_softmax_rows`, and `opt_t`, the
//!   trainer's class-major pass over the transposed block, to `opt`.
//! * `gaussian_fill` — one data set's worth of Box–Muller samples
//!   (5 620 × 64): `Xoshiro256::fill_gaussian` against a per-sample loop
//!   over libm's `ln` and `cos`. The two agree to the rounding of libm's
//!   argument `2π·u₂`, which is asserted; they cannot agree to the ulp
//!   everywhere, because `cos_2pi` reduces `u₂` exactly and libm sees
//!   `fl(2π·u₂)`.
//!
//! `world_generate` builds the Table I world through `World::generate`,
//! which composes the data set's, the split's and the shards' row
//! shuffles and copies every row once, against the four-step pipeline
//! it replaced (kept below as `seed_world`: three copies of the data,
//! then the noise); the two are asserted bit-identical first.
//!
//! Committed medians live in `BENCH_ml_training.json`; regenerate with
//! `CRITERION_JSON=out.jsonl cargo bench --bench ml_training`.
//! `scripts/bench_smoke.sh` gates `logreg_train/opt/650` against
//! `logreg_train/seed/650`, `gaussian_fill/opt` against
//! `gaussian_fill/seed` and, where the CPU has AVX-512F,
//! `gemm_train_shape/logits_t/500/cap1` against
//! `gemm_train_shape/logits/500/cap1`, each inside one run.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use fedchain::config::FlConfig;
use fedchain::ground_truth::RetrainUtility;
use fedchain::world::World;
use fl_ml::dataset::{Dataset, SyntheticDigits};
use fl_ml::logreg::{softmax_rows_in_place, train_model, Design, LogisticModel, TrainConfig};
use fl_ml::metrics::model_accuracy_design;
use fl_ml::noise::apply_quality_schedule;
use fl_ml::rng::Xoshiro256;
use numeric::stats::argmax;
use numeric::{math, par, Matrix};
use shapley::coalition::Coalition;
use shapley::utility::CoalitionUtility;

fn config() -> TrainConfig {
    TrainConfig {
        learning_rate: 0.5,
        epochs: 10,
        l2: 1e-4,
    }
}

// ---------------------------------------------------------------------
// Seed implementation, kept verbatim as the regression baseline: the
// pre-PR5 naive matmul / t_matmul loops and the unfused trainer pipeline
// (per-call conditioning, one-hot label matrix, per-row softmax
// temporaries, a fresh allocation per kernel call).

fn seed_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for k in 0..a.cols() {
            let v = a[(i, k)];
            if v == 0.0 {
                continue;
            }
            let rhs_row = b.row(k);
            let out_row = out.row_mut(i);
            for (o, &w) in out_row.iter_mut().zip(rhs_row) {
                *o += v * w;
            }
        }
    }
    out
}

fn seed_t_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.cols(), b.cols());
    for r in 0..a.rows() {
        for i in 0..a.cols() {
            let v = a[(r, i)];
            if v == 0.0 {
                continue;
            }
            let right = b.row(r);
            let out_row = out.row_mut(i);
            for (o, &w) in out_row.iter_mut().zip(right) {
                *o += v * w;
            }
        }
    }
    out
}

fn seed_scaled_with_bias(features: &Matrix) -> Matrix {
    features.map(|v| v / 16.0).with_bias_column()
}

fn seed_softmax_rows(logits: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(logits.rows(), logits.cols());
    for r in 0..logits.rows() {
        let row = logits.row(r);
        let max = row.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let exp: Vec<f64> = row.iter().map(|&v| math::exp(v - max)).collect();
        let sum: f64 = exp.iter().sum();
        let out_row = out.row_mut(r);
        for (o, e) in out_row.iter_mut().zip(&exp) {
            *o = e / sum;
        }
    }
    out
}

/// The softmax pass as it stood while `exp` was the host libm's: per
/// row, `exp` and the running sum interleaved, then the division.
fn libm_softmax_rows(logits: &mut Matrix) {
    for r in 0..logits.rows() {
        let row = logits.row_mut(r);
        let max = row.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mut sum = 0.0;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
}

/// Box–Muller as it stood while `ln` and `cos` were the host libm's, one
/// sample per call.
fn seed_gaussian(rng: &mut Xoshiro256) -> f64 {
    let u1 = rng.next_f64().max(f64::MIN_POSITIVE);
    let u2 = rng.next_f64();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// The seed trainer: full-batch GD with the naive kernels, returning the
/// flat weight vector.
fn seed_train(data: &Dataset, config: &TrainConfig) -> Vec<f64> {
    let classes = data.num_classes;
    let x = seed_scaled_with_bias(&data.features);
    let n = data.len() as f64;
    let mut weights = Matrix::zeros(data.num_features() + 1, classes);
    let mut y = Matrix::zeros(data.len(), classes);
    for (i, &label) in data.labels.iter().enumerate() {
        y[(i, label)] = 1.0;
    }
    for _ in 0..config.epochs {
        let logits = seed_matmul(&x, &weights);
        let mut residual = seed_softmax_rows(&logits);
        residual.axpy(-1.0, &y); // P − Y
        let mut grad = seed_t_matmul(&x, &residual);
        grad.scale(1.0 / n);
        if config.l2 > 0.0 {
            grad.axpy(config.l2, &weights);
        }
        weights.axpy(-config.learning_rate, &grad);
    }
    weights.into_vec()
}

/// Seed accuracy: per-call test-set conditioning plus the naive matmul.
fn seed_accuracy(flat: &[f64], data: &Dataset) -> f64 {
    let weights = Matrix::from_vec(data.num_features() + 1, data.num_classes, flat.to_vec());
    let x = seed_scaled_with_bias(&data.features);
    let proba = seed_softmax_rows(&seed_matmul(&x, &weights));
    let correct = data
        .labels
        .iter()
        .enumerate()
        .filter(|&(r, &l)| argmax(proba.row(r)).expect("non-empty row") == l)
        .count();
    correct as f64 / data.len() as f64
}

/// Seed coalition-retrain sweep: pool each coalition with
/// `Dataset::concat`, retrain with the naive kernels, score with per-call
/// conditioning.
fn seed_retrain_sweep(shards: &[Dataset], test: &Dataset, train: &TrainConfig) -> Vec<f64> {
    Coalition::powerset(shards.len())
        .map(|coalition| {
            if coalition.is_empty() {
                let zero = vec![0.0; (test.num_features() + 1) * test.num_classes];
                return seed_accuracy(&zero, test);
            }
            let parts: Vec<&Dataset> = coalition.members().map(|i| &shards[i]).collect();
            let pooled = Dataset::concat(&parts);
            let flat = seed_train(&pooled, train);
            seed_accuracy(&flat, test)
        })
        .collect()
}

/// Opt coalition-retrain sweep: the library path (zero-copy views,
/// blocked GEMM, prepared test design).
fn opt_retrain_sweep(utility: &RetrainUtility<'_>, n: usize) -> Vec<f64> {
    Coalition::powerset(n)
        .map(|coalition| utility.evaluate(coalition))
        .collect()
}

/// World generation as four copying steps — the shuffled data set, the
/// 8:2 split, the deal into shards, then the quality noise — as
/// `World::generate` ran it before it composed the three row shuffles
/// into one gather.
fn seed_world(config: &FlConfig) -> World {
    let shuffled = |n: usize, seed: u64| {
        let mut order: Vec<usize> = (0..n).collect();
        Xoshiro256::seed_from_u64(seed).shuffle(&mut order);
        order
    };
    let dataset = config.data.generate(config.sub_seed("dataset"));
    let n = dataset.len();
    let n_train = ((n as f64) * config.train_fraction).round() as usize;
    let order = shuffled(n, config.sub_seed("split"));
    let train = dataset.subset(&order[..n_train]);
    let test = dataset.subset(&order[n_train..]);
    let order = shuffled(n_train, config.sub_seed("shards"));
    let (owners, mut offset) = (config.num_owners, 0);
    let mut shards = Vec::new();
    for i in 0..owners {
        let size = n_train / owners + usize::from(i < n_train % owners);
        shards.push(train.subset(&order[offset..offset + size]));
        offset += size;
    }
    apply_quality_schedule(&mut shards, config.sigma, config.sub_seed("noise"));
    World { shards, test }
}

/// The Table I world (5 620 × 64, nine owners, σ = 1) through
/// `World::generate` against the four-step pipeline it replaced, asserted
/// bit-identical first, at thread cap 1.
fn bench_world_generate(c: &mut Criterion) {
    let config = FlConfig {
        num_groups: 9,
        sigma: 1.0,
        ..FlConfig::paper_setting()
    };
    let bits = |d: &Dataset| -> (Vec<usize>, Vec<u64>) {
        let features = d.features.as_slice().iter().map(|v| v.to_bits()).collect();
        (d.labels.clone(), features)
    };
    let world = World::generate(&config).expect("valid config");
    let seed = seed_world(&config);
    assert_eq!(world.shards.len(), seed.shards.len());
    for (opt, seed) in world.shards.iter().zip(&seed.shards) {
        assert!(
            bits(opt) == bits(seed),
            "a shard left the four-step pipeline"
        );
    }
    assert!(
        bits(&world.test) == bits(&seed.test),
        "the test set left the four-step pipeline"
    );

    par::set_max_threads(1);
    let mut group = c.benchmark_group("world_generate");
    group.sample_size(10);
    group.bench_function("seed/table1/cap1", |b| {
        b.iter(|| seed_world(black_box(&config)))
    });
    group.bench_function("opt/table1/cap1", |b| {
        b.iter(|| World::generate(black_box(&config)).expect("valid config"))
    });
    group.finish();
    par::set_max_threads(0);
}

/// One local training over a (features × classes) grid — model dims 650,
/// 1290 and 1300 — seed pipeline vs the library's batched kernels.
fn bench_logreg_train(c: &mut Criterion) {
    let mut group = c.benchmark_group("logreg_train");
    group.sample_size(10);
    for (features, classes) in [(64usize, 10usize), (128, 10), (64, 20)] {
        let ds = SyntheticDigits {
            instances: 2000,
            features,
            classes,
            ..SyntheticDigits::default()
        }
        .generate(1);
        let dim = (features + 1) * classes;
        // The two pipelines must produce bit-identical weights; the
        // speedup below is engineering, not numerical drift.
        assert_eq!(
            seed_train(&ds, &config()),
            train_model(&ds, &config()).to_flat(),
            "seed and opt trainers diverged at dim {dim}"
        );
        group.bench_with_input(BenchmarkId::new("seed", dim), &ds, |b, ds| {
            b.iter(|| seed_train(black_box(ds), &config()))
        });
        group.bench_with_input(BenchmarkId::new("opt", dim), &ds, |b, ds| {
            b.iter(|| train_model(black_box(ds), &config()).to_flat())
        });
    }
    group.finish();
}

/// The native-SV ground-truth workload: all 2^4 coalitions of a 4-owner
/// world retrained and scored at the Table I model dimensionality
/// (dim = 650).
fn bench_coalition_retrain(c: &mut Criterion) {
    let mut fl = FlConfig::quick_demo();
    fl.num_owners = 4;
    fl.sigma = 1.0;
    fl.train = TrainConfig {
        learning_rate: 0.5,
        epochs: 8,
        l2: 1e-4,
    };
    let world = World::generate(&fl).expect("valid config");
    let utility = RetrainUtility::new(&world.shards, &world.test, fl.train);
    assert_eq!(
        seed_retrain_sweep(&world.shards, &world.test, &fl.train),
        opt_retrain_sweep(&utility, fl.num_owners),
        "seed and opt coalition sweeps diverged"
    );

    let mut group = c.benchmark_group("coalition_retrain");
    group.sample_size(10);
    group.bench_function("seed/n4", |b| {
        b.iter(|| seed_retrain_sweep(black_box(&world.shards), &world.test, &fl.train))
    });
    group.bench_function("opt/n4", |b| {
        b.iter(|| {
            let utility = RetrainUtility::new(black_box(&world.shards), &world.test, fl.train);
            opt_retrain_sweep(&utility, fl.num_owners)
        })
    });
    group.finish();
}

/// One `u(W)` call: accuracy of a flat model on the test set. GroupSV
/// performs 2^m of these per round; the prepared-design path conditions
/// the test matrix once instead of per call.
fn bench_utility_evaluation(c: &mut Criterion) {
    let ds = SyntheticDigits {
        instances: 1124, // the paper's 20% test split of 5620
        ..SyntheticDigits::default()
    }
    .generate(2);
    let model = train_model(&ds, &config());
    let flat = model.to_flat();
    let mut group = c.benchmark_group("utility_accuracy_eval");
    group.bench_function("seed", |b| b.iter(|| seed_accuracy(black_box(&flat), &ds)));
    let design = Design::new(&ds);
    group.bench_function("opt", |b| {
        b.iter(|| {
            let m = LogisticModel::from_flat(black_box(&flat), 64, 10);
            model_accuracy_design(&m, &design)
        })
    });
    group.finish();
}

/// The trainer's two products alone, at the Table I owner-shard shape
/// (500 × 65 × 10) and the test-set shape `AccuracyUtility` scores
/// (1 124 rows), at thread caps 1 and 2: `logits` is `X · W`,
/// `gradient` is `Xᵀ · (P − Y)` over the transpose taken once per call.
/// At the shard shape, `logits_t` and `gradient_t` are the class-major
/// pair `train_design` runs — `Wᵀ · Xᵀ` and `(P − Y)ᵀ · X` — each held to
/// the naive loop of its row-major twin, transposed, first. A top-level
/// product reaches `numeric::par` with the whole budget free, so the
/// cap-2 entries read what `par::LEASE_FLOPS` decides — they may not be
/// slower than their cap-1 neighbours.
fn bench_gemm_train_shape(c: &mut Criterion) {
    let dense = |rows: usize, cols: usize, salt: f64| {
        let data = (0..rows * cols).map(|i| (i as f64 * salt).sin()).collect();
        Matrix::from_vec(rows, cols, data)
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut group = c.benchmark_group("gemm_train_shape");
    for rows in [500usize, 1124] {
        let x = dense(rows, 65, 0.37);
        let w = dense(65, 10, 0.11);
        let residual = dense(rows, 10, 0.73);
        let xt = x.transpose();
        let (wt, residual_t) = (w.transpose(), residual.transpose());
        assert_eq!(x.matmul(&w), seed_matmul(&x, &w));
        assert_eq!(xt.matmul(&residual), seed_t_matmul(&x, &residual));
        let class_major = rows == 500;
        if class_major {
            assert_eq!(wt.matmul(&xt), seed_matmul(&x, &w).transpose());
            assert_eq!(
                residual_t.matmul(&x),
                seed_t_matmul(&x, &residual).transpose()
            );
        }
        let mut logits = Matrix::zeros(rows, 10);
        let mut grad = Matrix::zeros(65, 10);
        let mut logits_t = Matrix::zeros(10, rows);
        let mut grad_t = Matrix::zeros(10, 65);
        for cap in [1usize, 2] {
            if cap > cores {
                println!("gemm_train_shape: cap {cap} skipped, {cores} core available");
                continue;
            }
            par::set_max_threads(cap);
            let id =
                |product: &str| BenchmarkId::new(format!("{product}/{rows}"), format!("cap{cap}"));
            group.bench_function(id("logits"), |b| {
                b.iter(|| black_box(&x).matmul_into(&w, &mut logits))
            });
            group.bench_function(id("gradient"), |b| {
                b.iter(|| black_box(&xt).matmul_into(&residual, &mut grad))
            });
            if class_major {
                group.bench_function(id("logits_t"), |b| {
                    b.iter(|| black_box(&wt).matmul_into(&xt, &mut logits_t))
                });
                group.bench_function(id("gradient_t"), |b| {
                    b.iter(|| black_box(&residual_t).matmul_into(&x, &mut grad_t))
                });
            }
        }
    }
    par::set_max_threads(0);
    group.finish();
}

/// The softmax pass alone over a logits block: the Table I shard shape
/// (500 × 10) and the two shapes `stream_churn`'s owners train on
/// (30 × 4, 2 × 4), where a per-call dispatch and three passes are
/// weighed against a handful of libm calls. `opt` is the row-major pass
/// the scoring paths run, `opt_t` the class-major one the trainer runs
/// over the transposed block (`numeric::math::softmax_columns`).
fn bench_softmax_rows(c: &mut Criterion) {
    let mut group = c.benchmark_group("softmax_rows");
    for (rows, classes) in [(500usize, 10usize), (30, 4), (2, 4)] {
        let data = (0..rows * classes)
            .map(|i| 9.0 * (i as f64 * 0.37).sin())
            .collect();
        let logits = Matrix::from_vec(rows, classes, data);
        let mut opt = logits.clone();
        softmax_rows_in_place(&mut opt);
        assert_eq!(
            opt,
            seed_softmax_rows(&logits),
            "block softmax diverged from the per-element pipeline at {rows}x{classes}"
        );
        let logits_t = logits.transpose();
        let mut opt_t = logits_t.clone();
        math::softmax_columns(opt_t.as_mut_slice(), rows);
        assert_eq!(
            opt_t,
            opt.transpose(),
            "class-major softmax diverged from the row-major one at {rows}x{classes}"
        );
        let mut libm = logits.clone();
        libm_softmax_rows(&mut libm);
        for (o, l) in opt.as_slice().iter().zip(libm.as_slice()) {
            assert!(
                (o - l).abs() <= 4.0 * f64::EPSILON,
                "softmax left libm's: {o} vs {l}"
            );
        }
        let shape = format!("{rows}x{classes}");
        let mut buffer = logits.clone();
        group.bench_function(BenchmarkId::new("libm", &shape), |b| {
            b.iter(|| {
                buffer.as_mut_slice().copy_from_slice(logits.as_slice());
                libm_softmax_rows(black_box(&mut buffer));
            })
        });
        group.bench_function(BenchmarkId::new("opt", &shape), |b| {
            b.iter(|| {
                buffer.as_mut_slice().copy_from_slice(logits.as_slice());
                softmax_rows_in_place(black_box(&mut buffer));
            })
        });
        let mut buffer_t = logits_t.clone();
        group.bench_function(BenchmarkId::new("opt_t", &shape), |b| {
            b.iter(|| {
                buffer_t.as_mut_slice().copy_from_slice(logits_t.as_slice());
                math::softmax_columns(black_box(buffer_t.as_mut_slice()), rows);
            })
        });
    }
    group.finish();
}

/// One Table I data set's worth of standard normal samples (5 620 × 64):
/// the batched fill against the per-sample libm loop it replaced.
fn bench_gaussian_fill(c: &mut Criterion) {
    const SAMPLES: usize = 5620 * 64;
    let mut filled = vec![0.0; SAMPLES];
    let mut opt_rng = Xoshiro256::seed_from_u64(1);
    opt_rng.fill_gaussian(&mut filled);
    // Same uniforms, so sample for sample the two differ by what libm's
    // cosine inherits from rounding its argument 2π·u₂ — at most
    // 2π·1.5·2⁻⁵³ of a radian, times a radius ≤ 8.6, under 2⁻⁴⁶ (2⁻⁴⁸·⁵
    // measured) — plus last places: half the samples agree to the last
    // place or two, the rest sit where the cosine is small.
    let mut seed_rng = Xoshiro256::seed_from_u64(1);
    let mut to_the_last_place = 0usize;
    for &own in &filled {
        let seed = seed_gaussian(&mut seed_rng);
        let apart = (own - seed).abs();
        assert!(
            apart <= 2f64.powi(-46),
            "batched Gaussian left the libm expression: {own} vs {seed}"
        );
        to_the_last_place += usize::from(apart <= f64::EPSILON * seed.abs());
    }
    assert!(
        to_the_last_place * 2 >= SAMPLES,
        "only {to_the_last_place} of {SAMPLES} samples agree with the libm expression to the last place"
    );
    assert_eq!(
        opt_rng.next_u64(),
        seed_rng.next_u64(),
        "the two fills consumed different streams"
    );

    let mut group = c.benchmark_group("gaussian_fill");
    group.sample_size(10);
    group.bench_function("seed", |b| {
        b.iter(|| {
            let mut rng = Xoshiro256::seed_from_u64(black_box(1));
            for v in filled.iter_mut() {
                *v = seed_gaussian(&mut rng);
            }
        })
    });
    group.bench_function("opt", |b| {
        b.iter(|| Xoshiro256::seed_from_u64(black_box(1)).fill_gaussian(&mut filled))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_gemm_train_shape,
    bench_softmax_rows,
    bench_gaussian_fill,
    bench_world_generate,
    bench_logreg_train,
    bench_coalition_retrain,
    bench_utility_evaluation
);
criterion_main!(benches);
