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
//! speedup is pure engineering, not numerical drift.
//!
//! `gemm_train_shape` samples the trainer's two products on their own,
//! at thread caps 1 and 2, each held to the naive loops first.
//!
//! Committed medians live in `BENCH_ml_training.json`; regenerate with
//! `CRITERION_JSON=out.jsonl cargo bench --bench ml_training`.
//! `scripts/bench_smoke.sh` gates `logreg_train/opt/650` against
//! `logreg_train/seed/650` of one run.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use fedchain::config::FlConfig;
use fedchain::ground_truth::RetrainUtility;
use fedchain::world::World;
use fl_ml::dataset::{Dataset, SyntheticDigits};
use fl_ml::logreg::{train_model, Design, LogisticModel, TrainConfig};
use fl_ml::metrics::model_accuracy_design;
use numeric::par;
use numeric::stats::argmax;
use numeric::Matrix;
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
        let exp: Vec<f64> = row.iter().map(|&v| (v - max).exp()).collect();
        let sum: f64 = exp.iter().sum();
        let out_row = out.row_mut(r);
        for (o, e) in out_row.iter_mut().zip(&exp) {
            *o = e / sum;
        }
    }
    out
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
/// `gradient` is `Xᵀ · (P − Y)` over the transpose `train_design` takes
/// once per call. A top-level product reaches `numeric::par` with the
/// whole budget free, so the cap-2 entries read what `PAR_MIN_FLOPS`
/// decides — they may not be slower than their cap-1 neighbours.
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
        assert_eq!(x.matmul(&w), seed_matmul(&x, &w));
        assert_eq!(xt.matmul(&residual), seed_t_matmul(&x, &residual));
        let mut logits = Matrix::zeros(rows, 10);
        let mut grad = Matrix::zeros(65, 10);
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
        }
    }
    par::set_max_threads(0);
    group.finish();
}

criterion_group!(
    benches,
    bench_gemm_train_shape,
    bench_logreg_train,
    bench_coalition_retrain,
    bench_utility_evaluation
);
criterion_main!(benches);
