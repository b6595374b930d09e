//! Multinomial (softmax) logistic regression with gradient descent.
//!
//! The paper's local trainer (Sect. V-A2): "We use logistic regression
//! with gradient descent in local train epoch and FedAvg in global train
//! epoch." The model is a single linear layer with bias trained on
//! full-batch cross-entropy; `to_flat`/`from_flat` convert between the
//! matrix form and the flat weight vector that travels through secure
//! aggregation.
//!
//! # Batched execution
//!
//! Training and evaluation run over a [`Design`] — the input features
//! conditioned (fixed 1/16 scale) and bias-extended **once**, in a single
//! gather pass, instead of per call. Scoring is row-major, `X · W`, one
//! row of logits per example.
//!
//! Training runs **class-major**: a call transposes the design and the
//! weights once (`Xᵀ` and `Wᵀ` live for the call, not in the [`Design`],
//! so a design kept for scoring costs what it did), and each epoch is
//! three batched kernels with no per-row temporaries: the logits GEMM
//! `Lᵀ = Wᵀ · Xᵀ` (classes × examples) into a reused buffer, one softmax
//! down its columns in place with `−1.0` at each label
//! ([`math::softmax_columns`]), and the gradient
//! `Gᵀ = (P − Y)ᵀ · X` (classes × features+1) through the same
//! [`Matrix::matmul_into`]; `Wᵀ` is transposed back when the call ends.
//! Both products have a few rows and hundreds of columns, the shape
//! `numeric::linalg`'s wide register tiles are built for; row-major,
//! each had ten output columns (`X · W`, and `Xᵀ · (P − Y)`) and ran
//! latency-bound at about half the speed.
//!
//! The layout changes no bit. Each element of `Lᵀ` and `Gᵀ` is the
//! element of `L` / `G` it transposes, folded from `0.0` over the same
//! products in the same ascending order (the `numeric::linalg`
//! determinism contract; `a · b` and `b · a` round alike), and each
//! example's softmax runs the operations of its row — the maximum and
//! the sum folded in class order, `exp` of `v − max`, one division — in
//! the same order. The `exp` is [`numeric::math`]'s, the same bits in
//! every lane on every platform. So trained weights are bit-identical
//! for any thread count and any host, and bit-identical to the original
//! row-major loop spelled out over that `exp`.

use numeric::stats::argmax;
use numeric::{math, Matrix};

use crate::dataset::{Dataset, DatasetView};

/// Hyper-parameters for local training.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Gradient-descent step size.
    pub learning_rate: f64,
    /// Full-batch epochs per local training call.
    pub epochs: usize,
    /// L2 regularization strength (0 disables).
    pub l2: f64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            learning_rate: 0.1,
            epochs: 10,
            l2: 1e-4,
        }
    }
}

/// A conditioned design matrix: features scaled and bias-extended, with
/// labels, ready for repeated training or evaluation passes.
///
/// Building a `Design` pays the input conditioning (the fixed 1/16 scale
/// plus the constant bias column) exactly once; every
/// [`LogisticModel::train_design`] epoch and every
/// [`LogisticModel::predict_design`] call then runs straight GEMMs over
/// it. The FL hot paths build one design per dataset — per owner shard,
/// per coalition, and *once* for the test set an accuracy utility
/// scores every model against.
#[derive(Debug, Clone, PartialEq)]
pub struct Design {
    x: Matrix,
    labels: Vec<usize>,
    num_classes: usize,
}

impl Design {
    /// Conditions a dataset into a design matrix.
    pub fn new(data: &Dataset) -> Self {
        Self::from_view(&data.view())
    }

    /// Conditions a zero-copy coalition view: one fused gather-scale-bias
    /// pass over the member shards, no intermediate pooled dataset.
    ///
    /// Row order matches `Dataset::concat` over the same parts, so the
    /// trained weights are bit-identical to materializing first.
    ///
    /// # Panics
    ///
    /// Panics if the view is empty.
    pub fn from_view(view: &DatasetView<'_>) -> Self {
        assert!(!view.is_empty(), "cannot train on an empty dataset");
        let features = view.num_features();
        let mut x = Matrix::zeros(view.len(), features + 1);
        let mut labels = Vec::with_capacity(view.len());
        for (r, (row, label)) in view.rows().enumerate() {
            let out = x.row_mut(r);
            for (o, &v) in out[..features].iter_mut().zip(row) {
                *o = v / 16.0;
            }
            out[features] = 1.0;
            labels.push(label);
        }
        Self {
            x,
            labels,
            num_classes: view.num_classes(),
        }
    }

    /// Gathers the rows at `indices` into a new design (used by the
    /// mini-batch trainer: conditioning is inherited, not recomputed).
    ///
    /// # Panics
    ///
    /// Panics if an index is out of bounds.
    pub fn gather(&self, indices: &[usize]) -> Design {
        let cols = self.x.cols();
        let mut data = Vec::with_capacity(indices.len() * cols);
        let mut labels = Vec::with_capacity(indices.len());
        for &i in indices {
            assert!(i < self.len(), "index {i} out of bounds ({})", self.len());
            data.extend_from_slice(self.x.row(i));
            labels.push(self.labels[i]);
        }
        Design {
            x: Matrix::from_vec(indices.len(), cols, data),
            labels,
            num_classes: self.num_classes,
        }
    }

    /// Number of examples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True when the design holds no examples.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Number of raw input features (bias column excluded).
    pub fn num_features(&self) -> usize {
        self.x.cols() - 1
    }

    /// Total number of classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Labels in row order.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }
}

/// A trained softmax-regression model.
///
/// Weight layout: `(features + 1) × classes`, the final row being the
/// bias. Features are standardized by the caller if desired; the digits
/// data is already range-bounded so the trainer uses a fixed 1/16 input
/// scale for conditioning.
#[derive(Debug, Clone, PartialEq)]
pub struct LogisticModel {
    weights: Matrix,
    num_features: usize,
    num_classes: usize,
}

impl LogisticModel {
    /// A zero-initialized model.
    pub fn zeros(num_features: usize, num_classes: usize) -> Self {
        assert!(num_classes >= 2, "need at least two classes");
        Self {
            weights: Matrix::zeros(num_features + 1, num_classes),
            num_features,
            num_classes,
        }
    }

    /// Number of input features.
    pub fn num_features(&self) -> usize {
        self.num_features
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Immutable weight matrix view (rows = features + bias).
    pub fn weights(&self) -> &Matrix {
        &self.weights
    }

    /// Serializes parameters row-major into a flat vector.
    pub fn to_flat(&self) -> Vec<f64> {
        self.weights.as_slice().to_vec()
    }

    /// Rebuilds a model from a flat vector.
    ///
    /// # Panics
    ///
    /// Panics if the length does not match `(features+1) * classes`.
    pub fn from_flat(flat: &[f64], num_features: usize, num_classes: usize) -> Self {
        assert_eq!(
            flat.len(),
            (num_features + 1) * num_classes,
            "flat vector length {} does not match ({num_features}+1)x{num_classes}",
            flat.len()
        );
        Self {
            weights: Matrix::from_vec(num_features + 1, num_classes, flat.to_vec()),
            num_features,
            num_classes,
        }
    }

    /// Logits for raw `features`: conditions the input, then one GEMM.
    fn logits(&self, features: &Matrix) -> Matrix {
        assert_eq!(
            features.cols(),
            self.num_features,
            "feature count mismatch: model {}, input {}",
            self.num_features,
            features.cols()
        );
        scaled_with_bias(features).matmul(&self.weights)
    }

    /// Class-probability matrix for `features` (one row per example).
    ///
    /// Conditions the input on every call; evaluation loops that hit the
    /// same data repeatedly should build a [`Design`] once and use
    /// [`LogisticModel::predict_proba_design`].
    pub fn predict_proba(&self, features: &Matrix) -> Matrix {
        let mut logits = self.logits(features);
        softmax_rows_in_place(&mut logits);
        logits
    }

    /// Logits `X · W` over a prepared design, one row per example — the
    /// linear part of the model, which is all a hard prediction needs.
    pub fn logits_design(&self, design: &Design) -> Matrix {
        assert_eq!(
            design.num_features(),
            self.num_features,
            "feature count mismatch: model {}, design {}",
            self.num_features,
            design.num_features()
        );
        design.x.matmul(&self.weights)
    }

    /// Class-probability matrix over a prepared design (no conditioning
    /// pass: one GEMM plus the in-place softmax).
    pub fn predict_proba_design(&self, design: &Design) -> Matrix {
        let mut logits = self.logits_design(design);
        softmax_rows_in_place(&mut logits);
        logits
    }

    /// Hard label predictions: the row argmax of the logits. Softmax is
    /// monotone within a row, so it is skipped (`predict_proba*` keeps
    /// it for [`LogisticModel::log_loss`]).
    pub fn predict(&self, features: &Matrix) -> Vec<usize> {
        argmax_rows(&self.logits(features))
    }

    /// Hard label predictions over a prepared design.
    pub fn predict_design(&self, design: &Design) -> Vec<usize> {
        argmax_rows(&self.logits_design(design))
    }

    /// Trains in place on `data` for `config.epochs` full-batch steps.
    pub fn train(&mut self, data: &Dataset, config: &TrainConfig) {
        assert!(!data.is_empty(), "cannot train on an empty dataset");
        let design = Design::new(data);
        self.train_design(&design, config);
    }

    /// Trains in place over a prepared design — the batched epoch loop
    /// every trainer entry point funnels through.
    ///
    /// The loop runs class-major (module docs, "Batched execution"): `Xᵀ`
    /// and `Wᵀ` are taken once, up front. Per epoch: one logits GEMM
    /// `Lᵀ = Wᵀ · Xᵀ` into a reused buffer, one softmax down its columns
    /// in place and `−1.0` at each label (`(P − Y)ᵀ` without
    /// materializing the one-hot labels), one gradient GEMM
    /// `Gᵀ = (P − Y)ᵀ · X` into a reused buffer, then the L2 and step
    /// AXPYs; `W` is `Wᵀ` transposed back at the end. No per-row or
    /// per-epoch allocations.
    ///
    /// # Panics
    ///
    /// Panics on an empty design or class/feature-count mismatch.
    pub fn train_design(&mut self, design: &Design, config: &TrainConfig) {
        assert!(!design.is_empty(), "cannot train on an empty dataset");
        assert_eq!(design.num_classes, self.num_classes, "class count mismatch");
        assert_eq!(
            design.num_features(),
            self.num_features,
            "feature count mismatch: model {}, design {}",
            self.num_features,
            design.num_features()
        );
        let x = &design.x;
        let xt = x.transpose();
        let n = design.len() as f64;
        let mut wt = self.weights.transpose();
        let mut residual_t = Matrix::zeros(self.num_classes, design.len());
        let mut grad_t = Matrix::zeros(self.num_classes, self.num_features + 1);

        for _ in 0..config.epochs {
            wt.matmul_into(&xt, &mut residual_t);
            math::softmax_columns(residual_t.as_mut_slice(), design.len());
            for (r, &label) in design.labels.iter().enumerate() {
                residual_t[(label, r)] -= 1.0; // (P − Y)ᵀ
            }
            residual_t.matmul_into(x, &mut grad_t);
            grad_t.scale(1.0 / n);
            if config.l2 > 0.0 {
                grad_t.axpy(config.l2, &wt);
            }
            wt.axpy(-config.learning_rate, &grad_t);
        }
        self.weights = wt.transpose();
    }

    /// Warm start: builds a model from the flat `global` weights and
    /// trains it on `design` — one FL round's local update without
    /// re-deriving the conditioned design (the caller keeps it across
    /// rounds) and without an intermediate zero model.
    pub fn train_from(global: &[f64], design: &Design, config: &TrainConfig) -> Self {
        let mut model = Self::from_flat(global, design.num_features(), design.num_classes);
        model.train_design(design, config);
        model
    }

    /// Cross-entropy loss on `data` (mean negative log-likelihood).
    pub fn log_loss(&self, data: &Dataset) -> f64 {
        let proba = self.predict_proba(&data.features);
        let eps = 1e-12;
        let total: f64 = data
            .labels
            .iter()
            .enumerate()
            .map(|(i, &l)| -math::ln(proba[(i, l)].max(eps)))
            .sum();
        total / data.len() as f64
    }
}

/// Trains a fresh model on `data`.
pub fn train_model(data: &Dataset, config: &TrainConfig) -> LogisticModel {
    let mut model = LogisticModel::zeros(data.num_features(), data.num_classes);
    model.train(data, config);
    model
}

/// Trains a fresh model over a prepared design.
pub fn train_model_design(design: &Design, config: &TrainConfig) -> LogisticModel {
    let mut model = LogisticModel::zeros(design.num_features(), design.num_classes());
    model.train_design(design, config);
    model
}

/// Input conditioning: scale bitmap counts (0–16) towards unit range and
/// append the bias column. A fixed constant keeps the transformation
/// identical on every owner without sharing statistics.
fn scaled_with_bias(features: &Matrix) -> Matrix {
    features.map(|v| v / 16.0).with_bias_column()
}

/// Row-wise argmax (first maximum) over a logits or probability matrix.
pub(crate) fn argmax_rows(scores: &Matrix) -> Vec<usize> {
    (0..scores.rows())
        .map(|r| argmax(scores.row(r)).expect("row holds a non-NaN score"))
        .collect()
}

/// Row-wise numerically-stable softmax, in place, no temporaries, as
/// three passes over the whole block: subtract each row's maximum, one
/// [`math::exp_slice`] over all rows × classes, then divide each row by
/// its sum.
///
/// Operation order per element matches the unfused pipeline — `exp` of
/// `v − max` through [`math::exp`], a row sum folded in ascending column
/// order, one division — so the probabilities are bit-identical to that
/// pipeline spelled out per element.
pub fn softmax_rows_in_place(logits: &mut Matrix) {
    for r in 0..logits.rows() {
        let row = logits.row_mut(r);
        let max = row.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        for v in row.iter_mut() {
            *v -= max;
        }
    }
    math::exp_slice(logits.as_mut_slice());
    for r in 0..logits.rows() {
        let row = logits.row_mut(r);
        let mut sum = 0.0;
        for v in row.iter() {
            sum += *v;
        }
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
}

/// Row-wise numerically-stable softmax (out of place).
#[cfg(test)]
fn softmax_rows(logits: &Matrix) -> Matrix {
    let mut out = logits.clone();
    softmax_rows_in_place(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::SyntheticDigits;
    use crate::metrics::accuracy;
    use crate::split::split_rows;

    fn quick_config() -> TrainConfig {
        TrainConfig {
            learning_rate: 0.5,
            epochs: 60,
            l2: 1e-4,
        }
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let logits = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, -5.0, 0.0, 5.0]);
        let p = softmax_rows(&logits);
        for r in 0..2 {
            let s: f64 = p.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-12);
            assert!(p.row(r).iter().all(|&v| v > 0.0));
        }
    }

    #[test]
    fn softmax_stable_for_huge_logits() {
        let logits = Matrix::from_vec(1, 2, vec![1000.0, 999.0]);
        let p = softmax_rows(&logits);
        assert!(p[(0, 0)].is_finite() && p[(0, 1)].is_finite());
        assert!(p[(0, 0)] > p[(0, 1)]);
    }

    #[test]
    fn zero_model_predicts_uniform() {
        let model = LogisticModel::zeros(4, 5);
        let x = Matrix::from_vec(1, 4, vec![1.0, 2.0, 3.0, 4.0]);
        let p = model.predict_proba(&x);
        for c in 0..5 {
            assert!((p[(0, c)] - 0.2).abs() < 1e-12);
        }
    }

    #[test]
    fn flat_round_trip() {
        let mut model = LogisticModel::zeros(3, 4);
        model.weights[(0, 0)] = 1.5;
        model.weights[(3, 3)] = -2.5;
        let flat = model.to_flat();
        assert_eq!(flat.len(), 16);
        let back = LogisticModel::from_flat(&flat, 3, 4);
        assert_eq!(back, model);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn from_flat_bad_length_panics() {
        let _ = LogisticModel::from_flat(&[0.0; 5], 3, 4);
    }

    #[test]
    fn training_reduces_loss() {
        let ds = SyntheticDigits::small().generate(1);
        let mut model = LogisticModel::zeros(ds.num_features(), ds.num_classes);
        let before = model.log_loss(&ds);
        model.train(&ds, &quick_config());
        let after = model.log_loss(&ds);
        assert!(
            after < before * 0.8,
            "loss should drop substantially: {before} -> {after}"
        );
    }

    #[test]
    fn learns_separable_digits() {
        let ds = SyntheticDigits::small().generate(2);
        let (train, test) = split_rows(&(0..ds.len()).collect::<Vec<_>>(), 0.8, 3);
        let (train, test) = (ds.subset(&train), ds.subset(&test));
        let model = train_model(&train, &quick_config());
        let preds = model.predict(&test.features);
        let acc = accuracy(&preds, &test.labels);
        assert!(acc > 0.9, "synthetic digits should be learnable, got {acc}");
    }

    #[test]
    fn training_deterministic() {
        let ds = SyntheticDigits::small().generate(4);
        let a = train_model(&ds, &quick_config());
        let b = train_model(&ds, &quick_config());
        assert_eq!(a, b, "full-batch GD from zeros is deterministic");
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn empty_training_panics() {
        let ds = SyntheticDigits::small().generate(1);
        let empty = ds.subset(&[]);
        let mut model = LogisticModel::zeros(64, 10);
        model.train(&empty, &quick_config());
    }

    #[test]
    fn l2_shrinks_weights() {
        let ds = SyntheticDigits::small().generate(5);
        let no_reg = train_model(
            &ds,
            &TrainConfig {
                l2: 0.0,
                ..quick_config()
            },
        );
        let reg = train_model(
            &ds,
            &TrainConfig {
                l2: 0.5,
                ..quick_config()
            },
        );
        assert!(
            reg.weights().frobenius_norm() < no_reg.weights().frobenius_norm(),
            "L2 must shrink the weight norm"
        );
    }

    #[test]
    fn design_training_is_bit_identical_to_dataset_training() {
        let ds = SyntheticDigits::small().generate(7);
        let via_dataset = train_model(&ds, &quick_config());
        let design = Design::new(&ds);
        let via_design = train_model_design(&design, &quick_config());
        assert_eq!(via_dataset, via_design);
        // Prediction paths agree too.
        assert_eq!(
            via_dataset.predict(&ds.features),
            via_design.predict_design(&design)
        );
        assert_eq!(
            via_dataset.predict_proba(&ds.features),
            via_design.predict_proba_design(&design)
        );
    }

    #[test]
    fn predict_design_is_the_argmax_of_the_probabilities() {
        // Skipping the softmax must not change a single hard prediction
        // on trained models, from barely trained to converged.
        let ds = SyntheticDigits::small().generate(8);
        let design = Design::new(&ds);
        for epochs in [1usize, 5, 60] {
            let config = TrainConfig {
                epochs,
                ..quick_config()
            };
            let model = train_model_design(&design, &config);
            let proba = model.predict_proba_design(&design);
            assert_eq!(model.predict_design(&design), argmax_rows(&proba));
            assert_eq!(model.predict(&ds.features), argmax_rows(&proba));
        }
    }

    #[test]
    fn coalition_view_trains_like_materialized_concat() {
        use crate::dataset::{Dataset, DatasetView};
        let ds = SyntheticDigits::small().generate(9);
        let a = ds.subset(&(0..200).collect::<Vec<_>>());
        let b = ds.subset(&(200..450).collect::<Vec<_>>());
        let view = DatasetView::of_parts(vec![&a, &b]);
        let via_view = train_model_design(&Design::from_view(&view), &quick_config());
        let pooled = Dataset::concat(&[&a, &b]);
        let via_concat = train_model(&pooled, &quick_config());
        assert_eq!(via_view, via_concat, "zero-copy view must not change bits");
    }

    #[test]
    fn train_from_warm_starts_from_global_weights() {
        let ds = SyntheticDigits::small().generate(10);
        let design = Design::new(&ds);
        let global = train_model_design(
            &design,
            &TrainConfig {
                epochs: 5,
                ..quick_config()
            },
        );
        let warm = LogisticModel::train_from(
            &global.to_flat(),
            &design,
            &TrainConfig {
                epochs: 20,
                ..quick_config()
            },
        );
        // Identical to the long-hand from_flat + train path.
        let mut long_hand =
            LogisticModel::from_flat(&global.to_flat(), ds.num_features(), ds.num_classes);
        long_hand.train(
            &ds,
            &TrainConfig {
                epochs: 20,
                ..quick_config()
            },
        );
        assert_eq!(warm, long_hand);
    }

    #[test]
    fn train_design_equals_the_spelled_out_epoch_loop_at_every_cap() {
        // The softmax residual per row over the scalar `exp`: subtract
        // the row maximum, exponentiate, fold the sum in column order,
        // divide, subtract the one-hot label.
        fn naive_softmax_residual(logits: &mut Matrix, labels: &[usize]) {
            for (r, &label) in labels.iter().enumerate() {
                let row = logits.row_mut(r);
                let max = row.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                let exp: Vec<f64> = row.iter().map(|&v| math::exp(v - max)).collect();
                let sum: f64 = exp.iter().fold(0.0, |acc, e| acc + e);
                for (v, e) in row.iter_mut().zip(&exp) {
                    *v = e / sum;
                }
                row[label] -= 1.0;
            }
        }

        // The three shapes the workloads train at — a Table I shard
        // (500 × 65 × 10), a `stream_churn` owner (30 × 17 × 4) and the
        // one- and two-example shards of `sharded_1k` — and 600 examples,
        // where the gradient's reduction crosses two k-tile cuts.
        for (instances, features, classes) in [
            (500, 64, 10),
            (30, 16, 4),
            (1, 16, 4),
            (2, 16, 4),
            (600, 64, 10),
        ] {
            let ds = SyntheticDigits {
                instances,
                features,
                classes,
                ..SyntheticDigits::small()
            }
            .generate(13);
            let design = Design::new(&ds);
            // A warm start off zero, as every round after the first.
            let dim = (features + 1) * classes;
            let global: Vec<f64> = (0..dim).map(|i| 0.05 * (i as f64 * 0.61).sin()).collect();
            for l2 in [0.0, 1e-4] {
                let config = TrainConfig {
                    epochs: 6,
                    l2,
                    ..quick_config()
                };
                let mut weights = Matrix::from_vec(features + 1, classes, global.clone());
                for _ in 0..config.epochs {
                    // The naive i-k-j product and the naive transposed
                    // product (rows folded in ascending order):
                    // `numeric::linalg`'s oracles.
                    let mut residual = design.x.matmul_naive(&weights);
                    naive_softmax_residual(&mut residual, &design.labels);
                    let mut grad = design.x.t_matmul_naive(&residual);
                    grad.scale(1.0 / design.len() as f64);
                    if config.l2 > 0.0 {
                        grad.axpy(config.l2, &weights);
                    }
                    weights.axpy(-config.learning_rate, &grad);
                }
                for cap in [1usize, 2, 3, 8] {
                    numeric::par::set_max_threads(cap);
                    let trained = LogisticModel::train_from(&global, &design, &config);
                    assert_eq!(
                        trained.weights(),
                        &weights,
                        "{instances}x{}x{classes}, l2 {l2}, thread cap {cap}",
                        features + 1
                    );
                }
            }
        }
        numeric::par::set_max_threads(0);
    }

    #[test]
    fn design_gather_matches_subset_conditioning() {
        let ds = SyntheticDigits::small().generate(11);
        let design = Design::new(&ds);
        let indices = [5usize, 0, 17, 42];
        let gathered = design.gather(&indices);
        assert_eq!(gathered, Design::new(&ds.subset(&indices)));
        assert_eq!(gathered.len(), 4);
        assert_eq!(gathered.labels()[1], ds.labels[0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn design_gather_out_of_bounds_panics() {
        let ds = SyntheticDigits::small().generate(11);
        let _ = Design::new(&ds).gather(&[100_000]);
    }

    #[test]
    #[should_panic(expected = "feature count mismatch")]
    fn design_feature_mismatch_panics() {
        let ds = SyntheticDigits::small().generate(12);
        let design = Design::new(&ds);
        let mut model = LogisticModel::zeros(32, 10);
        model.train_design(&design, &quick_config());
    }

    #[test]
    fn continued_training_from_flat_improves() {
        // Simulates the FL pattern: download global weights, train locally.
        let ds = SyntheticDigits::small().generate(6);
        let mut global = LogisticModel::zeros(ds.num_features(), ds.num_classes);
        global.train(
            &ds,
            &TrainConfig {
                epochs: 5,
                ..quick_config()
            },
        );
        let mut local =
            LogisticModel::from_flat(&global.to_flat(), ds.num_features(), ds.num_classes);
        let before = local.log_loss(&ds);
        local.train(
            &ds,
            &TrainConfig {
                epochs: 20,
                ..quick_config()
            },
        );
        assert!(local.log_loss(&ds) < before);
    }
}
