//! Labelled datasets and the synthetic handwritten-digits generator.
//!
//! The paper evaluates on the UCI *Optical Recognition of Handwritten
//! Digits* dataset: 5620 instances, 64 attributes (8×8 bitmaps with values
//! 0–16), 10 classes. That file is not redistributable inside this
//! offline workspace, so [`SyntheticDigits`] generates a stand-in with the
//! same shape: ten Gaussian class-clusters in 64 dimensions, feature
//! values clipped to `[0, 16]`. The contribution-evaluation experiments
//! only rely on (a) the data being separable enough for logistic
//! regression to learn, and (b) per-owner Gaussian noise degrading owner
//! quality monotonically — both hold by construction.
//!
//! [`SyntheticDigits::generate_in_order`] hands out the generated rows
//! before their shuffle, together with the shuffle, so that a caller
//! splitting and sharding the data can copy every row once, straight to
//! where it ends up; [`SyntheticDigits::generate`] applies the shuffle
//! itself.

use numeric::Matrix;

use crate::rng::Xoshiro256;

/// Number of features in the digits layout (8×8 bitmap).
pub const DIGITS_FEATURES: usize = 64;
/// Number of classes in the digits layout.
pub const DIGITS_CLASSES: usize = 10;
/// Instance count of the original UCI file.
pub const DIGITS_INSTANCES: usize = 5620;

/// An in-memory labelled classification dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    /// Feature matrix, one row per example.
    pub features: Matrix,
    /// Class label per example, in `0..num_classes`.
    pub labels: Vec<usize>,
    /// Total number of classes.
    pub num_classes: usize,
}

impl Dataset {
    /// Creates a dataset, validating shapes and label range.
    ///
    /// # Panics
    ///
    /// Panics if row count and label count differ, or a label is out of
    /// range.
    pub fn new(features: Matrix, labels: Vec<usize>, num_classes: usize) -> Self {
        assert_eq!(
            features.rows(),
            labels.len(),
            "feature rows ({}) must match labels ({})",
            features.rows(),
            labels.len()
        );
        assert!(
            labels.iter().all(|&l| l < num_classes),
            "labels must be < num_classes ({num_classes})"
        );
        Self {
            features,
            labels,
            num_classes,
        }
    }

    /// Number of examples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True when the dataset has no examples.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Number of features per example.
    pub fn num_features(&self) -> usize {
        self.features.cols()
    }

    /// Selects the examples at `indices` (cloning rows).
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        let cols = self.features.cols();
        let mut data = Vec::with_capacity(indices.len() * cols);
        let mut labels = Vec::with_capacity(indices.len());
        for &i in indices {
            assert!(i < self.len(), "index {i} out of bounds ({})", self.len());
            data.extend_from_slice(self.features.row(i));
            labels.push(self.labels[i]);
        }
        Dataset {
            features: Matrix::from_vec(indices.len(), cols, data),
            labels,
            num_classes: self.num_classes,
        }
    }

    /// Concatenates several datasets (used to form coalition training
    /// sets for the ground-truth Shapley computation).
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or schemas mismatch.
    pub fn concat(parts: &[&Dataset]) -> Dataset {
        assert!(!parts.is_empty(), "cannot concat zero datasets");
        let cols = parts[0].num_features();
        let classes = parts[0].num_classes;
        let total: usize = parts.iter().map(|d| d.len()).sum();
        let mut data = Vec::with_capacity(total * cols);
        let mut labels = Vec::with_capacity(total);
        for part in parts {
            assert_eq!(part.num_features(), cols, "feature mismatch in concat");
            assert_eq!(part.num_classes, classes, "class mismatch in concat");
            data.extend_from_slice(part.features.as_slice());
            labels.extend_from_slice(&part.labels);
        }
        Dataset {
            features: Matrix::from_vec(total, cols, data),
            labels,
            num_classes: classes,
        }
    }

    /// A zero-copy view over this whole dataset (a one-part
    /// [`DatasetView`]).
    pub fn view(&self) -> DatasetView<'_> {
        DatasetView::of_parts(vec![self])
    }

    /// Per-class example counts.
    pub fn class_histogram(&self) -> Vec<usize> {
        let mut hist = vec![0usize; self.num_classes];
        for &l in &self.labels {
            hist[l] += 1;
        }
        hist
    }
}

/// A zero-copy concatenation view over owner shards.
///
/// Coalition retraining (the paper's native-SV ground truth) pools the
/// member shards for every one of the `2^n` coalitions;
/// [`Dataset::concat`] clones every row to do so. A `DatasetView` instead
/// holds shard *references* in coalition order — the row sequence is
/// identical to `Dataset::concat(&parts)` but no feature row is copied
/// until the trainer gathers them into its conditioned design matrix
/// (one fused gather-scale-bias pass in `logreg::Design::from_view`).
#[derive(Debug, Clone)]
pub struct DatasetView<'a> {
    parts: Vec<&'a Dataset>,
    len: usize,
}

impl<'a> DatasetView<'a> {
    /// Builds a view over `parts` in order.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or schemas (feature count, class
    /// count) mismatch — the same contract as [`Dataset::concat`].
    pub fn of_parts(parts: Vec<&'a Dataset>) -> Self {
        assert!(!parts.is_empty(), "cannot view zero datasets");
        let cols = parts[0].num_features();
        let classes = parts[0].num_classes;
        for part in &parts {
            assert_eq!(part.num_features(), cols, "feature mismatch in view");
            assert_eq!(part.num_classes, classes, "class mismatch in view");
        }
        let len = parts.iter().map(|d| d.len()).sum();
        Self { parts, len }
    }

    /// Total number of examples across all parts.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when every part is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of features per example.
    pub fn num_features(&self) -> usize {
        self.parts[0].num_features()
    }

    /// Total number of classes.
    pub fn num_classes(&self) -> usize {
        self.parts[0].num_classes
    }

    /// Iterates `(feature_row, label)` pairs in concatenation order.
    pub fn rows(&self) -> impl Iterator<Item = (&'a [f64], usize)> + '_ {
        self.parts
            .iter()
            .flat_map(|part| (0..part.len()).map(move |r| (part.features.row(r), part.labels[r])))
    }

    /// Materializes the view into an owned dataset (row-identical to
    /// [`Dataset::concat`] over the same parts).
    pub fn materialize(&self) -> Dataset {
        Dataset::concat(&self.parts)
    }
}

/// Generator configuration for the synthetic digits substitute.
#[derive(Debug, Clone)]
pub struct SyntheticDigits {
    /// Number of instances to generate.
    pub instances: usize,
    /// Number of features.
    pub features: usize,
    /// Number of classes.
    pub classes: usize,
    /// Distance scale of class centroids (larger = more separable).
    pub centroid_spread: f64,
    /// Within-class standard deviation.
    pub within_class_std: f64,
    /// Feature clipping range, matching the 0–16 bitmap counts.
    pub clip: (f64, f64),
}

impl Default for SyntheticDigits {
    fn default() -> Self {
        // Spread/std are tuned to the regime the real optdigits occupy
        // for logistic regression: an *easy* task where one owner's shard
        // already trains to ~90% accuracy. In that saturated regime the
        // paper's Fig. 1 shape emerges naturally — clean iid shards all
        // contribute almost equally (near-uniform SV at σ = 0), while a
        // noisy shard actively hurts coalitions it joins, pushing its SV
        // down monotonically with the noise level.
        Self {
            instances: DIGITS_INSTANCES,
            features: DIGITS_FEATURES,
            classes: DIGITS_CLASSES,
            centroid_spread: 4.0,
            within_class_std: 1.5,
            clip: (0.0, 16.0),
        }
    }
}

impl SyntheticDigits {
    /// A small configuration for fast unit tests (600 instances).
    pub fn small() -> Self {
        Self {
            instances: 600,
            ..Self::default()
        }
    }

    /// Generates the dataset deterministically from `seed`: the rows of
    /// [`SyntheticDigits::generate_in_order`], shuffled by its order.
    pub fn generate(&self, seed: u64) -> Dataset {
        let (rows, order) = self.generate_in_order(seed);
        rows.subset(&order)
    }

    /// The rows of [`SyntheticDigits::generate`] in generation order,
    /// and the row shuffle that orders them: row `k` of the generated
    /// dataset is generation row `order[k]`, whose label is `order[k] %
    /// classes`.
    ///
    /// Class centroids sit at `8 + spread·(uniform − 0.5)` per feature;
    /// examples are centroid + within-class Gaussian noise, clipped to the
    /// bitmap range. Classes are assigned round-robin so the histogram is
    /// balanced like the UCI file. The shuffle is drawn from the same
    /// generator *after* the Gaussian fill, so handing it out unapplied
    /// moves no sample: a caller that deals rows out further
    /// (`fedchain::world`) composes `order` into its own plan and copies
    /// each row once.
    pub fn generate_in_order(&self, seed: u64) -> (Dataset, Vec<usize>) {
        assert!(self.classes >= 2, "need at least two classes");
        assert!(self.features >= 1, "need at least one feature");
        let mut rng = Xoshiro256::seed_from_u64(seed);

        let (lo, hi) = self.clip;
        let mid = (lo + hi) / 2.0;
        let centroids: Vec<Vec<f64>> = (0..self.classes)
            .map(|_| {
                (0..self.features)
                    .map(|_| mid + self.centroid_spread * (rng.next_f64() - 0.5) * 2.0)
                    .collect()
            })
            .collect();

        // One batched Box–Muller fill, row-major, then centre and clip in
        // place: the draws a per-feature `next_gaussian_with` loop makes.
        let mut data = vec![0.0; self.instances * self.features];
        rng.fill_gaussian(&mut data);
        let labels: Vec<usize> = (0..self.instances).map(|i| i % self.classes).collect();
        for (row, &class) in data.chunks_exact_mut(self.features).zip(&labels) {
            for (v, &centre) in row.iter_mut().zip(&centroids[class]) {
                *v = (centre + self.within_class_std * *v).clamp(lo, hi);
            }
        }
        let rows = Dataset::new(
            Matrix::from_vec(self.instances, self.features, data),
            labels,
            self.classes,
        );

        // Shuffle rows so consecutive examples are not class-ordered.
        (rows, rng.permutation(self.instances))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_shape_matches_uci_layout() {
        let cfg = SyntheticDigits::default();
        assert_eq!(cfg.instances, 5620);
        assert_eq!(cfg.features, 64);
        assert_eq!(cfg.classes, 10);
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = SyntheticDigits::small();
        assert_eq!(cfg.generate(1), cfg.generate(1));
        assert_ne!(cfg.generate(1), cfg.generate(2));
    }

    #[test]
    fn generation_equals_the_spelled_out_per_element_loop_at_every_cap() {
        // The generator as a loop over `next_gaussian_with`, one draw per
        // feature in row-major order, rows shuffled afterwards.
        let cfg = SyntheticDigits {
            instances: 321,
            features: 7,
            classes: 3,
            ..SyntheticDigits::default()
        };
        let seed = 17;
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let centroids: Vec<Vec<f64>> = (0..cfg.classes)
            .map(|_| {
                (0..cfg.features)
                    .map(|_| 8.0 + cfg.centroid_spread * (rng.next_f64() - 0.5) * 2.0)
                    .collect()
            })
            .collect();
        let mut rows = Vec::new();
        for i in 0..cfg.instances {
            let class = i % cfg.classes;
            let row: Vec<f64> = centroids[class]
                .iter()
                .map(|c| (c + rng.next_gaussian_with(0.0, cfg.within_class_std)).clamp(0.0, 16.0))
                .collect();
            rows.push((row, class));
        }
        let mut order: Vec<usize> = (0..cfg.instances).collect();
        rng.shuffle(&mut order);

        for cap in [1usize, 2, 3, 8] {
            numeric::par::set_max_threads(cap);
            let ds = cfg.generate(seed);
            assert_eq!(ds.len(), cfg.instances);
            for (r, &from) in order.iter().enumerate() {
                let (row, class) = &rows[from];
                assert_eq!(ds.labels[r], *class, "cap {cap} row {r}");
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(ds.features.row(r)), bits(row), "cap {cap} row {r}");
            }
        }
        numeric::par::set_max_threads(0);
    }

    #[test]
    fn in_order_rows_carry_round_robin_labels_and_a_permutation() {
        let cfg = SyntheticDigits::small();
        let (rows, order) = cfg.generate_in_order(9);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..cfg.instances).collect::<Vec<_>>());
        assert!(rows
            .labels
            .iter()
            .enumerate()
            .all(|(g, &l)| l == g % cfg.classes));
    }

    #[test]
    fn generated_values_clipped() {
        let ds = SyntheticDigits::small().generate(3);
        for &v in ds.features.as_slice() {
            assert!((0.0..=16.0).contains(&v), "feature value {v} outside range");
        }
    }

    #[test]
    fn class_histogram_balanced() {
        let ds = SyntheticDigits::small().generate(4);
        let hist = ds.class_histogram();
        assert_eq!(hist.len(), 10);
        let min = *hist.iter().min().unwrap();
        let max = *hist.iter().max().unwrap();
        assert!(max - min <= 1, "round-robin classes must be balanced");
    }

    #[test]
    fn subset_picks_rows() {
        let ds = SyntheticDigits::small().generate(5);
        let sub = ds.subset(&[0, 2, 4]);
        assert_eq!(sub.len(), 3);
        assert_eq!(sub.features.row(1), ds.features.row(2));
        assert_eq!(sub.labels[2], ds.labels[4]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn subset_out_of_bounds_panics() {
        let ds = SyntheticDigits::small().generate(5);
        let _ = ds.subset(&[10_000]);
    }

    #[test]
    fn concat_preserves_rows() {
        let ds = SyntheticDigits::small().generate(6);
        let a = ds.subset(&[0, 1]);
        let b = ds.subset(&[2]);
        let joined = Dataset::concat(&[&a, &b]);
        assert_eq!(joined.len(), 3);
        assert_eq!(joined.features.row(2), ds.features.row(2));
    }

    #[test]
    #[should_panic(expected = "zero datasets")]
    fn concat_empty_panics() {
        let _ = Dataset::concat(&[]);
    }

    #[test]
    fn view_matches_concat_row_for_row() {
        let ds = SyntheticDigits::small().generate(7);
        let a = ds.subset(&[0, 3, 5]);
        let b = ds.subset(&[1, 2]);
        let view = DatasetView::of_parts(vec![&a, &b]);
        assert_eq!(view.len(), 5);
        assert_eq!(view.num_features(), 64);
        assert_eq!(view.num_classes(), 10);
        let materialized = view.materialize();
        assert_eq!(materialized, Dataset::concat(&[&a, &b]));
        for (i, (row, label)) in view.rows().enumerate() {
            assert_eq!(row, materialized.features.row(i));
            assert_eq!(label, materialized.labels[i]);
        }
    }

    #[test]
    fn single_dataset_view_round_trips() {
        let ds = SyntheticDigits::small().generate(8);
        let view = ds.view();
        assert_eq!(view.len(), ds.len());
        assert!(!view.is_empty());
        assert_eq!(view.materialize(), ds);
    }

    #[test]
    #[should_panic(expected = "zero datasets")]
    fn empty_view_panics() {
        let _ = DatasetView::of_parts(vec![]);
    }

    #[test]
    #[should_panic(expected = "class mismatch")]
    fn view_schema_mismatch_panics() {
        let a = Dataset::new(Matrix::zeros(1, 2), vec![0], 3);
        let b = Dataset::new(Matrix::zeros(1, 2), vec![0], 4);
        let _ = DatasetView::of_parts(vec![&a, &b]);
    }

    #[test]
    #[should_panic(expected = "labels must be")]
    fn out_of_range_label_panics() {
        let _ = Dataset::new(Matrix::zeros(1, 2), vec![5], 3);
    }

    #[test]
    #[should_panic(expected = "must match labels")]
    fn shape_mismatch_panics() {
        let _ = Dataset::new(Matrix::zeros(2, 2), vec![0], 3);
    }
}
