//! Ground-truth and baseline Shapley utilities.
//!
//! Sect. V-B1: "First, we build 2^n models based on the data coalitions,
//! {M_S | S ⊆ P(I)}, then establish the ground truth SV using the native
//! SV method (Eq. 1). We emphasize that native SV cannot be computed with
//! privacy protection on the blockchain."
//!
//! Two coalition utilities are provided:
//!
//! * [`RetrainUtility`] — the paper's ground truth: *retrains* a model on
//!   the union of the coalition's shards (`2^n` trainings; the 316 s
//!   column of Table I).
//! * [`AggregateUtility`] — the FL-style baseline from Song et al. \[4\]:
//!   coalition models are *averaged* from the `n` trained local updates,
//!   so only `n` trainings happen (the mechanism that makes GroupSV an
//!   order of magnitude faster, Sect. IV-B last paragraph).

use fl_ml::dataset::{Dataset, DatasetView};
use fl_ml::logreg::{train_model_design, Design, LogisticModel, TrainConfig};
use fl_ml::metrics::model_accuracy_design;
use numeric::linalg::axpy_slice;
use shapley::coalition::Coalition;
use shapley::utility::CoalitionUtility;

/// Ground-truth utility: retrain on the coalition's pooled data.
///
/// Coalition datasets are **zero-copy**: each evaluation assembles a
/// [`DatasetView`] over the member shards (shard references in coalition
/// order, no row clones) and conditions it straight into the trainer's
/// design matrix in one gather pass. The test set is conditioned once at
/// construction and reused by all `2^n` accuracy evaluations. Both moves
/// are bit-transparent — the trained weights and accuracies are
/// identical to pooling with `Dataset::concat` and evaluating from
/// scratch.
pub struct RetrainUtility<'a> {
    shards: &'a [Dataset],
    test_design: Design,
    train: TrainConfig,
}

impl<'a> RetrainUtility<'a> {
    /// Builds the utility over owner `shards` and a held-out `test` set.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is empty.
    pub fn new(shards: &'a [Dataset], test: &'a Dataset, train: TrainConfig) -> Self {
        assert!(!shards.is_empty(), "need at least one shard");
        Self {
            shards,
            test_design: Design::new(test),
            train,
        }
    }

    fn zero_accuracy(&self) -> f64 {
        let zero = LogisticModel::zeros(
            self.test_design.num_features(),
            self.test_design.num_classes(),
        );
        model_accuracy_design(&zero, &self.test_design)
    }
}

impl CoalitionUtility for RetrainUtility<'_> {
    fn num_players(&self) -> usize {
        self.shards.len()
    }

    fn evaluate(&self, coalition: Coalition) -> f64 {
        if coalition.is_empty() {
            return self.zero_accuracy();
        }
        let parts: Vec<&Dataset> = coalition.members().map(|i| &self.shards[i]).collect();
        let view = DatasetView::of_parts(parts);
        let model = train_model_design(&Design::from_view(&view), &self.train);
        model_accuracy_design(&model, &self.test_design)
    }
}

/// FL-aggregation utility: coalition model = mean of members' local
/// updates (train `n` models once, then every coalition is an average).
///
/// Like [`RetrainUtility`], the test set is conditioned once, and the
/// coalition average accumulates member updates in index order without
/// cloning them (same float operations as `mean_vectors` over clones).
pub struct AggregateUtility<'a> {
    local_updates: &'a [Vec<f64>],
    test_design: Design,
    num_features: usize,
    num_classes: usize,
}

impl<'a> AggregateUtility<'a> {
    /// Builds the utility over pre-trained local updates.
    ///
    /// # Panics
    ///
    /// Panics if `local_updates` is empty or ragged.
    pub fn new(
        local_updates: &'a [Vec<f64>],
        test: &'a Dataset,
        num_features: usize,
        num_classes: usize,
    ) -> Self {
        assert!(!local_updates.is_empty(), "need at least one update");
        let dim = local_updates[0].len();
        assert!(
            local_updates.iter().all(|u| u.len() == dim),
            "ragged updates"
        );
        assert_eq!(dim, (num_features + 1) * num_classes, "dim mismatch");
        Self {
            local_updates,
            test_design: Design::new(test),
            num_features,
            num_classes,
        }
    }
}

impl CoalitionUtility for AggregateUtility<'_> {
    fn num_players(&self) -> usize {
        self.local_updates.len()
    }

    fn evaluate(&self, coalition: Coalition) -> f64 {
        if coalition.is_empty() {
            let zero = LogisticModel::zeros(self.num_features, self.num_classes);
            return model_accuracy_design(&zero, &self.test_design);
        }
        let dim = (self.num_features + 1) * self.num_classes;
        let mut avg = vec![0.0f64; dim];
        for i in coalition.members() {
            axpy_slice(&mut avg, 1.0, &self.local_updates[i]);
        }
        let inv = 1.0 / coalition.len() as f64;
        for a in &mut avg {
            *a *= inv;
        }
        let model = LogisticModel::from_flat(&avg, self.num_features, self.num_classes);
        model_accuracy_design(&model, &self.test_design)
    }

    /// One test-set product (the member average is a rounding error
    /// beside it).
    fn eval_flops(&self) -> usize {
        2 * self.test_design.len() * (self.num_features + 1) * self.num_classes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FlConfig;
    use crate::world::World;
    use fl_ml::metrics::model_accuracy;
    use numeric::linalg::mean_vectors;
    use shapley::axioms::check_efficiency;
    use shapley::estimator::{Exact, SvEstimator};
    use shapley::utility::CachedUtility;

    fn tiny_config() -> FlConfig {
        let mut c = FlConfig::quick_demo();
        c.num_owners = 3;
        c.train.epochs = 5;
        c
    }

    #[test]
    fn retrain_utility_monotone_ish_in_data() {
        // More data (grand coalition) should not be dramatically worse
        // than a singleton; and the grand coalition must beat the zero
        // model on separable data.
        let config = tiny_config();
        let world = World::generate(&config).unwrap();
        let u = RetrainUtility::new(&world.shards, &world.test, config.train);
        let empty = u.evaluate(Coalition::EMPTY);
        let grand = u.evaluate(Coalition::grand(3));
        assert!(
            grand > empty + 0.15,
            "training must help: {empty} -> {grand}"
        );
    }

    #[test]
    fn zero_copy_retrain_is_bit_identical_to_materialized_pipeline() {
        // The seed pipeline: pool the coalition with Dataset::concat,
        // train from scratch, evaluate accuracy on the raw test set. The
        // view + prepared-design path must reproduce it bit for bit.
        use fl_ml::logreg::train_model;
        let config = tiny_config();
        let world = World::generate(&config).unwrap();
        let u = RetrainUtility::new(&world.shards, &world.test, config.train);
        for coalition in Coalition::powerset(3) {
            let fast = u.evaluate(coalition);
            let slow = if coalition.is_empty() {
                let zero = LogisticModel::zeros(world.test.num_features(), world.test.num_classes);
                model_accuracy(&zero, &world.test)
            } else {
                let parts: Vec<&Dataset> = coalition.members().map(|i| &world.shards[i]).collect();
                let pooled = Dataset::concat(&parts);
                let model = train_model(&pooled, &config.train);
                model_accuracy(&model, &world.test)
            };
            assert_eq!(fast, slow, "coalition {coalition:?}");
        }
    }

    #[test]
    fn native_sv_on_retrain_utility_satisfies_efficiency() {
        let config = tiny_config();
        let world = World::generate(&config).unwrap();
        let base = RetrainUtility::new(&world.shards, &world.test, config.train);
        let cached = CachedUtility::new(&base);
        let sv = Exact.estimate(&cached).values;
        assert!(check_efficiency(&cached, &sv));
        assert_eq!(cached.unique_evaluations(), 8, "2^3 coalitions");
    }

    #[test]
    fn aggregate_utility_counts_only_n_trainings() {
        let config = tiny_config();
        let world = World::generate(&config).unwrap();
        let updates = world.local_updates(&config); // n trainings happen here
        let u = AggregateUtility::new(
            &updates,
            &world.test,
            config.data.features,
            config.data.classes,
        );
        // All 2^n coalition evaluations are averages — no training.
        let cached = CachedUtility::new(&u);
        let sv = Exact.estimate(&cached).values;
        assert!(check_efficiency(&cached, &sv));
    }

    #[test]
    fn aggregate_grand_coalition_is_fedavg_model() {
        let config = tiny_config();
        let world = World::generate(&config).unwrap();
        let updates = world.local_updates(&config);
        let u = AggregateUtility::new(
            &updates,
            &world.test,
            config.data.features,
            config.data.classes,
        );
        let grand = u.evaluate(Coalition::grand(3));
        let avg = mean_vectors(&updates);
        let model = LogisticModel::from_flat(&avg, config.data.features, config.data.classes);
        assert_eq!(grand, model_accuracy(&model, &world.test));
    }

    #[test]
    #[should_panic(expected = "dim mismatch")]
    fn aggregate_dim_checked() {
        let config = tiny_config();
        let world = World::generate(&config).unwrap();
        let _ = AggregateUtility::new(&[vec![0.0; 5]], &world.test, 64, 10);
    }
}
