//! World generation: the experimental universe of Sect. V-A.
//!
//! One [`FlConfig`] deterministically produces the dataset, the 8:2
//! train/test split, the per-owner shards and the quality-noise schedule.
//! Both the on-chain protocol ([`crate::protocol::FlProtocol`]) and the
//! off-chain analyses (ground truth, figures) build their world through
//! this module, so they see **bit-identical data** — a prerequisite for
//! comparing GroupSV against the native ground truth at all.

use fl_ml::dataset::Dataset;
use fl_ml::logreg::LogisticModel;
use fl_ml::noise::apply_quality_schedule;
use fl_ml::split::{shard_for_owners, train_test_split};
use numeric::par;

use crate::config::{ConfigError, FlConfig};

/// The generated experimental world.
#[derive(Debug, Clone)]
pub struct World {
    /// Per-owner training shards (after quality noise).
    pub shards: Vec<Dataset>,
    /// Held-out test set (the utility data).
    pub test: Dataset,
}

impl World {
    /// Generates the world for a configuration.
    pub fn generate(config: &FlConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        let dataset = config.data.generate(config.sub_seed("dataset"));
        let split = train_test_split(&dataset, config.train_fraction, config.sub_seed("split"));
        let mut shards =
            shard_for_owners(&split.train, config.num_owners, config.sub_seed("shards"));
        apply_quality_schedule(&mut shards, config.sigma, config.sub_seed("noise"));
        Ok(Self {
            shards,
            test: split.test,
        })
    }

    /// Number of owners.
    pub fn num_owners(&self) -> usize {
        self.shards.len()
    }

    /// Trains each owner's local model from zero weights and returns the
    /// flat updates — the single-round `w_i` of the paper's evaluation.
    pub fn local_updates(&self, config: &FlConfig) -> Vec<Vec<f64>> {
        let zeros = vec![0.0; (config.data.features + 1) * config.data.classes];
        self.local_updates_from(config, &zeros)
    }

    /// Trains each owner's local model *starting from `global`* — one FL
    /// round's worth of local updates (used by multi-round analyses).
    ///
    /// Owners train in parallel on [`numeric::par`]: each update is a
    /// pure function of the owner index (shard → conditioned design →
    /// warm-started batched trainer), and the batched kernels are
    /// themselves bit-identical across thread counts, so the update
    /// vector is too.
    pub fn local_updates_from(&self, config: &FlConfig, global: &[f64]) -> Vec<Vec<f64>> {
        // An owner costs its epochs, two products over its shard each.
        let dim = global.len();
        let rows = self.shards.iter().map(Dataset::len).sum::<usize>() / self.shards.len().max(1);
        let owner_flops = config.train.epochs * rows * dim * 4;
        par::par_map(
            &self.shards,
            par::items_per_lease(owner_flops),
            |_, shard| {
                let design = fl_ml::Design::new(shard);
                LogisticModel::train_from(global, &design, &config.train).to_flat()
            },
        )
    }

    /// Accuracy of the zero model on the test set (the `u(∅)` baseline).
    pub fn empty_utility(&self, config: &FlConfig) -> f64 {
        let zero = LogisticModel::zeros(config.data.features, config.data.classes);
        fl_ml::metrics::model_accuracy(&zero, &self.test)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_deterministic() {
        let config = FlConfig::quick_demo();
        let a = World::generate(&config).unwrap();
        let b = World::generate(&config).unwrap();
        assert_eq!(a.shards, b.shards);
        assert_eq!(a.test, b.test);
    }

    #[test]
    fn owner_count_and_split_sizes() {
        let config = FlConfig::quick_demo();
        let world = World::generate(&config).unwrap();
        assert_eq!(world.num_owners(), config.num_owners);
        let train_total: usize = world.shards.iter().map(Dataset::len).sum();
        assert_eq!(train_total, 480); // 80% of 600
        assert_eq!(world.test.len(), 120);
    }

    #[test]
    fn local_updates_have_model_dim() {
        let config = FlConfig::quick_demo();
        let world = World::generate(&config).unwrap();
        let updates = world.local_updates(&config);
        assert_eq!(updates.len(), config.num_owners);
        let dim = (config.data.features + 1) * config.data.classes;
        assert!(updates.iter().all(|u| u.len() == dim));
    }

    #[test]
    fn empty_utility_is_class_prior() {
        // Zero model predicts class 0 everywhere; accuracy ≈ 1/classes.
        let config = FlConfig::quick_demo();
        let world = World::generate(&config).unwrap();
        let u0 = world.empty_utility(&config);
        assert!((0.0..0.3).contains(&u0), "zero-model accuracy {u0}");
    }

    #[test]
    fn invalid_config_propagates() {
        let mut config = FlConfig::quick_demo();
        config.rounds = 0;
        assert!(World::generate(&config).is_err());
    }
}
