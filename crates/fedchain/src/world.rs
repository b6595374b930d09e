//! World generation: the experimental universe of Sect. V-A.
//!
//! One [`FlConfig`] deterministically produces the dataset, the 8:2
//! train/test split, the per-owner shards and the quality-noise schedule.
//! Both the on-chain protocol ([`crate::protocol::FlProtocol`]) and the
//! off-chain analyses (ground truth, figures) build their world through
//! this module, so they see **bit-identical data** — a prerequisite for
//! comparing GroupSV against the native ground truth at all.
//!
//! # One gather
//!
//! Three seeded row shuffles place a generated row: the generator's own
//! (`sub_seed("dataset")`), the split's (`sub_seed("split")`) and the
//! shards' (`sub_seed("shards")`). [`World::generate`] draws each exactly
//! as a shuffle-and-copy pipeline would, but composes them as index plans
//! ([`fl_ml::split`]) over the generation-order rows and copies every row
//! once, straight into its owner's shard or the test set; generation row
//! `g` keeps label `g % classes`. The quality noise then runs per shard.
//! The generator's shuffle comes out of the same
//! [`fl_ml::Xoshiro256`] stream as the Gaussian fill and is drawn *after*
//! it: drawing it first, or from another stream, would move every
//! sample of the data set, so the plan takes the generator's order as it
//! is handed out ([`fl_ml::SyntheticDigits::generate_in_order`]).

use fl_ml::dataset::Dataset;
use fl_ml::logreg::LogisticModel;
use fl_ml::noise::apply_quality_schedule;
use fl_ml::split::{shard_rows, split_rows};
use numeric::par;

use crate::config::{clamp_weights, ConfigError, FlConfig};

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
        // Generation row of each dataset row, then of each train / test
        // row, then of each shard row: three shuffles, one plan.
        let (rows, order) = config.data.generate_in_order(config.sub_seed("dataset"));
        let (train, test) = split_rows(&order, config.train_fraction, config.sub_seed("split"));
        let plan = shard_rows(&train, config.num_owners, config.sub_seed("shards"));
        let mut shards: Vec<Dataset> = plan.iter().map(|shard| rows.subset(shard)).collect();
        apply_quality_schedule(&mut shards, config.sigma, config.sub_seed("noise"));
        Ok(Self {
            shards,
            test: rows.subset(&test),
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
    /// Each weight is clamped to `FlConfig::weight_clamp`, as an honest
    /// owner clamps it before encoding, so these are the models the
    /// contract aggregates.
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
        let clamp = config.weight_clamp();
        par::par_map(
            &self.shards,
            par::items_per_lease(owner_flops),
            |_, shard| {
                let design = fl_ml::Design::new(shard);
                let mut update =
                    LogisticModel::train_from(global, &design, &config.train).to_flat();
                clamp_weights(&mut update, clamp);
                update
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
    fn clamped_updates_equal_the_trained_ones_where_the_clamp_does_not_bite() {
        for config in [FlConfig::quick_demo(), FlConfig::paper_setting()] {
            let world = World::generate(&config).unwrap();
            let updates = world.local_updates(&config);
            let clamp = config.weight_clamp();
            let zeros = vec![0.0; (config.data.features + 1) * config.data.classes];
            for (shard, update) in world.shards.iter().zip(&updates) {
                let design = fl_ml::Design::new(shard);
                let trained = LogisticModel::train_from(&zeros, &design, &config.train).to_flat();
                assert!(trained.iter().all(|w| w.abs() < clamp), "the clamp bites");
                let bits = |v: &[f64]| v.iter().map(|w| w.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(update), bits(&trained));
            }
        }
    }

    #[test]
    fn empty_utility_is_class_prior() {
        // Zero model predicts class 0 everywhere; accuracy ≈ 1/classes.
        let config = FlConfig::quick_demo();
        let world = World::generate(&config).unwrap();
        let u0 = world.empty_utility(&config);
        assert!((0.0..0.3).contains(&u0), "zero-model accuracy {u0}");
    }

    /// The pipeline `generate` composes, as it ran before: the shuffled
    /// data set, an 8:2 split and a deal into shards, each step copying
    /// every row, then the quality noise. The oracle.
    fn four_step_world(config: &FlConfig) -> World {
        let shuffled = |n: usize, seed: u64| {
            let mut order: Vec<usize> = (0..n).collect();
            fl_ml::Xoshiro256::seed_from_u64(seed).shuffle(&mut order);
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

    #[test]
    fn one_gather_equals_the_four_step_pipeline() {
        let table1 = FlConfig {
            num_groups: 9,
            sigma: 1.0,
            ..FlConfig::paper_setting()
        };
        // The cohort-sharded benchmark shapes: 16 features, 4 classes.
        let sharded = |owners, cohorts, groups, instances, sigma| {
            let mut config = FlConfig::quick_demo();
            config.num_owners = owners;
            config.num_cohorts = cohorts;
            config.num_groups = groups;
            config.sv_method = crate::config::SvMethod::Stratified {
                samples_per_stratum: 2,
            };
            config.sigma = sigma;
            config.data.instances = instances;
            config.data.features = 16;
            config.data.classes = 4;
            config
        };
        // One training row per owner: 40 of 50 instances.
        let one_row_each = sharded(40, 1, 2, 50, 0.5);
        let shapes = [
            ("table1", table1, 4496),
            ("quick_demo", FlConfig::quick_demo(), 480),
            ("sharded_1k", sharded(1024, 32, 4, 2048, 0.0), 1638),
            ("stream_churn", sharded(32, 4, 2, 1200, 0.5), 960),
            ("one_row_each", one_row_each, 40),
        ];
        for cap in [1usize, 2] {
            par::set_max_threads(cap);
            for (name, config, train_rows) in &shapes {
                let world = World::generate(config).unwrap();
                let oracle = four_step_world(config);
                let rows: Vec<usize> = world.shards.iter().map(Dataset::len).collect();
                assert_eq!(rows.iter().sum::<usize>(), *train_rows, "{name}");
                assert_eq!(
                    rows,
                    oracle.shards.iter().map(Dataset::len).collect::<Vec<_>>(),
                    "{name}: shard sizes"
                );
                // Bit for bit: a `-0.0` differs from a `0.0`.
                let bits = |d: &Dataset| -> Vec<u64> {
                    d.features.as_slice().iter().map(|v| v.to_bits()).collect()
                };
                for (i, (got, want)) in world.shards.iter().zip(&oracle.shards).enumerate() {
                    assert_eq!(
                        got.labels, want.labels,
                        "{name} cap {cap}: shard {i} labels"
                    );
                    assert_eq!(bits(got), bits(want), "{name} cap {cap}: shard {i}");
                }
                assert_eq!(world.test.labels, oracle.test.labels, "{name} cap {cap}");
                assert_eq!(bits(&world.test), bits(&oracle.test), "{name} cap {cap}");
            }
        }
        par::set_max_threads(0);
        // Table I deals 4 496 rows to 9 owners: five shards of 500.
        let table1_rows: Vec<usize> = World::generate(&shapes[0].1)
            .unwrap()
            .shards
            .iter()
            .map(Dataset::len)
            .collect();
        assert_eq!(table1_rows, [500, 500, 500, 500, 500, 499, 499, 499, 499]);
    }

    #[test]
    fn invalid_config_propagates() {
        let mut config = FlConfig::quick_demo();
        config.rounds = 0;
        assert!(World::generate(&config).is_err());
    }
}
