//! The four workloads and how one `--seed` fans out into per-op
//! configurations. The program under test receives only the generated
//! [`FlConfig`]; everything seed-dependent is derived here.

use fedchain::config::{FlConfig, SvMethod};
use fl_ml::dataset::SyntheticDigits;

/// One benchmark workload: a configuration shape, the thread cap it
/// runs under (the cap is part of the workload), and why it exists.
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// `numeric::par` thread cap the timed ops run under; clamped to
    /// the machine's core count at run time.
    pub cap: usize,
    /// Why the workload was chosen (mirrored in `BENCHMARK.json`).
    pub why: &'static str,
    /// Test accuracy the final global model must reach on every op.
    pub min_accuracy: f64,
    /// The configuration, before seeds are applied.
    shape: fn() -> FlConfig,
}

/// Table I's flat digits configuration (n = 9, 5620×64 → dim 650, 30
/// epochs, every owner mines), with the σ = 1 quality-noise schedule.
fn table1(num_groups: usize, rounds: u64) -> FlConfig {
    FlConfig {
        num_groups,
        rounds,
        sigma: 1.0,
        ..FlConfig::paper_setting()
    }
}

/// The narrow-model, 4-miner-committee, stratified-SV shape of the
/// cohort-sharded rounds (16 features × 4 classes).
fn sharded(
    owners: usize,
    cohorts: usize,
    groups: usize,
    instances: usize,
    epochs: usize,
) -> FlConfig {
    let mut config = FlConfig::quick_demo();
    config.num_owners = owners;
    config.num_cohorts = cohorts;
    config.num_groups = groups;
    config.miner_committee = 4;
    config.sv_method = SvMethod::Stratified {
        samples_per_stratum: 2,
    };
    config.data = SyntheticDigits {
        instances,
        features: 16,
        classes: 4,
        ..SyntheticDigits::default()
    };
    config.train.epochs = epochs;
    config
}

fn table1_train() -> FlConfig {
    table1(3, 3)
}

fn table1_sv() -> FlConfig {
    // A committee of three, not all nine owners: with eight verifiers
    // the op takes 1.4 s and a run's quartiles rest on a dozen samples.
    FlConfig {
        miner_committee: 3,
        ..table1(9, 1)
    }
}

fn sharded_1k() -> FlConfig {
    sharded(1024, 32, 4, 2048, 4)
}

fn stream_churn() -> FlConfig {
    let mut config = sharded(32, 4, 2, 1200, 6);
    config.rounds = 20;
    config.dropout_schedule = vec![
        (2, vec![3]),
        (5, vec![7, 20]),
        (9, vec![11]),
        (13, vec![1, 30]),
        (17, vec![25]),
    ];
    config
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "table1_train",
        cap: 1,
        why: "Table I cheap-SV end: 9 owners x 3 rounds of dim-650 local training dominate, SV is 2^3 evaluations; GEMM/training/block-size changes show here, SV-evaluation changes must not",
        min_accuracy: 0.75,
        shape: table1_train,
    },
    Workload {
        name: "table1_sv",
        cap: 1,
        why: "Table I full-resolution end: 2^9 exact utility evaluations re-executed by leader + 2 verifiers dominate, training is small; same layers as table1_train, opposite mix",
        min_accuracy: 0.75,
        shape: table1_sv,
    },
    Workload {
        name: "sharded_1k",
        cap: 2,
        why: "1024 owners in 32 cohorts, one round: 7168 cold DH agreements (every pair secret a cache miss), 33 streamed bundles x 4 miners, sampled two-level SV; crypto, mempool and fan-out changes show here",
        // 1.6 training rows per owner and a single round: how well the
        // model does depends on how separable the seed's centroids are
        // (0.23-1.0 over 400 seeds, where the zero model scores 0.25),
        // so no floor holds on every seed; accuracy is only required to
        // be a valid fraction here.
        min_accuracy: 0.0,
        shape: sharded_1k,
    },
    Workload {
        name: "stream_churn",
        cap: 2,
        why: "20 pipelined rounds of 32 owners, 7 dropouts: 86 small blocks, WAL flushes, snapshots, Shamir recovery; per-block overhead shows here, pair secrets mostly hit the cache so a DH speed-up must not",
        min_accuracy: 0.75,
        shape: stream_churn,
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The configuration of op `index` under `--seed seed`: the shape
    /// with its world and permutation seeds derived from
    /// `(seed, workload, index)`.
    pub fn config(&self, seed: u64, index: u64) -> FlConfig {
        let mut config = (self.shape)();
        config.world_seed = derive_seed(seed, self.name, index, "world");
        config.permutation_seed = derive_seed(seed, self.name, index, "permutation");
        config
    }
}

/// Op index of the untimed warm-up op (and of the thread-cap
/// cross-check that re-runs it); timed ops count up from zero.
pub const WARMUP_INDEX: u64 = u64::MAX;

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// One 64-bit seed per `(seed, workload, op index, purpose)`: the
/// strings are absorbed byte by byte (with a separator) through
/// splitmix64, then the index.
pub fn derive_seed(seed: u64, workload: &str, index: u64, purpose: &str) -> u64 {
    let mut h = splitmix64(seed);
    for byte in workload.bytes().chain([0xff]).chain(purpose.bytes()) {
        h = splitmix64(h ^ u64::from(byte));
    }
    splitmix64(h ^ splitmix64(index))
}

/// Blocks a run of `config` must commit: the setup block, one block per
/// cohort per round, and one recovery block per churned round.
pub fn expected_blocks(config: &FlConfig) -> u64 {
    let churned = (0..config.rounds)
        .filter(|&r| !config.dropped_in_round(r).is_empty())
        .count() as u64;
    1 + config.rounds * config.num_cohorts as u64 + churned
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn every_workload_shape_validates_and_is_named_once() {
        let mut names = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(names.insert(w.name), "{} listed twice", w.name);
            assert!(w.why.len() <= 200, "{}: why exceeds 200 chars", w.name);
            assert!(!w.why.contains('\n'));
            w.config(1, 0).validate().expect(w.name);
            assert!(Workload::by_name(w.name).is_some());
        }
        assert!(Workload::by_name("nope").is_none());
    }

    #[test]
    fn block_counts_follow_the_shapes() {
        let blocks = |name: &str| expected_blocks(&Workload::by_name(name).unwrap().config(1, 0));
        assert_eq!(blocks("table1_train"), 4);
        assert_eq!(blocks("table1_sv"), 2);
        assert_eq!(blocks("sharded_1k"), 33);
        assert_eq!(blocks("stream_churn"), 86);
    }

    #[test]
    fn seed_derivation_is_deterministic_and_distinct() {
        assert_eq!(
            derive_seed(42, "table1_sv", 3, "world"),
            derive_seed(42, "table1_sv", 3, "world")
        );
        let mut seen = BTreeSet::new();
        for seed in [0u64, 1, 42, u64::MAX] {
            for w in &WORKLOADS {
                for index in [0u64, 1, 2, 99, WARMUP_INDEX] {
                    for purpose in ["world", "permutation"] {
                        assert!(
                            seen.insert(derive_seed(seed, w.name, index, purpose)),
                            "collision at ({seed}, {}, {index}, {purpose})",
                            w.name
                        );
                    }
                }
            }
        }
        // Strings are separated, not concatenated.
        assert_ne!(derive_seed(1, "ab", 0, "c"), derive_seed(1, "a", 0, "bc"));
        let config = WORKLOADS[0].config(7, 5);
        assert_eq!(
            config.world_seed,
            derive_seed(7, "table1_train", 5, "world")
        );
        assert_ne!(config.world_seed, config.permutation_seed);
    }
}
