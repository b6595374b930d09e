//! Train/test splitting and per-owner sharding.
//!
//! Paper Sect. V-A1: "We randomly split the dataset into a training
//! dataset and a testing dataset with a ratio of 8:2 and randomly split
//! the training dataset into 9 subsets to simulate 9 data owners."

use crate::dataset::Dataset;
use crate::rng::Xoshiro256;

/// A train/test partition.
#[derive(Debug, Clone)]
pub struct TrainTestSplit {
    /// Training portion.
    pub train: Dataset,
    /// Held-out test portion (the utility function evaluates on this).
    pub test: Dataset,
}

/// Randomly splits `dataset` with `train_fraction` going to training.
///
/// # Panics
///
/// Panics unless `0 < train_fraction < 1` and both sides end up
/// non-empty.
pub fn train_test_split(dataset: &Dataset, train_fraction: f64, seed: u64) -> TrainTestSplit {
    assert!(
        (0.0..1.0).contains(&train_fraction) && train_fraction > 0.0,
        "train_fraction must be in (0, 1), got {train_fraction}"
    );
    let n = dataset.len();
    let n_train = train_len(n, train_fraction);
    assert!(
        n_train > 0 && n_train < n,
        "split produced an empty side (n={n}, train={n_train})"
    );
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = Xoshiro256::seed_from_u64(seed);
    rng.shuffle(&mut order);
    TrainTestSplit {
        train: dataset.subset(&order[..n_train]),
        test: dataset.subset(&order[n_train..]),
    }
}

/// Examples [`train_test_split`] sends to training out of `n`: `n ·
/// train_fraction`, rounded. A configuration checks its split against
/// this before it generates anything.
pub fn train_len(n: usize, train_fraction: f64) -> usize {
    ((n as f64) * train_fraction).round() as usize
}

/// Splits `dataset` into `owners` near-equal shards after a seeded
/// shuffle. The first `len % owners` shards receive one extra example.
///
/// # Panics
///
/// Panics if `owners == 0` or `owners > dataset.len()`.
pub fn shard_for_owners(dataset: &Dataset, owners: usize, seed: u64) -> Vec<Dataset> {
    assert!(owners > 0, "need at least one owner");
    assert!(
        owners <= dataset.len(),
        "more owners ({owners}) than examples ({})",
        dataset.len()
    );
    let n = dataset.len();
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = Xoshiro256::seed_from_u64(seed);
    rng.shuffle(&mut order);

    let base = n / owners;
    let extra = n % owners;
    let mut shards = Vec::with_capacity(owners);
    let mut offset = 0;
    for i in 0..owners {
        let size = base + usize::from(i < extra);
        shards.push(dataset.subset(&order[offset..offset + size]));
        offset += size;
    }
    debug_assert_eq!(offset, n);
    shards
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::SyntheticDigits;

    fn data() -> Dataset {
        SyntheticDigits::small().generate(1)
    }

    #[test]
    fn split_ratio_respected() {
        let ds = data();
        let split = train_test_split(&ds, 0.8, 42);
        assert_eq!(split.train.len(), 480);
        assert_eq!(split.test.len(), 120);
    }

    #[test]
    fn split_is_partition() {
        let ds = data();
        let split = train_test_split(&ds, 0.8, 42);
        assert_eq!(split.train.len() + split.test.len(), ds.len());
        // No example in both sides: compare row contents via a simple sum
        // signature (features are continuous, collisions implausible).
        let sig = |d: &Dataset| -> Vec<u64> {
            (0..d.len())
                .map(|i| {
                    d.features
                        .row(i)
                        .iter()
                        .map(|v| v.to_bits())
                        .fold(0u64, |a, b| a.wrapping_mul(31).wrapping_add(b))
                })
                .collect()
        };
        let train_sigs = sig(&split.train);
        let test_sigs = sig(&split.test);
        for t in &test_sigs {
            assert!(!train_sigs.contains(t), "example leaked across the split");
        }
    }

    #[test]
    fn split_deterministic() {
        let ds = data();
        let a = train_test_split(&ds, 0.8, 7);
        let b = train_test_split(&ds, 0.8, 7);
        assert_eq!(a.train, b.train);
        assert_eq!(a.test, b.test);
        let c = train_test_split(&ds, 0.8, 8);
        assert_ne!(a.train, c.train);
    }

    #[test]
    #[should_panic(expected = "train_fraction")]
    fn bad_fraction_panics() {
        let _ = train_test_split(&data(), 1.5, 0);
    }

    #[test]
    fn shards_cover_everything() {
        let ds = data();
        let shards = shard_for_owners(&ds, 9, 3);
        assert_eq!(shards.len(), 9);
        let total: usize = shards.iter().map(Dataset::len).sum();
        assert_eq!(total, ds.len());
        // Sizes differ by at most one.
        let min = shards.iter().map(Dataset::len).min().unwrap();
        let max = shards.iter().map(Dataset::len).max().unwrap();
        assert!(max - min <= 1);
    }

    #[test]
    fn shard_deterministic() {
        let ds = data();
        assert_eq!(
            shard_for_owners(&ds, 5, 9)[2],
            shard_for_owners(&ds, 5, 9)[2]
        );
    }

    #[test]
    #[should_panic(expected = "at least one owner")]
    fn zero_owners_panics() {
        let _ = shard_for_owners(&data(), 0, 0);
    }

    #[test]
    #[should_panic(expected = "more owners")]
    fn too_many_owners_panics() {
        let small = data().subset(&[0, 1, 2]);
        let _ = shard_for_owners(&small, 10, 0);
    }
}
