//! Train/test splitting and per-owner sharding, as row plans.
//!
//! Paper Sect. V-A1: "We randomly split the dataset into a training
//! dataset and a testing dataset with a ratio of 8:2 and randomly split
//! the training dataset into 9 subsets to simulate 9 data owners."
//!
//! Both steps are index plans: they shuffle and cut a list of row
//! indices and copy no data. Each maps its own seeded shuffle through the
//! rows it is given, so plans compose — handing [`split_rows`] the
//! generator's row order and [`shard_rows`] the split's training rows
//! yields, for every shard and the test set, the generation-order rows to
//! copy, once each (`fedchain::world` builds its world that way).

use crate::rng::Xoshiro256;

/// Randomly splits `rows` with `train_fraction` going to training:
/// after a seeded shuffle of the positions `0..rows.len()`, the first
/// [`train_len`] positions train and the rest test. Returns the rows at
/// those positions, `(train, test)`.
///
/// # Panics
///
/// Panics unless `0 < train_fraction < 1` and both sides end up
/// non-empty.
pub fn split_rows(rows: &[usize], train_fraction: f64, seed: u64) -> (Vec<usize>, Vec<usize>) {
    assert!(
        (0.0..1.0).contains(&train_fraction) && train_fraction > 0.0,
        "train_fraction must be in (0, 1), got {train_fraction}"
    );
    let n = rows.len();
    let n_train = train_len(n, train_fraction);
    assert!(
        n_train > 0 && n_train < n,
        "split produced an empty side (n={n}, train={n_train})"
    );
    let mut train = shuffled(rows, seed);
    let test = train.split_off(n_train);
    (train, test)
}

/// Rows [`split_rows`] sends to training out of `n`: `n ·
/// train_fraction`, rounded. A configuration checks its split against
/// this before it generates anything.
pub fn train_len(n: usize, train_fraction: f64) -> usize {
    ((n as f64) * train_fraction).round() as usize
}

/// Deals `rows` into `owners` near-equal shards after a seeded shuffle
/// of their positions. The first `rows.len() % owners` shards receive one
/// extra row.
///
/// # Panics
///
/// Panics if `owners == 0` or `owners > rows.len()`.
pub fn shard_rows(rows: &[usize], owners: usize, seed: u64) -> Vec<Vec<usize>> {
    assert!(owners > 0, "need at least one owner");
    assert!(
        owners <= rows.len(),
        "more owners ({owners}) than examples ({})",
        rows.len()
    );
    let n = rows.len();
    let order = shuffled(rows, seed);
    let (base, extra) = (n / owners, n % owners);
    let mut rest = order.as_slice();
    let shards = (0..owners)
        .map(|i| {
            let (shard, tail) = rest.split_at(base + usize::from(i < extra));
            rest = tail;
            shard.to_vec()
        })
        .collect();
    debug_assert!(rest.is_empty());
    shards
}

/// `rows` at the positions of a seeded shuffle of `0..rows.len()`.
fn shuffled(rows: &[usize], seed: u64) -> Vec<usize> {
    let order = Xoshiro256::seed_from_u64(seed).permutation(rows.len());
    order.into_iter().map(|k| rows[k]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<usize> {
        (0..600).collect()
    }

    #[test]
    fn split_ratio_respected() {
        let (train, test) = split_rows(&rows(), 0.8, 42);
        assert_eq!(train.len(), 480);
        assert_eq!(test.len(), 120);
    }

    #[test]
    fn split_is_partition() {
        let (mut all, test) = split_rows(&rows(), 0.8, 42);
        all.extend(test);
        all.sort_unstable();
        assert_eq!(all, rows(), "every row on exactly one side");
    }

    #[test]
    fn split_deterministic() {
        let a = split_rows(&rows(), 0.8, 7);
        assert_eq!(a, split_rows(&rows(), 0.8, 7));
        assert_ne!(a.0, split_rows(&rows(), 0.8, 8).0);
    }

    #[test]
    fn plans_map_their_shuffle_through_the_given_rows() {
        // A plan over relabelled rows is the plan over positions,
        // relabelled: what lets `World::generate` compose three shuffles.
        let relabel: Vec<usize> = (0..600).map(|k| 1000 + 7 * k).collect();
        let map = |v: &[usize]| v.iter().map(|&k| relabel[k]).collect::<Vec<_>>();
        let (train, test) = split_rows(&rows(), 0.8, 5);
        let (rtrain, rtest) = split_rows(&relabel, 0.8, 5);
        assert_eq!((map(&train), map(&test)), (rtrain.clone(), rtest));
        let shards = shard_rows(&train, 9, 6);
        let rshards = shard_rows(&rtrain, 9, 6);
        assert_eq!(shards.iter().map(|s| map(s)).collect::<Vec<_>>(), rshards);
    }

    #[test]
    #[should_panic(expected = "train_fraction")]
    fn bad_fraction_panics() {
        let _ = split_rows(&rows(), 1.5, 0);
    }

    #[test]
    fn shards_cover_everything() {
        let shards = shard_rows(&rows(), 9, 3);
        assert_eq!(shards.len(), 9);
        // The first 600 % 9 = 6 shards take one row more.
        let sizes: Vec<usize> = shards.iter().map(Vec::len).collect();
        assert_eq!(sizes, [67, 67, 67, 67, 67, 67, 66, 66, 66]);
        let mut all = shards.concat();
        all.sort_unstable();
        assert_eq!(all, rows());
    }

    #[test]
    fn shard_deterministic() {
        assert_eq!(shard_rows(&rows(), 5, 9), shard_rows(&rows(), 5, 9));
        assert_ne!(shard_rows(&rows(), 5, 9), shard_rows(&rows(), 5, 10));
    }

    #[test]
    #[should_panic(expected = "at least one owner")]
    fn zero_owners_panics() {
        let _ = shard_rows(&rows(), 0, 0);
    }

    #[test]
    #[should_panic(expected = "more owners")]
    fn too_many_owners_panics() {
        let _ = shard_rows(&[0, 1, 2], 10, 0);
    }
}
