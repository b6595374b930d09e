//! The paper's data-quality degradation model.
//!
//! Sect. V-A1: "To simulate different data quality of each data owner, we
//! add Gaussian noise with an increasing sigma, `d_i = d_i + N(0, σ·i)`.
//! As a result, `d_0` has the best data quality, `d_1` has worse data
//! quality, and so on." Owner 0's shard is untouched; owner `i` receives
//! zero-mean Gaussian feature noise with standard deviation `σ·i`.

use crate::dataset::Dataset;
use crate::rng::Xoshiro256;

/// Adds `N(0, std_dev)` noise to every feature of `dataset` in place.
///
/// `std_dev == 0.0` leaves the data bit-identical (no RNG draws), which
/// keeps the σ=0 experiment exactly equal across owners.
pub fn add_gaussian_noise(dataset: &mut Dataset, std_dev: f64, rng: &mut Xoshiro256) {
    assert!(std_dev >= 0.0, "standard deviation must be non-negative");
    if std_dev == 0.0 {
        return;
    }
    // A block of samples at a time: batched draws, nothing on the heap.
    let mut noise = [0.0; 256];
    for block in dataset.features.as_mut_slice().chunks_mut(noise.len()) {
        let noise = &mut noise[..block.len()];
        rng.fill_gaussian(noise);
        for (v, &g) in block.iter_mut().zip(&*noise) {
            *v += std_dev * g;
        }
    }
}

/// Applies the paper's owner-indexed schedule: owner `i`'s shard gets
/// noise with `σ·i`.
///
/// A fresh, deterministic sub-generator is derived per owner so that the
/// result does not depend on the iteration order of earlier owners.
pub fn apply_quality_schedule(shards: &mut [Dataset], sigma: f64, seed: u64) {
    assert!(sigma >= 0.0, "sigma must be non-negative");
    for (i, shard) in shards.iter_mut().enumerate() {
        let mut rng = Xoshiro256::seed_from_u64(seed ^ (0x9e37_79b9 + i as u64));
        add_gaussian_noise(shard, sigma * i as f64, &mut rng);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::SyntheticDigits;

    fn shards(n: usize) -> Vec<Dataset> {
        let ds = SyntheticDigits::small().generate(1);
        let per = ds.len() / n;
        (0..n)
            .map(|i| ds.subset(&(i * per..(i + 1) * per).collect::<Vec<_>>()))
            .collect()
    }

    #[test]
    fn zero_sigma_is_identity() {
        let mut s = shards(3);
        let before = s.clone();
        apply_quality_schedule(&mut s, 0.0, 42);
        assert_eq!(s, before);
    }

    #[test]
    fn owner_zero_untouched_even_with_noise() {
        let mut s = shards(3);
        let before = s[0].clone();
        apply_quality_schedule(&mut s, 2.0, 42);
        assert_eq!(s[0], before, "owner 0 has σ·0 = 0 noise");
        assert_ne!(s[1].features, before.features);
    }

    #[test]
    fn noise_magnitude_increases_with_owner_index() {
        let clean = shards(5);
        let mut noisy = clean.clone();
        apply_quality_schedule(&mut noisy, 1.0, 7);
        let mut deviations = Vec::new();
        for (c, n) in clean.iter().zip(&noisy) {
            let dev: f64 = c
                .features
                .as_slice()
                .iter()
                .zip(n.features.as_slice())
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>()
                / c.features.as_slice().len() as f64;
            deviations.push(dev.sqrt());
        }
        for i in 1..deviations.len() {
            assert!(
                deviations[i] > deviations[i - 1],
                "owner {i} must be noisier than owner {}: {deviations:?}",
                i - 1
            );
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = shards(3);
        let mut b = shards(3);
        apply_quality_schedule(&mut a, 1.5, 11);
        apply_quality_schedule(&mut b, 1.5, 11);
        assert_eq!(a, b);
        let mut c = shards(3);
        apply_quality_schedule(&mut c, 1.5, 12);
        assert_ne!(a[1], c[1]);
    }

    #[test]
    fn schedule_equals_the_spelled_out_per_element_loop_at_every_cap() {
        let clean = shards(4);
        let (sigma, seed) = (0.75, 5);
        let mut expected = clean.clone();
        for (i, shard) in expected.iter_mut().enumerate().skip(1) {
            let mut rng = Xoshiro256::seed_from_u64(seed ^ (0x9e37_79b9 + i as u64));
            for v in shard.features.as_mut_slice() {
                *v += rng.next_gaussian_with(0.0, sigma * i as f64);
            }
        }
        for cap in [1usize, 2, 3, 8] {
            numeric::par::set_max_threads(cap);
            let mut noisy = clean.clone();
            apply_quality_schedule(&mut noisy, sigma, seed);
            for (got, want) in noisy.iter().zip(&expected) {
                let bits = |d: &Dataset| -> Vec<u64> {
                    d.features.as_slice().iter().map(|x| x.to_bits()).collect()
                };
                assert_eq!(bits(got), bits(want), "cap {cap}");
            }
        }
        numeric::par::set_max_threads(0);
    }

    #[test]
    fn labels_never_touched() {
        let mut s = shards(4);
        let labels_before: Vec<Vec<usize>> = s.iter().map(|d| d.labels.clone()).collect();
        apply_quality_schedule(&mut s, 3.0, 1);
        let labels_after: Vec<Vec<usize>> = s.iter().map(|d| d.labels.clone()).collect();
        assert_eq!(labels_before, labels_after);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_sigma_panics() {
        let mut s = shards(2);
        apply_quality_schedule(&mut s, -1.0, 0);
    }
}
