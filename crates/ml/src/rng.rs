//! Deterministic random number generation for data synthesis.
//!
//! Uses xoshiro256** (Blackman & Vigna) seeded through splitmix64 — a
//! fixed, documented algorithm, so datasets regenerate identically on any
//! platform and any crate version. `rand`'s `StdRng` explicitly reserves
//! the right to change algorithms between versions, which would silently
//! break the golden values in the experiment suite; the ML layer therefore
//! owns its generator.
//!
//! "On any platform" covers the Gaussian samples too, and only because
//! Box–Muller's `ln` and `cos` are [`numeric::math`]'s: integer draws and
//! the `[0, 1)` conversion were always exact, but while the two
//! transcendental calls were the host libm's, a data set was pinned to
//! that libm's last-place rounding, not to this file.
//!
//! This generator is for *simulation randomness* (data, shuffles, noise).
//! Cryptographic masks use `fl-crypto`'s ChaCha20 instead.

use numeric::math;

/// xoshiro256** pseudorandom generator.
#[derive(Debug, Clone)]
pub struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    /// Seeds the generator; any `u64` (including 0) is a valid seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        // splitmix64 expansion, per the xoshiro reference implementation.
        let mut sm = seed;
        let mut next_sm = || {
            sm = sm.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let s = [next_sm(), next_sm(), next_sm(), next_sm()];
        Self { s }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)` using the high 53 bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)` by rejection sampling.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        let zone = u64::MAX - (u64::MAX % bound);
        loop {
            let v = self.next_u64();
            if v < zone {
                return v % bound;
            }
        }
    }

    /// The two uniforms one Box–Muller sample consumes, `u1 ∈ (0, 1)`
    /// first (nudged away from zero, where `ln` has its pole), then
    /// `u2 ∈ [0, 1)`.
    fn box_muller_uniforms(&mut self) -> (f64, f64) {
        let u1 = self.next_f64().max(f64::MIN_POSITIVE);
        (u1, self.next_f64())
    }

    /// Fills `out` with standard normal samples via Box–Muller.
    ///
    /// Element `i` consumes its two uniforms in element order — the
    /// stream [`Xoshiro256::next_gaussian`] called `out.len()` times
    /// consumes, and the same samples bit for bit. The uniforms are drawn
    /// a block at a time into two stack buffers and each block goes
    /// through one [`numeric::math::box_muller`] pass.
    pub fn fill_gaussian(&mut self, out: &mut [f64]) {
        const BLOCK: usize = 256;
        let mut u1 = [0.0; BLOCK];
        let mut u2 = [0.0; BLOCK];
        for block in out.chunks_mut(BLOCK) {
            let (u1, u2) = (&mut u1[..block.len()], &mut u2[..block.len()]);
            for (a, b) in u1.iter_mut().zip(u2.iter_mut()) {
                (*a, *b) = self.box_muller_uniforms();
            }
            math::box_muller(u1, u2, block);
        }
    }

    /// Standard normal sample via Box–Muller: the pass
    /// [`Xoshiro256::fill_gaussian`] runs, over one element.
    pub fn next_gaussian(&mut self) -> f64 {
        let (u1, u2) = self.box_muller_uniforms();
        let mut sample = [0.0];
        math::box_muller(&[u1], &[u2], &mut sample);
        sample[0]
    }

    /// Normal sample with the given mean and standard deviation.
    pub fn next_gaussian_with(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.next_gaussian()
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.next_below(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }

    /// Deterministic permutation of `0..n`, the paper's
    /// `permutation(e, r, I)` with `seed` already combining `e` and `r`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..n).collect();
        self.shuffle(&mut idx);
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = Xoshiro256::seed_from_u64(1);
        let mut b = Xoshiro256::seed_from_u64(1);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn seeds_diverge() {
        let mut a = Xoshiro256::seed_from_u64(1);
        let mut b = Xoshiro256::seed_from_u64(2);
        let va: Vec<u64> = (0..4).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..4).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn zero_seed_is_usable() {
        let mut r = Xoshiro256::seed_from_u64(0);
        // splitmix expansion guarantees a nonzero state even for seed 0.
        assert_ne!(r.next_u64(), r.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Xoshiro256::seed_from_u64(3);
        for _ in 0..1000 {
            let v = r.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn bounded_values_in_range() {
        let mut r = Xoshiro256::seed_from_u64(4);
        for bound in [1u64, 2, 3, 10, 1000] {
            for _ in 0..100 {
                assert!(r.next_below(bound) < bound);
            }
        }
    }

    #[test]
    fn gaussian_moments_roughly_standard() {
        let mut r = Xoshiro256::seed_from_u64(5);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| r.next_gaussian()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean} too far from 0");
        assert!((var - 1.0).abs() < 0.1, "variance {var} too far from 1");
    }

    #[test]
    fn fill_gaussian_equals_repeated_next_gaussian_and_leaves_the_same_state() {
        // Lengths on both sides of the 256-sample block and its vector
        // tails, at every thread cap (no draw may depend on it).
        for cap in [1usize, 2, 3, 8] {
            numeric::par::set_max_threads(cap);
            for len in 0..=600 {
                let mut batch = Xoshiro256::seed_from_u64(len as u64);
                let mut single = batch.clone();
                let mut filled = vec![0.0; len];
                batch.fill_gaussian(&mut filled);
                for (i, g) in filled.iter().enumerate() {
                    let want = single.next_gaussian();
                    assert_eq!(g.to_bits(), want.to_bits(), "cap {cap} len {len} [{i}]");
                }
                assert_eq!(batch.s, single.s, "cap {cap} len {len}: generator state");
            }
        }
        numeric::par::set_max_threads(0);
    }

    #[test]
    fn next_gaussian_is_box_muller_over_the_owned_functions() {
        let mut r = Xoshiro256::seed_from_u64(21);
        let mut uniforms = r.clone();
        for _ in 0..1000 {
            let u1 = uniforms.next_f64().max(f64::MIN_POSITIVE);
            let u2 = uniforms.next_f64();
            let want = (-2.0 * math::ln(u1)).sqrt() * math::cos_2pi(u2);
            assert_eq!(r.next_gaussian().to_bits(), want.to_bits());
        }
    }

    #[test]
    fn gaussian_with_parameters() {
        let mut r = Xoshiro256::seed_from_u64(6);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| r.next_gaussian_with(10.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.1);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = Xoshiro256::seed_from_u64(7);
        let mut v: Vec<usize> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(
            v,
            (0..100).collect::<Vec<_>>(),
            "shuffle must move elements"
        );
    }

    #[test]
    fn permutation_deterministic() {
        let p1 = Xoshiro256::seed_from_u64(8).permutation(20);
        let p2 = Xoshiro256::seed_from_u64(8).permutation(20);
        assert_eq!(p1, p2);
        let p3 = Xoshiro256::seed_from_u64(9).permutation(20);
        assert_ne!(p1, p3);
    }

    #[test]
    fn empty_and_single_shuffle() {
        let mut r = Xoshiro256::seed_from_u64(10);
        let mut empty: Vec<u8> = vec![];
        r.shuffle(&mut empty);
        let mut one = vec![42];
        r.shuffle(&mut one);
        assert_eq!(one, vec![42]);
    }
}
