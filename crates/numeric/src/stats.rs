//! Statistical helpers for the evaluation pipeline.
//!
//! The paper's Fig. 2 compares GroupSV against ground-truth Shapley values
//! with *cosine similarity*; the experiment reports additionally need basic
//! summaries (mean, standard deviation, min/max) and rank correlation to
//! judge whether the contribution ordering is preserved. The accuracy
//! utility's argmax check lives here too: [`is_argmax`], row by row.

/// Cosine similarity between two equal-length vectors:
/// `cos θ = (u·v) / (|u||v|)`.
///
/// Returns `None` when either vector has zero norm (the angle is
/// undefined); callers decide how to report that case. The paper's σ=0
/// setting produces near-zero SV vectors, so this edge matters in
/// practice.
///
/// # Panics
///
/// Panics on length mismatch.
pub fn cosine_similarity(u: &[f64], v: &[f64]) -> Option<f64> {
    assert_eq!(u.len(), v.len(), "cosine_similarity length mismatch");
    let dot: f64 = u.iter().zip(v).map(|(a, b)| a * b).sum();
    let nu: f64 = u.iter().map(|a| a * a).sum::<f64>().sqrt();
    let nv: f64 = v.iter().map(|a| a * a).sum::<f64>().sqrt();
    if nu == 0.0 || nv == 0.0 {
        return None;
    }
    Some((dot / (nu * nv)).clamp(-1.0, 1.0))
}

/// Arithmetic mean. Returns 0.0 for an empty slice.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.iter().sum::<f64>() / v.len() as f64
}

/// Population standard deviation. Returns 0.0 for fewer than two samples.
pub fn std_dev(v: &[f64]) -> f64 {
    if v.len() < 2 {
        return 0.0;
    }
    let m = mean(v);
    (v.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / v.len() as f64).sqrt()
}

/// Index of the maximum element (first on ties). `None` when empty or all
/// elements are NaN.
pub fn argmax(v: &[f64]) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (i, &x) in v.iter().enumerate() {
        if x.is_nan() {
            continue;
        }
        match best {
            Some((_, b)) if x <= b => {}
            _ => best = Some((i, x)),
        }
    }
    best.map(|(i, _)| i)
}

/// `argmax(v) == Some(index)` as a branch-free scan, for callers that
/// only ask whether a known index wins (an accuracy pass checks one
/// label per row): `index` is the first maximum iff no earlier element
/// reaches it and no later element exceeds it. Same rules as [`argmax`]:
/// first on ties, NaN elements skipped, a NaN or out-of-range `index`
/// never wins.
#[inline]
pub fn is_argmax(v: &[f64], index: usize) -> bool {
    let Some(&x) = v.get(index) else {
        return false;
    };
    let reached = v[..index].iter().fold(false, |hit, &e| hit | (e >= x));
    let exceeded = v[index + 1..].iter().fold(false, |hit, &e| hit | (e > x));
    !(x.is_nan() | reached | exceeded)
}

/// Granules per lane block of the coalition walk's unlabelled path
/// (`shapley::group`): one 8-lane AVX-512F vector, two 4-lane AVX ones,
/// four 2-lane baseline ones.
pub const BLOCK_ROWS: usize = 8;

/// Ranks of the elements in descending order: `ranks[i]` is the rank
/// (0 = largest) of element `i`. Ties broken by index for determinism.
pub fn descending_ranks(v: &[f64]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..v.len()).collect();
    idx.sort_by(|&a, &b| {
        v[b].partial_cmp(&v[a])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    let mut ranks = vec![0usize; v.len()];
    for (rank, &i) in idx.iter().enumerate() {
        ranks[i] = rank;
    }
    ranks
}

/// Spearman rank correlation between two equal-length vectors.
///
/// Returns `None` for fewer than two elements. Used by the adversary
/// extension experiment to check that GroupSV preserves the *ordering* of
/// contributions even when magnitudes shift.
///
/// # Panics
///
/// Panics on length mismatch.
pub fn spearman_rank_correlation(u: &[f64], v: &[f64]) -> Option<f64> {
    assert_eq!(u.len(), v.len(), "spearman length mismatch");
    let n = u.len();
    if n < 2 {
        return None;
    }
    let ru = descending_ranks(u);
    let rv = descending_ranks(v);
    let d2: f64 = ru
        .iter()
        .zip(&rv)
        .map(|(&a, &b)| {
            let d = a as f64 - b as f64;
            d * d
        })
        .sum();
    let n = n as f64;
    Some(1.0 - 6.0 * d2 / (n * (n * n - 1.0)))
}

/// Summary statistics of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample size.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Minimum value.
    pub min: f64,
    /// Maximum value.
    pub max: f64,
}

impl Summary {
    /// Computes summary statistics. Returns `None` for an empty slice.
    pub fn of(v: &[f64]) -> Option<Self> {
        if v.is_empty() {
            return None;
        }
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for &x in v {
            min = min.min(x);
            max = max.max(x);
        }
        Some(Self {
            count: v.len(),
            mean: mean(v),
            std_dev: std_dev(v),
            min,
            max,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn cosine_identical_vectors_is_one() {
        let v = [1.0, 2.0, 3.0];
        assert!((cosine_similarity(&v, &v).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cosine_opposite_vectors_is_minus_one() {
        let u = [1.0, -2.0];
        let v = [-1.0, 2.0];
        assert!((cosine_similarity(&u, &v).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn cosine_orthogonal_is_zero() {
        let u = [1.0, 0.0];
        let v = [0.0, 5.0];
        assert_eq!(cosine_similarity(&u, &v), Some(0.0));
    }

    #[test]
    fn cosine_zero_vector_is_none() {
        assert_eq!(cosine_similarity(&[0.0, 0.0], &[1.0, 2.0]), None);
        assert_eq!(cosine_similarity(&[1.0, 2.0], &[0.0, 0.0]), None);
    }

    #[test]
    fn mean_and_std() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
        assert_eq!(std_dev(&[5.0]), 0.0);
        assert!((std_dev(&[2.0, 4.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn argmax_handles_edge_cases() {
        assert_eq!(argmax(&[]), None);
        assert_eq!(argmax(&[f64::NAN]), None);
        assert_eq!(argmax(&[1.0, 3.0, 2.0]), Some(1));
        assert_eq!(argmax(&[3.0, 3.0]), Some(0), "ties resolve to first");
        assert_eq!(argmax(&[f64::NAN, 1.0]), Some(1));
    }

    #[test]
    fn is_argmax_agrees_with_argmax_on_ties_nans_and_infinities() {
        let values = [
            f64::NAN,
            f64::NEG_INFINITY,
            -1.0,
            0.0,
            -0.0,
            1.0,
            f64::INFINITY,
        ];
        for &a in &values {
            for &b in &values {
                for &c in &values {
                    let row = [a, b, c];
                    for index in 0..4 {
                        assert_eq!(
                            is_argmax(&row, index),
                            argmax(&row) == Some(index),
                            "{row:?} at {index}"
                        );
                    }
                }
            }
        }
        assert!(!is_argmax(&[], 0));
    }

    #[test]
    fn ranks_descending() {
        assert_eq!(descending_ranks(&[0.1, 0.9, 0.5]), vec![2, 0, 1]);
        assert_eq!(descending_ranks(&[]), Vec::<usize>::new());
    }

    #[test]
    fn spearman_perfect_and_inverted() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [10.0, 20.0, 30.0, 40.0];
        assert!((spearman_rank_correlation(&a, &b).unwrap() - 1.0).abs() < 1e-12);
        let c = [40.0, 30.0, 20.0, 10.0];
        assert!((spearman_rank_correlation(&a, &c).unwrap() + 1.0).abs() < 1e-12);
        assert_eq!(spearman_rank_correlation(&[1.0], &[1.0]), None);
    }

    #[test]
    fn summary_basic() {
        let s = Summary::of(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(s.count, 3);
        assert_eq!(s.mean, 2.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
        assert!(Summary::of(&[]).is_none());
    }

    proptest! {
        #[test]
        fn prop_cosine_bounded(
            u in proptest::collection::vec(-100.0f64..100.0, 2..16),
        ) {
            let v: Vec<f64> = u.iter().map(|x| x * 2.0 + 1.0).collect();
            if let Some(c) = cosine_similarity(&u, &v) {
                prop_assert!((-1.0..=1.0).contains(&c));
            }
        }

        #[test]
        fn prop_cosine_scale_invariant(
            u in proptest::collection::vec(1.0f64..100.0, 2..16),
            k in 0.1f64..50.0,
        ) {
            let v: Vec<f64> = u.iter().map(|x| x * k).collect();
            let c = cosine_similarity(&u, &v).unwrap();
            prop_assert!((c - 1.0).abs() < 1e-9);
        }

        #[test]
        fn prop_ranks_are_permutation(
            v in proptest::collection::vec(-100.0f64..100.0, 1..32)
        ) {
            let mut r = descending_ranks(&v);
            r.sort_unstable();
            prop_assert_eq!(r, (0..v.len()).collect::<Vec<_>>());
        }
    }
}
