//! Statistical helpers for the evaluation pipeline.
//!
//! The paper's Fig. 2 compares GroupSV against ground-truth Shapley values
//! with *cosine similarity*; the experiment reports additionally need basic
//! summaries (mean, standard deviation, min/max) and rank correlation to
//! judge whether the contribution ordering is preserved. The accuracy
//! utility's argmax checks live here too: [`is_argmax`] row by row, and
//! [`block_hits`] eight interleaved rows a vector, for the coalition
//! walk's lane-compiled tally.

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

/// Rows per block of [`block_hits`]: one 8-lane AVX-512F vector, two
/// 4-lane AVX ones, four 2-lane baseline ones.
pub const BLOCK_ROWS: usize = 8;

/// How many rows of `blocks` have their first maximum at their label —
/// [`is_argmax`] per row, [`BLOCK_ROWS`] rows a step.
///
/// `blocks` holds rows of `classes` scores in interleaved blocks of
/// [`BLOCK_ROWS`] rows, class-major within a block: `blocks[b ·
/// BLOCK_ROWS · classes + c · BLOCK_ROWS + lane]` is class `c` of row
/// `lane` of block `b`. `labels(b)` gives the labels of block `b`'s rows
/// as `f64`, one per lane; a lane whose label is no class index (`-1.0`
/// for a padding lane) never counts, whatever its scores. Elements past
/// the last whole block are ignored.
///
/// Each lane folds the row's first maximum class by class — the first
/// non-NaN score, then each later one that exceeds the maximum so far —
/// and counts when that class is the label and its score is not NaN:
/// exactly [`is_argmax`], one lane per row, lanes never interacting. For
/// 2 to 16 classes the fold is compiled per class count, so each class is
/// two compares and two selects a vector, unrolled; other counts check
/// the rows one at a time through [`is_argmax`]. A count is exact, so neither the
/// instantiation ([`crate::isa`]) nor the order of the blocks moves it.
#[inline(always)]
pub fn block_hits(
    blocks: &[f64],
    classes: usize,
    labels: impl Fn(usize) -> [f64; BLOCK_ROWS],
) -> usize {
    match classes {
        2 => lane_hits::<2>(blocks, labels),
        3 => lane_hits::<3>(blocks, labels),
        4 => lane_hits::<4>(blocks, labels),
        5 => lane_hits::<5>(blocks, labels),
        6 => lane_hits::<6>(blocks, labels),
        7 => lane_hits::<7>(blocks, labels),
        8 => lane_hits::<8>(blocks, labels),
        9 => lane_hits::<9>(blocks, labels),
        10 => lane_hits::<10>(blocks, labels),
        11 => lane_hits::<11>(blocks, labels),
        12 => lane_hits::<12>(blocks, labels),
        13 => lane_hits::<13>(blocks, labels),
        14 => lane_hits::<14>(blocks, labels),
        15 => lane_hits::<15>(blocks, labels),
        16 => lane_hits::<16>(blocks, labels),
        _ => row_hits(blocks, classes, labels),
    }
}

/// [`block_hits`] for `C` classes: the first-maximum fold down each
/// block's class rows, eight lanes abreast.
#[inline(always)]
fn lane_hits<const C: usize>(blocks: &[f64], labels: impl Fn(usize) -> [f64; BLOCK_ROWS]) -> usize {
    let (lanes, _) = blocks.as_chunks::<BLOCK_ROWS>();
    let mut hits = 0;
    for (b, block) in lanes.chunks_exact(C).enumerate() {
        let mut best = block[0];
        let mut first = [0.0; BLOCK_ROWS];
        for (c, scores) in block.iter().enumerate().skip(1) {
            for lane in 0..BLOCK_ROWS {
                let v = scores[lane];
                // Above the maximum so far, or the first score that is
                // not NaN: `!(v <= NaN)` holds for every `v`, and the
                // negated compare is one unordered compare a vector.
                #[allow(clippy::neg_cmp_op_on_partial_ord)]
                let take = !(v <= best[lane]) & !v.is_nan();
                best[lane] = if take { v } else { best[lane] };
                first[lane] = if take { c as f64 } else { first[lane] };
            }
        }
        let labels = labels(b);
        for lane in 0..BLOCK_ROWS {
            hits += usize::from((first[lane] == labels[lane]) & !best[lane].is_nan());
        }
    }
    hits
}

/// [`block_hits`] for a class count without a compiled fold: each lane's
/// row gathered and checked by [`is_argmax`].
fn row_hits(blocks: &[f64], classes: usize, labels: impl Fn(usize) -> [f64; BLOCK_ROWS]) -> usize {
    if classes == 0 {
        return 0;
    }
    let mut row = vec![0.0; classes];
    let mut hits = 0;
    for (b, block) in blocks.chunks_exact(BLOCK_ROWS * classes).enumerate() {
        for (lane, label) in labels(b).into_iter().enumerate() {
            for (c, score) in row.iter_mut().enumerate() {
                *score = block[c * BLOCK_ROWS + lane];
            }
            // `-1.0`, NaN and fractions convert to an index that differs.
            let index = label as usize;
            hits += usize::from(index as f64 == label && is_argmax(&row, index));
        }
    }
    hits
}

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
    use crate::isa::{Isa, Kernel};
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

    /// [`block_hits`] compiled into `isa`'s instantiation, over rows laid
    /// out as the coalition walk hands them: `labels` one per row, the
    /// last block padded with zero scores and `-1.0` labels.
    fn block_hits_on(isa: Isa, rows: &[Vec<f64>], labels: &[f64]) -> usize {
        struct Count<'a> {
            blocks: &'a [f64],
            classes: usize,
            labels: &'a [f64],
            hits: &'a mut usize,
        }
        impl Kernel for Count<'_> {
            #[inline(always)]
            fn run<const LANES: usize>(self) {
                let labels = self.labels;
                *self.hits = block_hits(self.blocks, self.classes, |b| {
                    std::array::from_fn(|lane| labels[b * BLOCK_ROWS + lane])
                });
            }
        }
        let classes = rows[0].len();
        let padded = rows.len().div_ceil(BLOCK_ROWS) * BLOCK_ROWS;
        let mut blocks = vec![0.0; padded * classes];
        for (r, row) in rows.iter().enumerate() {
            for (c, &score) in row.iter().enumerate() {
                blocks[r / BLOCK_ROWS * BLOCK_ROWS * classes + c * BLOCK_ROWS + r % BLOCK_ROWS] =
                    score;
            }
        }
        let mut lane_labels = labels.to_vec();
        lane_labels.resize(padded, -1.0);
        let mut hits = 0;
        isa.run(Count {
            blocks: &blocks,
            classes,
            labels: &lane_labels,
            hits: &mut hits,
        });
        hits
    }

    /// Rows of `classes` scores drawn from few values — so rows tie — with
    /// NaN, `±0.0` and `±∞` among them, and a label per row; some rows
    /// tie the label with the maximum of the others placed before it,
    /// after it, or with the label first, middle or last.
    fn tricky_rows(classes: usize, count: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<usize>) {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let palette = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            -1.5,
            1.5,
            2.0,
            f64::MIN_POSITIVE,
        ];
        let mut rows = Vec::with_capacity(count);
        let mut labels = Vec::with_capacity(count);
        for _ in 0..count {
            let mut row: Vec<f64> = (0..classes)
                .map(|_| match next() % 4 {
                    0 => (next() >> 11) as f64 / (1u64 << 53) as f64 - 0.5,
                    _ => palette[(next() % palette.len() as u64) as usize],
                })
                .collect();
            let label = match next() % 4 {
                0 => 0,
                1 => classes / 2,
                2 => classes - 1,
                _ => (next() % classes as u64) as usize,
            };
            match next() % 4 {
                // The label ties the largest other score.
                0 => {
                    let top = (0..classes)
                        .filter(|&c| c != label)
                        .map(|c| row[c])
                        .fold(f64::NEG_INFINITY, f64::max);
                    row[label] = top;
                }
                // NaN at the label, or in a rival slot next to a winner.
                1 => row[label] = f64::NAN,
                2 => {
                    row[label] = 3.0;
                    row[(label + 1) % classes] = f64::NAN;
                }
                _ => {}
            }
            rows.push(row);
            labels.push(label);
        }
        (rows, labels)
    }

    #[test]
    fn block_hits_equals_is_argmax_row_by_row_in_every_instantiation() {
        // 2..=16 classes run the compiled fold, 1 and 17 the fallback.
        for isa in Isa::each() {
            for classes in 1..=17usize {
                let (rows, labels) = tricky_rows(classes, 200, classes as u64);
                let as_f64: Vec<f64> = labels.iter().map(|&l| l as f64).collect();
                // Row by row: the row alone in lane 0, and copies of it in
                // the seven padding lanes, which must not count.
                for (row, &label) in rows.iter().zip(&labels) {
                    let copies = vec![row.clone(); BLOCK_ROWS];
                    let mut lane_labels = vec![-1.0; BLOCK_ROWS];
                    lane_labels[0] = label as f64;
                    let want = usize::from(is_argmax(row, label));
                    let got = block_hits_on(isa, &copies, &lane_labels);
                    assert_eq!(got, want, "{isa:?} {classes} classes: {row:?} at {label}");
                }
                // Whole sets: every last-block width 1..=8.
                for len in [1, 2, 7, 8, 9, 15, 16, 17, 23, 200] {
                    let want = (rows[..len].iter().zip(&labels))
                        .filter(|(row, &label)| is_argmax(row, label))
                        .count();
                    let got = block_hits_on(isa, &rows[..len], &as_f64[..len]);
                    assert_eq!(got, want, "{isa:?} {classes} classes, {len} rows");
                }
            }
        }
    }

    #[test]
    fn block_hits_counts_no_label_that_is_not_a_class() {
        for isa in Isa::each() {
            for classes in [3usize, 17] {
                let row = vec![1.0; classes];
                for label in [-1.0, f64::NAN, 0.5, classes as f64, 1e300] {
                    let labels = vec![label; BLOCK_ROWS];
                    assert_eq!(
                        block_hits_on(isa, &vec![row.clone(); BLOCK_ROWS], &labels),
                        0
                    );
                }
            }
        }
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
