//! Privacy/resolution analysis of the `m` knob.
//!
//! Paper Sect. IV-B: "In general, given the number of groups m, the
//! average model parameters for each group of size n/m is revealed, in
//! some sense similar to (n/m)-anonymity. Hence, the larger the m, the
//! less private. When m decreases … the resolution decreases."
//!
//! This module quantifies both sides of the trade-off for the Ext-C
//! experiment:
//!
//! * **anonymity** — the sizes of the groups an observer can attribute a
//!   revealed average to;
//! * **leakage** — how close the revealed group average is to an
//!   individual's private update (singleton groups leak exactly);
//! * **resolution** — how many distinct contribution levels the
//!   evaluation can assign (`m` groups ⇒ at most `m` levels).

use numeric::linalg::norm2;
use shapley::hierarchy::RoundPlan;

/// What an on-chain observer learns about one round.
#[derive(Debug, Clone, PartialEq)]
pub struct PrivacyReport {
    /// Number of groups `m`.
    pub num_groups: usize,
    /// Group sizes (anonymity sets).
    pub anonymity_sets: Vec<usize>,
    /// Smallest anonymity set — the weakest owner's protection.
    pub min_anonymity: usize,
    /// Per-owner leakage: L2 distance between the owner's private update
    /// and the revealed group average (0 = fully revealed).
    pub per_owner_leak_distance: Vec<f64>,
    /// Number of distinct contribution levels the round can assign.
    pub resolution_levels: usize,
}

/// Analyzes the privacy/resolution trade-off of one round's grouping.
///
/// `local_updates[i]` is owner `i`'s private update; `seed`/`round`
/// reproduce the on-chain grouping of a flat round, read from its
/// [`RoundPlan`].
///
/// # Panics
///
/// Panics on empty or ragged input, or `m` out of `1..=n`.
pub fn analyze_round(
    local_updates: &[Vec<f64>],
    num_groups: usize,
    seed: u64,
    round: u64,
) -> PrivacyReport {
    let n = local_updates.len();
    assert!(n > 0, "no owners");
    let groups = match RoundPlan::new(seed, round, n, 1, num_groups) {
        Ok(plan) => plan.groups()[0].clone(),
        Err(e) => panic!("num_groups must be in 1..={n}: {e}"),
    };
    let dim = local_updates[0].len();
    assert!(
        local_updates.iter().all(|u| u.len() == dim),
        "ragged updates"
    );

    let mut per_owner_leak = vec![0.0f64; n];
    let mut anonymity_sets = Vec::with_capacity(num_groups);
    for group in &groups {
        anonymity_sets.push(group.len());
        // The revealed value: the group's average update.
        let mut avg = vec![0.0f64; dim];
        for &i in group {
            for (a, &w) in avg.iter_mut().zip(&local_updates[i]) {
                *a += w;
            }
        }
        let inv = 1.0 / group.len() as f64;
        for a in &mut avg {
            *a *= inv;
        }
        for &i in group {
            let diff: Vec<f64> = local_updates[i]
                .iter()
                .zip(&avg)
                .map(|(w, a)| w - a)
                .collect();
            per_owner_leak[i] = norm2(&diff);
        }
    }

    let min_anonymity = anonymity_sets.iter().copied().min().unwrap_or(0);
    PrivacyReport {
        num_groups,
        anonymity_sets,
        min_anonymity,
        per_owner_leak_distance: per_owner_leak,
        resolution_levels: num_groups,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn updates(n: usize, dim: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| (0..dim).map(|d| (i * dim + d) as f64).collect())
            .collect()
    }

    #[test]
    fn singleton_groups_leak_exactly() {
        // m = n: every group average IS the owner's update.
        let u = updates(4, 3);
        let report = analyze_round(&u, 4, 1, 0);
        assert_eq!(report.min_anonymity, 1);
        for leak in &report.per_owner_leak_distance {
            assert_eq!(*leak, 0.0, "singleton group reveals the model exactly");
        }
        assert_eq!(report.resolution_levels, 4);
    }

    #[test]
    fn one_group_maximal_anonymity() {
        let u = updates(6, 2);
        let report = analyze_round(&u, 1, 1, 0);
        assert_eq!(report.anonymity_sets, vec![6]);
        assert_eq!(report.min_anonymity, 6);
        assert_eq!(report.resolution_levels, 1);
        // Distinct updates hide behind the average: leak > 0.
        assert!(report.per_owner_leak_distance.iter().all(|&l| l > 0.0));
    }

    #[test]
    fn anonymity_monotone_in_m() {
        let u = updates(9, 2);
        let mut last_min = usize::MAX;
        for m in 1..=9 {
            let report = analyze_round(&u, m, 7, 0);
            assert!(
                report.min_anonymity <= last_min,
                "anonymity cannot grow with m"
            );
            last_min = report.min_anonymity;
            let total: usize = report.anonymity_sets.iter().sum();
            assert_eq!(total, 9, "groups partition owners");
        }
    }

    #[test]
    fn identical_updates_never_leak() {
        // If everyone's update is the same, the average reveals nothing
        // beyond what each owner already knows.
        let u = vec![vec![1.0, 2.0]; 5];
        let report = analyze_round(&u, 2, 3, 1);
        for leak in &report.per_owner_leak_distance {
            assert!(leak.abs() < 1e-12);
        }
    }

    #[test]
    fn grouping_matches_contract_grouping() {
        // The analysis must reproduce the exact on-chain grouping.
        let u = updates(9, 1);
        let report = analyze_round(&u, 3, 42, 5);
        let plan = RoundPlan::new(42, 5, 9, 1, 3).unwrap();
        let sizes: Vec<usize> = plan.groups()[0].iter().map(Vec::len).collect();
        assert_eq!(report.anonymity_sets, sizes);
    }

    #[test]
    #[should_panic(expected = "num_groups")]
    fn bad_m_panics() {
        let _ = analyze_round(&updates(3, 1), 4, 0, 0);
    }
}
