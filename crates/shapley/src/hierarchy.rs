//! Two-level Shapley composition over cohorts — the group-model
//! reduction of the paper's Algorithm 1 applied **recursively**.
//!
//! One flat round caps out at
//! [`MAX_SAMPLED_PLAYERS`](crate::coalition::MAX_SAMPLED_PLAYERS) players
//! for the sampling estimators
//! ([`MAX_PLAYERS`](crate::coalition::MAX_PLAYERS) for exact
//! enumeration). The
//! hierarchy lifts that: owners are deterministically partitioned into
//! cohorts (the cohorts of a [`RoundPlan`]), each cohort plays the
//! *within-cohort* group game over its own members, and a *second-level*
//! coalition game over the cohort aggregate models prices each cohort as
//! a whole. The two levels compose into per-owner global contributions.
//!
//! # Module contract
//!
//! **Composition semantics** ([`compose`]): let `w_{c,i}` be owner `i`'s
//! within-cohort value in cohort `c` and `V_c` the cohort's second-level
//! value. The composed global value is
//!
//! ```text
//! φ_{c,i} = w_{c,i} · V_c / Σ_j w_{c,j}        (within-total ≠ 0)
//! φ_{c,i} = V_c / |c|                          (within-total = 0)
//! ```
//!
//! i.e. the cohort's second-level value is distributed across its
//! members *in proportion to their within-cohort values*; when the
//! within game carries no signal (all values cancel to exactly zero) the
//! cohort value is split uniformly so efficiency is preserved either
//! way: `Σ_i φ_{c,i} = V_c` for every non-empty cohort, hence
//! `Σ φ = Σ_c V_c` — the second-level game's efficiency total.
//!
//! **Single-cohort degeneration**: with exactly one cohort the hierarchy
//! *is* the flat game, so [`compose`] returns the within-cohort values
//! verbatim (bit-identical, no scaling applied). A flat round is the
//! `k = 1` case of the same [`RoundPlan`] and the same contract path, and
//! the off-chain oracle [`group_shapley`](crate::group::group_shapley)
//! reads its groups from that plan, so the property tests pin the
//! oracle and the composed path to each other bit for bit.
//!
//! **Dropped-cohort behavior**: a cohort whose members all dropped out
//! of a round has no aggregate model, so it must be excluded from the
//! second-level game — callers play the second-level game over the
//! surviving cohorts only and pass `V_c = 0.0` with zero within values
//! for the dropped cohort; [`compose`] then
//! assigns every member of the dropped cohort exactly `0.0`. Dropping a
//! cohort never shifts another cohort's members between the uniform and
//! proportional branches.
//!
//! **One round layout** ([`RoundPlan`]): the cohorts, the within-cohort
//! secure-aggregation groups and the per-cohort seed streams of a round
//! are derived in exactly one place from `(seed, round, n, k, m)` — the
//! same splitmix64 Fisher–Yates stream for cohorts and groups,
//! domain-separated between the two — so every thread count and every
//! replica derives the same layout, and it is digest-bound wherever
//! those inputs are (the on-chain round record binds all of them). The
//! on-chain contract, the off-chain protocol driver, configuration
//! validation, the privacy analysis and the off-chain Algorithm 1 oracle
//! all read the same plan, and the flat round of the paper's Algorithm 1
//! is its `k = 1` case rather than a second code path.

use crate::group::{grouping, permutation};

/// Domain-separation constant XOR-ed into the seed for the cohort
/// partition so the cohort plan and the within-cohort groupings draw
/// from distinct splitmix64 streams of the same public seed.
const COHORT_STREAM: u64 = 0xc0_7a_57_1e_5e_ed_5a_7b;

/// Per-cohort sub-seed for within-cohort grouping and sampling: distinct
/// cohorts of equal size must not share a permutation stream.
pub fn cohort_stream(seed: u64, cohort: u64) -> u64 {
    seed ^ (cohort + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// Typed rejection from the hierarchy layer: a layout
/// [`RoundPlan::new`] cannot build, or [`compose`] inputs that disagree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HierarchyError {
    /// `num_cohorts` outside `1..=num_owners`.
    BadCohortCount {
        /// Requested cohort count.
        cohorts: usize,
        /// Owner count being partitioned.
        owners: usize,
    },
    /// More within-cohort groups requested than the smallest cohort has
    /// members.
    GroupCountExceedsCohortSize {
        /// Requested within-cohort group count.
        groups: usize,
        /// Size of the smallest cohort under the balanced partition.
        cohort_size: usize,
    },
    /// [`compose`] inputs disagree on the cohort count.
    LengthMismatch {
        /// Number of within-cohort value vectors.
        within: usize,
        /// Number of second-level cohort values.
        values: usize,
    },
}

impl std::fmt::Display for HierarchyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::BadCohortCount { cohorts, owners } => {
                write!(f, "num_cohorts must be in 1..={owners}, got {cohorts}")
            }
            Self::GroupCountExceedsCohortSize {
                groups,
                cohort_size,
            } => write!(
                f,
                "{groups} groups per cohort exceed the smallest cohort ({cohort_size} members)"
            ),
            Self::LengthMismatch { within, values } => write!(
                f,
                "{within} within-cohort vectors vs {values} cohort values"
            ),
        }
    }
}

impl std::error::Error for HierarchyError {}

/// The complete public layout of one round: cohorts, the
/// secure-aggregation groups within each cohort, and the seed stream
/// each cohort draws on.
///
/// A pure function of the digest-bound `(seed, round, n, k, m)`, so every
/// owner masking an update, every miner aggregating and every auditor
/// replaying derives the identical layout, and a tampered one diverges
/// at the first state root.
///
/// **`k > 1`, the sharded round**: the owners are a splitmix64
/// Fisher–Yates permutation of `0..n` on a domain-separated copy of the
/// seed, chopped into `k` balanced consecutive cohorts (the first
/// `n mod k` take one extra member). Cohort `c` groups its members on
/// the [`cohort_stream`]`(seed, c)` sub-seed.
///
/// **`k = 1`, the flat round**: a single cohort holding `0..n` in
/// identity order, drawn on the *un-streamed* seed. Its grouping is
/// therefore exactly `grouping(permutation(seed, round, n), m)` — lines
/// 1–2 of the paper's Algorithm 1 — and its one entry of
/// [`RoundPlan::seeds`] is `seed` itself. This is the only rule that
/// distinguishes the flat round from the sharded one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundPlan {
    cohorts: Vec<Vec<usize>>,
    groups: Vec<Vec<Vec<usize>>>,
    seeds: Vec<u64>,
}

impl RoundPlan {
    /// Derives the round's layout: `num_owners` owners in `num_cohorts`
    /// cohorts of `num_groups` groups each.
    ///
    /// # Errors
    ///
    /// [`HierarchyError::BadCohortCount`] unless `1 ≤ k ≤ n`, and
    /// [`HierarchyError::GroupCountExceedsCohortSize`] unless `1 ≤ m ≤
    /// ⌊n / k⌋`, the smallest cohort. These are the only layout rules;
    /// configuration and genesis validation ask this constructor.
    pub fn new(
        seed: u64,
        round: u64,
        num_owners: usize,
        num_cohorts: usize,
        num_groups: usize,
    ) -> Result<Self, HierarchyError> {
        if num_cohorts == 0 || num_cohorts > num_owners {
            return Err(HierarchyError::BadCohortCount {
                cohorts: num_cohorts,
                owners: num_owners,
            });
        }
        let min_cohort = num_owners / num_cohorts;
        if num_groups == 0 || num_groups > min_cohort {
            return Err(HierarchyError::GroupCountExceedsCohortSize {
                groups: num_groups,
                cohort_size: min_cohort,
            });
        }
        let (cohorts, seeds) = if num_cohorts == 1 {
            (vec![(0..num_owners).collect()], vec![seed])
        } else {
            let pi = permutation(seed ^ COHORT_STREAM, round, num_owners);
            let seeds = (0..num_cohorts as u64)
                .map(|c| cohort_stream(seed, c))
                .collect();
            (grouping(&pi, num_cohorts), seeds)
        };
        let groups = cohorts
            .iter()
            .zip(&seeds)
            .map(|(members, &stream)| {
                let pi = permutation(stream, round, members.len());
                grouping(&pi, num_groups)
                    .into_iter()
                    .map(|g| g.into_iter().map(|i| members[i]).collect())
                    .collect()
            })
            .collect();
        Ok(Self {
            cohorts,
            groups,
            seeds,
        })
    }

    /// Cohort memberships: `cohorts()[c]` lists the owner positions of
    /// cohort `c`.
    pub fn cohorts(&self) -> &[Vec<usize>] {
        &self.cohorts
    }

    /// Secure-aggregation groups: `groups()[c][j]` lists the owner
    /// positions of group `j` of cohort `c`.
    pub fn groups(&self) -> &[Vec<Vec<usize>>] {
        &self.groups
    }

    /// Seed streams: `seeds()[c]` is the seed cohort `c` draws on — for
    /// its grouping here and for its sampling estimator in the contract.
    pub fn seeds(&self) -> &[u64] {
        &self.seeds
    }
}

/// Composes within-cohort Shapley values with second-level cohort
/// values into per-owner global contributions.
///
/// `within[c]` holds cohort `c`'s within-cohort values (one per member,
/// in the cohort's member order); `cohort_values[c]` is the cohort's
/// second-level value. See the module docs for the exact semantics:
/// proportional scaling, uniform fallback at zero within-total, verbatim
/// pass-through for a single cohort, and zeros for dropped cohorts.
pub fn compose(
    within: &[Vec<f64>],
    cohort_values: &[f64],
) -> Result<Vec<Vec<f64>>, HierarchyError> {
    if within.len() != cohort_values.len() {
        return Err(HierarchyError::LengthMismatch {
            within: within.len(),
            values: cohort_values.len(),
        });
    }
    // One cohort: the hierarchy degenerates to the flat game; return the
    // within values bit-for-bit so the two paths cannot diverge.
    if within.len() == 1 {
        return Ok(within.to_vec());
    }
    let mut composed = Vec::with_capacity(within.len());
    for (vals, &cohort_value) in within.iter().zip(cohort_values) {
        let total: f64 = vals.iter().sum();
        if total != 0.0 {
            let scale = cohort_value / total;
            composed.push(vals.iter().map(|v| v * scale).collect());
        } else if vals.is_empty() {
            composed.push(Vec::new());
        } else {
            let share = cohort_value / vals.len() as f64;
            composed.push(vec![share; vals.len()]);
        }
    }
    Ok(composed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::{Exact, SvEstimator};
    use crate::group::{group_shapley, GroupModelGame, GroupSvConfig};
    use crate::utility::{model_utility_fn, ModelUtility};
    use numeric::linalg::mean_vectors;
    use proptest::prelude::*;

    fn sum_utility() -> impl ModelUtility + Sync {
        model_utility_fn(|w: &[f64]| w.iter().sum(), 0.0)
    }

    /// A round with no dropouts, played by the pieces the contract's
    /// `finish_round` calls: the plan's groups, [`Exact`] over each
    /// cohort's [`GroupModelGame`] with every group's value split among
    /// its members, [`Exact`] over the cohort models (sharded rounds
    /// only), then [`compose`].
    struct TwoLevel {
        plan: RoundPlan,
        per_owner: Vec<f64>,
        per_cohort: Vec<f64>,
        global_model: Vec<f64>,
        utility_evaluations: usize,
    }

    fn two_level(
        weights: &[Vec<f64>],
        utility: &(impl ModelUtility + Sync),
        seed: u64,
        round: u64,
        k: usize,
        m: usize,
    ) -> TwoLevel {
        let plan = RoundPlan::new(seed, round, weights.len(), k, m).unwrap();
        let mut evals = 0;
        let mut within = Vec::new();
        let mut cohort_models = Vec::new();
        for groups in plan.groups() {
            let models: Vec<Vec<f64>> = groups
                .iter()
                .map(|g| mean_vectors(&g.iter().map(|&i| weights[i].clone()).collect::<Vec<_>>()))
                .collect();
            let estimate = Exact.estimate(&GroupModelGame::new(&models, utility));
            evals += estimate.utility_evaluations;
            within.push(
                groups
                    .iter()
                    .zip(&estimate.values)
                    .flat_map(|(g, v)| vec![v / g.len() as f64; g.len()])
                    .collect::<Vec<f64>>(),
            );
            cohort_models.push(mean_vectors(&models));
        }
        let per_cohort = if k > 1 {
            let estimate = Exact.estimate(&GroupModelGame::new(&cohort_models, utility));
            evals += estimate.utility_evaluations;
            estimate.values
        } else {
            vec![0.0]
        };
        let composed = compose(&within, &per_cohort).unwrap();
        let mut per_owner = vec![0.0; weights.len()];
        for (groups, values) in plan.groups().iter().zip(&composed) {
            for (&owner, &v) in groups.iter().flatten().zip(values) {
                per_owner[owner] = v;
            }
        }
        let global_model = match cohort_models.as_slice() {
            [only] => only.clone(),
            all => mean_vectors(all),
        };
        TwoLevel {
            plan,
            per_owner,
            per_cohort,
            global_model,
            utility_evaluations: evals,
        }
    }

    #[test]
    fn plan_is_a_deterministic_partition() {
        let plan = RoundPlan::new(42, 3, 10, 4, 1).unwrap();
        assert_eq!(plan, RoundPlan::new(42, 3, 10, 4, 1).unwrap());
        assert_eq!(plan.cohorts().len(), 4);
        let mut seen = [false; 10];
        for cohort in plan.cohorts() {
            for &i in cohort {
                assert!(!seen[i], "owner {i} in two cohorts");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
        // Balanced: first n mod k cohorts take the extra member.
        let sizes: Vec<usize> = plan.cohorts().iter().map(Vec::len).collect();
        assert_eq!(sizes, vec![3, 3, 2, 2]);
        assert_ne!(
            plan.cohorts(),
            RoundPlan::new(42, 4, 10, 4, 1).unwrap().cohorts(),
            "round re-partitions"
        );
        assert_ne!(
            plan.cohorts(),
            grouping(&permutation(42, 3, 10), 4).as_slice(),
            "cohort stream is domain-separated from the grouping stream"
        );
    }

    #[test]
    fn plan_rejects_bad_cohort_counts() {
        for (owners, cohorts) in [(5, 0), (5, 6), (0, 1)] {
            assert_eq!(
                RoundPlan::new(1, 0, owners, cohorts, 1),
                Err(HierarchyError::BadCohortCount { cohorts, owners })
            );
        }
    }

    #[test]
    fn compose_matches_hand_computed_two_cohorts_three_owners() {
        // Cohort 0: within values (3, 1, 2), total 6, cohort value 12
        //   → scale 2 → (6, 2, 4).
        // Cohort 1: within values (1, 1, 0), total 2, cohort value 4
        //   → scale 2 → (2, 2, 0).
        // All values are exactly representable, so equality is exact.
        let within = vec![vec![3.0, 1.0, 2.0], vec![1.0, 1.0, 0.0]];
        let values = vec![12.0, 4.0];
        let composed = compose(&within, &values).unwrap();
        assert_eq!(composed, vec![vec![6.0, 2.0, 4.0], vec![2.0, 2.0, 0.0]]);
        // Efficiency: each cohort's members sum to its cohort value.
        for (vals, v) in composed.iter().zip(&values) {
            assert_eq!(vals.iter().sum::<f64>(), *v);
        }
    }

    #[test]
    fn compose_splits_uniformly_at_zero_within_total() {
        // Cohort 1's within game carries no signal (exact cancellation):
        // its value splits uniformly. A dropped cohort is the special
        // case value = 0 with zero within values → members get 0.
        let within = vec![vec![1.0, -1.0, 0.0], vec![0.0, 0.0]];
        let values = vec![6.0, 0.0];
        let composed = compose(&within, &values).unwrap();
        assert_eq!(composed, vec![vec![2.0, 2.0, 2.0], vec![0.0, 0.0]]);
    }

    #[test]
    fn compose_single_cohort_is_verbatim() {
        let within = vec![vec![0.1, 0.2, 0.30000000000000004]];
        let composed = compose(&within, &[99.0]).unwrap();
        assert_eq!(composed, within, "no scaling applied for one cohort");
    }

    #[test]
    fn compose_rejects_mismatched_lengths() {
        assert_eq!(
            compose(&[vec![1.0]], &[1.0, 2.0]),
            Err(HierarchyError::LengthMismatch {
                within: 1,
                values: 2
            })
        );
    }

    /// Independent exact SV over ≤3 players by explicit permutation
    /// enumeration — no crate machinery, so it can cross-check it.
    fn reference_sv(values: &dyn Fn(&[usize]) -> f64, n: usize) -> Vec<f64> {
        assert!(n <= 3);
        let perms: Vec<Vec<usize>> = match n {
            1 => vec![vec![0]],
            2 => vec![vec![0, 1], vec![1, 0]],
            3 => vec![
                vec![0, 1, 2],
                vec![0, 2, 1],
                vec![1, 0, 2],
                vec![1, 2, 0],
                vec![2, 0, 1],
                vec![2, 1, 0],
            ],
            _ => unreachable!(),
        };
        let mut sv = vec![0.0; n];
        for perm in &perms {
            let mut prefix: Vec<usize> = Vec::new();
            let mut prev = values(&prefix);
            for &p in perm {
                prefix.push(p);
                prefix.sort_unstable();
                let cur = values(&prefix);
                sv[p] += cur - prev;
                prev = cur;
            }
        }
        for v in &mut sv {
            *v /= perms.len() as f64;
        }
        sv
    }

    #[test]
    fn two_cohorts_of_three_match_independent_two_level_enumeration() {
        // 6 owners, scalar models, u(W) = W[0], 2 cohorts × 3 singleton
        // groups. Every level is small enough to recompute from scratch
        // with the independent permutation enumeration above.
        let weights: Vec<Vec<f64>> = [0.5, -1.0, 2.0, 3.5, 0.25, 1.0]
            .iter()
            .map(|&w| vec![w])
            .collect();
        let result = two_level(&weights, &sum_utility(), 77, 1, 2, 3);

        // Reference within-cohort values: game u(S) = mean of members'
        // scalars (singleton groups make group models the raw scalars;
        // the exact SV of a member over the mean game does not depend on
        // where the grouping puts it).
        let mut expect_within = Vec::new();
        let mut cohort_scalars = Vec::new();
        for cohort in result.plan.cohorts() {
            let w: Vec<f64> = cohort.iter().map(|&i| weights[i][0]).collect();
            let w2 = w.clone();
            let game = move |s: &[usize]| {
                if s.is_empty() {
                    0.0
                } else {
                    s.iter().map(|&j| w2[j]).sum::<f64>() / s.len() as f64
                }
            };
            expect_within.push(reference_sv(&game, cohort.len()));
            cohort_scalars.push(w.iter().sum::<f64>() / w.len() as f64);
        }

        // Reference second level: game over cohort means.
        let cs = cohort_scalars.clone();
        let second = move |s: &[usize]| {
            if s.is_empty() {
                0.0
            } else {
                s.iter().map(|&j| cs[j]).sum::<f64>() / s.len() as f64
            }
        };
        let expect_cohort = reference_sv(&second, 2);
        for (got, want) in result.per_cohort.iter().zip(&expect_cohort) {
            assert!((got - want).abs() < 1e-12, "{got} vs {want}");
        }

        // Reference composition, then compare per owner.
        let composed = compose(&expect_within, &expect_cohort).unwrap();
        for (cohort, vals) in result.plan.cohorts().iter().zip(&composed) {
            for (&owner, &want) in cohort.iter().zip(vals) {
                assert!(
                    (result.per_owner[owner] - want).abs() < 1e-12,
                    "owner {owner}: {} vs {want}",
                    result.per_owner[owner]
                );
            }
        }
    }

    #[test]
    fn hierarchy_preserves_second_level_efficiency() {
        let weights: Vec<Vec<f64>> = (0..12)
            .map(|i| vec![(i as f64).sin(), (i as f64 * 0.7).cos()])
            .collect();
        let result = two_level(&weights, &sum_utility(), 5, 2, 3, 2);
        let total: f64 = result.per_owner.iter().sum();
        let cohort_total: f64 = result.per_cohort.iter().sum();
        assert!((total - cohort_total).abs() < 1e-9);
        let u = sum_utility();
        let grand = u.of_model(&result.global_model) - u.of_empty();
        assert!(
            (cohort_total - grand).abs() < 1e-9,
            "second-level efficiency: {cohort_total} vs {grand}"
        );
    }

    #[test]
    fn oversized_hierarchies_are_typed_errors_not_panics() {
        assert_eq!(
            RoundPlan::new(0, 0, 30, 31, 1),
            Err(HierarchyError::BadCohortCount {
                cohorts: 31,
                owners: 30
            })
        );
        // 26 cohorts exceed the exact-enumeration cap, but the layout has
        // no player cap of its own: the validates check the configured
        // SV method against the cohort count.
        assert!(RoundPlan::new(0, 0, 30, 26, 1).is_ok());
        // The smallest of 4 cohorts of 30 owners has 7 members.
        assert_eq!(
            RoundPlan::new(0, 0, 30, 4, 8),
            Err(HierarchyError::GroupCountExceedsCohortSize {
                groups: 8,
                cohort_size: 7
            })
        );
    }

    #[test]
    fn round_plan_rejects_bad_layouts() {
        for k in [0, 6] {
            assert_eq!(
                RoundPlan::new(1, 0, 5, k, 1),
                Err(HierarchyError::BadCohortCount {
                    cohorts: k,
                    owners: 5
                })
            );
        }
        // 10 owners in 3 cohorts: the smallest cohort holds 3.
        for m in [0, 4] {
            assert_eq!(
                RoundPlan::new(1, 0, 10, 3, m),
                Err(HierarchyError::GroupCountExceedsCohortSize {
                    groups: m,
                    cohort_size: 3
                })
            );
        }
        // One cohort holds everyone.
        assert!(RoundPlan::new(1, 0, 10, 1, 10).is_ok());
        assert!(RoundPlan::new(1, 0, 10, 1, 11).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_round_plan_is_the_one_layout_derivation(
            seed in any::<u64>(),
            round in 0u64..8,
            n in 2usize..40,
            k_raw in 1usize..9,
            m_raw in 1usize..6,
        ) {
            let k = k_raw.min(n);
            let m = m_raw.min(n / k);
            let plan = RoundPlan::new(seed, round, n, k, m).unwrap();
            prop_assert_eq!(&plan, &RoundPlan::new(seed, round, n, k, m).unwrap());

            // The groups partition 0..n, cohort by cohort.
            prop_assert_eq!(plan.cohorts().len(), k);
            prop_assert_eq!(plan.groups().len(), k);
            prop_assert_eq!(plan.seeds().len(), k);
            let mut seen: Vec<usize> = plan.groups().iter().flatten().flatten().copied().collect();
            seen.sort_unstable();
            prop_assert_eq!(seen, (0..n).collect::<Vec<_>>());
            for (members, groups) in plan.cohorts().iter().zip(plan.groups()) {
                prop_assert_eq!(groups.len(), m);
                let mut grouped: Vec<usize> = groups.iter().flatten().copied().collect();
                grouped.sort_unstable();
                let mut expect = members.clone();
                expect.sort_unstable();
                prop_assert_eq!(grouped, expect);
            }

            if k == 1 {
                // The flat round: Algorithm 1's grouping over 0..n on
                // the un-streamed seed.
                prop_assert_eq!(plan.cohorts(), &[(0..n).collect::<Vec<_>>()][..]);
                prop_assert_eq!(plan.groups(), &[grouping(&permutation(seed, round, n), m)][..]);
                prop_assert_eq!(plan.seeds(), &[seed][..]);
            } else {
                // The sharded round: a domain-separated permutation in
                // k balanced chunks, each cohort grouped on its own
                // cohort stream.
                let cohorts = grouping(&permutation(seed ^ COHORT_STREAM, round, n), k);
                prop_assert_eq!(plan.cohorts(), cohorts.as_slice());
                for (c, members) in cohorts.iter().enumerate() {
                    let stream = cohort_stream(seed, c as u64);
                    prop_assert_eq!(plan.seeds()[c], stream);
                    let expect: Vec<Vec<usize>> =
                        grouping(&permutation(stream, round, members.len()), m)
                            .into_iter()
                            .map(|g| g.into_iter().map(|i| members[i]).collect())
                            .collect();
                    prop_assert_eq!(&plan.groups()[c], &expect);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn prop_single_cohort_is_bit_identical_to_flat(
            n in 2usize..8,
            seed in any::<u64>(),
            round in 0u64..5,
        ) {
            // The off-chain oracle and the contract's pieces at k = 1.
            let weights: Vec<Vec<f64>> = (0..n)
                .map(|i| vec![(i as f64 + 0.3).sin(), (i as f64).cos()])
                .collect();
            for m in 1..=n {
                let flat = group_shapley(
                    &weights,
                    &sum_utility(),
                    &GroupSvConfig { num_groups: m, seed, round },
                );
                let hier = two_level(&weights, &sum_utility(), seed, round, 1, m);
                for (a, b) in hier.per_owner.iter().zip(&flat.per_user) {
                    prop_assert_eq!(a.to_bits(), b.to_bits(), "per-user values must be bit-identical");
                }
                for (a, b) in hier.global_model.iter().zip(&flat.global_model) {
                    prop_assert_eq!(a.to_bits(), b.to_bits(), "global model must be bit-identical");
                }
                prop_assert_eq!(hier.plan.groups(), &[flat.groups][..]);
                prop_assert_eq!(hier.utility_evaluations, flat.utility_evaluations);
            }
        }
    }
}
