//! Ext C — the privacy/resolution trade-off of the `m` knob (§IV-B).
//!
//! For each m the table reports both sides of the dial: the anonymity an
//! owner keeps (group sizes; leak distance from the revealed group
//! average) and the evaluation resolution gained (distinct contribution
//! levels; cosine similarity to the per-user FL-aggregation SV).

use fedchain::contract_fl::AccuracyUtility;
use fedchain::ground_truth::AggregateUtility;
use fedchain::privacy::analyze_round;
use fedchain::world::World;
use numeric::stats::{cosine_similarity, mean};
use shapley::estimator::{Exact, SvEstimator};
use shapley::group::{group_shapley, GroupSvConfig};

use crate::report::{f4, Table};

use super::Scale;

/// One m's measurement.
#[derive(Debug, Clone)]
pub struct PrivacyRow {
    /// Number of groups m.
    pub num_groups: usize,
    /// Smallest anonymity set.
    pub min_anonymity: usize,
    /// Mean L2 distance between an owner's update and its revealed group
    /// average (0 = fully leaked).
    pub mean_leak_distance: f64,
    /// Distinct contribution levels assignable.
    pub resolution_levels: usize,
    /// Cosine similarity to the per-user (m = n) aggregation SV.
    pub cosine_vs_full_resolution: Option<f64>,
}

/// Runs the sweep m = 1..=n at σ = 1.0.
pub fn run(scale: Scale) -> Vec<PrivacyRow> {
    let mut config = scale.config();
    config.sigma = 1.0;
    let world = World::generate(&config).expect("valid config");
    let updates = world.local_updates(&config);
    let n = config.num_owners;

    // Full-resolution reference: per-user SV over FL-aggregated coalition
    // models (n trainings, not 2^n — this is the resolution ceiling
    // GroupSV approaches as m → n).
    let reference = {
        let utility = AggregateUtility::new(
            &updates,
            &world.test,
            config.data.features,
            config.data.classes,
        );
        Exact.estimate(&utility).values
    };

    let utility = AccuracyUtility::new(&world.test, config.data.features, config.data.classes);
    (1..=n)
        .map(|m| {
            let privacy = analyze_round(&updates, m, config.permutation_seed, 0);
            let sv = group_shapley(
                &updates,
                &utility,
                &GroupSvConfig {
                    num_groups: m,
                    seed: config.permutation_seed,
                    round: 0,
                },
            );
            PrivacyRow {
                num_groups: m,
                min_anonymity: privacy.min_anonymity,
                mean_leak_distance: mean(&privacy.per_owner_leak_distance),
                resolution_levels: privacy.resolution_levels,
                cosine_vs_full_resolution: cosine_similarity(&sv.per_user, &reference),
            }
        })
        .collect()
}

/// Renders the sweep.
pub fn render(rows: &[PrivacyRow]) -> Table {
    let mut table = Table::new(
        "Ext C — privacy vs resolution as m sweeps 1..n (σ = 1.0)",
        &[
            "m",
            "min anonymity",
            "mean leak dist",
            "resolution levels",
            "cos vs m=n SV",
        ],
    );
    for row in rows {
        table.push_row(vec![
            row.num_groups.to_string(),
            row.min_anonymity.to_string(),
            f4(row.mean_leak_distance),
            row.resolution_levels.to_string(),
            row.cosine_vs_full_resolution.map_or("undef".to_owned(), f4),
        ]);
    }
    table
}
