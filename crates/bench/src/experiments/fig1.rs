//! Fig. 1 — ground-truth SV distribution over users w.r.t. σ.
//!
//! Paper: "we build 2^n models based on the data coalitions … then
//! establish the ground truth SV using the native SV method (Eq. 1)".
//! Expected shape: σ = 0 ⇒ all owners' SVs ≈ 0 and ≈ equal; σ > 0 ⇒ SV
//! decreases with the owner index (noisier data ⇒ lower contribution),
//! and larger σ spreads the values further apart.

use fedchain::ground_truth::RetrainUtility;
use fedchain::world::World;
use shapley::estimator::{Exact, SvEstimator};
use shapley::utility::CachedUtility;

use crate::report::{f4, Table};

use super::Scale;

/// One σ's ground-truth result.
#[derive(Debug, Clone)]
pub struct Fig1Row {
    /// Noise scale σ.
    pub sigma: f64,
    /// Ground-truth SV per owner (owner 0 has the cleanest data).
    pub sv: Vec<f64>,
    /// Coalition models trained (`2^n`).
    pub models_trained: usize,
}

/// Computes the ground-truth SV for one σ.
pub fn ground_truth_for_sigma(scale: Scale, sigma: f64) -> Fig1Row {
    let mut config = scale.config();
    config.sigma = sigma;
    let world = World::generate(&config).expect("scale configs are valid");
    let utility = RetrainUtility::new(&world.shards, &world.test, config.train);
    let cached = CachedUtility::new(&utility);
    let sv = Exact.estimate(&cached).values;
    Fig1Row {
        sigma,
        sv,
        models_trained: cached.unique_evaluations(),
    }
}

/// Runs the full figure: one row per σ.
pub fn run(scale: Scale) -> Vec<Fig1Row> {
    scale
        .sigmas()
        .into_iter()
        .map(|sigma| ground_truth_for_sigma(scale, sigma))
        .collect()
}

/// Renders the figure as a table (owners as columns).
pub fn render(rows: &[Fig1Row]) -> Table {
    let n = rows.first().map_or(0, |r| r.sv.len());
    let mut headers: Vec<String> = vec!["sigma".into()];
    headers.extend((0..n).map(|i| format!("user{i}")));
    headers.push("models".into());
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut table = Table::new(
        "Fig. 1 — ground-truth SV distribution over users (native SV, retrained coalitions)",
        &header_refs,
    );
    for row in rows {
        let mut cells = vec![format!("{:.1}", row.sigma)];
        cells.extend(row.sv.iter().map(|&v| f4(v)));
        cells.push(row.models_trained.to_string());
        table.push_row(cells);
    }
    table
}
