//! Cheap, always-on assertions of the paper's qualitative claims — the
//! shapes that EXPERIMENTS.md records at full scale, pinned here at demo
//! scale so a regression cannot slip in silently.

use fedchain::adversary::AdversaryKind;
use fedchain::config::FlConfig;
use fedchain::contract_fl::AccuracyUtility;
use fedchain::ground_truth::AggregateUtility;
use fedchain::privacy::analyze_round;
use fedchain::protocol::FlProtocol;
use fedchain::world::World;
use numeric::stats::cosine_similarity;
use shapley::estimator::{Exact, SvEstimator};
use shapley::group::{group_shapley, GroupSvConfig};

fn world_config(sigma: f64) -> FlConfig {
    let mut config = FlConfig::quick_demo();
    config.num_owners = 6;
    config.sigma = sigma;
    config.train.epochs = 15;
    config
}

/// Paper Sect. IV-B: "When m is the maximum, m = n, … their SVs are
/// evaluated independently based on their per round local model" — at
/// m = n GroupSV must reproduce the per-user SV over aggregated models.
#[test]
fn group_sv_at_m_equals_n_recovers_per_user_sv() {
    let config = world_config(2.0);
    let world = World::generate(&config).expect("valid config");
    let updates = world.local_updates(&config);

    let utility = AccuracyUtility::new(&world.test, config.data.features, config.data.classes);
    let group = group_shapley(
        &updates,
        &utility,
        &GroupSvConfig {
            num_groups: config.num_owners,
            seed: 1,
            round: 0,
        },
    );

    let reference = AggregateUtility::new(
        &updates,
        &world.test,
        config.data.features,
        config.data.classes,
    );
    let native = Exact.estimate(&reference).values;

    // Same multiset of values, matched per user: the grouping permutes
    // users into singleton groups, so per_user already re-indexes.
    let cos = cosine_similarity(&group.per_user, &native).expect("nonzero vectors");
    assert!(
        cos > 0.9999,
        "m=n GroupSV must equal per-user SV, cos={cos}"
    );
}

/// Paper Sect. V-B1: noisier owners contribute less. At demo scale we
/// assert the aggregate form: the noisiest owner scores below the mean of
/// the clean owners.
#[test]
fn noisy_owner_scores_below_clean_mean() {
    let config = world_config(6.0);
    let world = World::generate(&config).expect("valid config");
    let updates = world.local_updates(&config);
    let utility = AggregateUtility::new(
        &updates,
        &world.test,
        config.data.features,
        config.data.classes,
    );
    let sv = Exact.estimate(&utility).values;
    let noisiest = sv[config.num_owners - 1];
    let clean_mean: f64 = sv[..3].iter().sum::<f64>() / 3.0;
    assert!(
        noisiest < clean_mean,
        "noisiest owner {noisiest} must be below clean mean {clean_mean}: {sv:?}"
    );
}

/// Paper Sect. IV-B: privacy decreases (leakage increases) monotonically
/// with m, while resolution increases.
#[test]
fn privacy_leakage_monotone_in_m() {
    let config = world_config(1.0);
    let world = World::generate(&config).expect("valid config");
    let updates = world.local_updates(&config);
    let n = config.num_owners;

    let mut last_leak = -1.0f64;
    for m in 1..=n {
        let report = analyze_round(&updates, m, 7, 0);
        let mean_leak: f64 = report.per_owner_leak_distance.iter().sum::<f64>()
            / report.per_owner_leak_distance.len() as f64;
        // Leak distance *shrinks* as m grows (closer to full reveal)…
        if last_leak >= 0.0 {
            assert!(
                mean_leak <= last_leak + 1e-9,
                "leak distance must shrink with m: m={m}, {mean_leak} > {last_leak}"
            );
        }
        last_leak = mean_leak;
        // …and resolution grows.
        assert_eq!(report.resolution_levels, m);
    }
    // At m = n the group average IS the private update.
    assert!(last_leak.abs() < 1e-9);
}

/// Paper Sect. VI (future work, our Ext B): at full resolution (m = n) a
/// model-poisoning adversary is priced at the bottom of the ledger.
#[test]
fn sign_flip_adversary_ranks_last_at_full_resolution() {
    let mut config = FlConfig::quick_demo();
    config.num_groups = config.num_owners; // m = n
    config.train.epochs = 15;
    let mut protocol = FlProtocol::new(config).expect("valid config");
    protocol.set_adversary(0, AdversaryKind::ScaledUpdate { factor: -1.0 });
    let report = protocol.run().expect("honest consensus");
    let sv = &report.per_owner_sv;
    let min = sv.iter().cloned().fold(f64::INFINITY, f64::min);
    assert_eq!(
        sv[0], min,
        "sign-flip adversary must have the lowest SV: {sv:?}"
    );
    assert!(sv[0] < 0.0, "actively harmful update deserves negative SV");
}

/// The free-rider extension: submitting zeros scores below every honest
/// owner at m = n.
#[test]
fn free_rider_scores_at_bottom_at_full_resolution() {
    let mut config = FlConfig::quick_demo();
    config.num_groups = config.num_owners;
    config.train.epochs = 15;
    let mut protocol = FlProtocol::new(config).expect("valid config");
    protocol.set_adversary(1, AdversaryKind::FreeRider);
    let report = protocol.run().expect("honest consensus");
    let sv = &report.per_owner_sv;
    for (i, &v) in sv.iter().enumerate() {
        if i != 1 {
            assert!(
                sv[1] <= v,
                "free rider must not beat honest owner {i}: {sv:?}"
            );
        }
    }
}
