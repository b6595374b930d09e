//! Audit that the contribution evaluation is well-founded: the Shapley
//! axioms the paper cites (Sect. II-A — balance, symmetry, zero elements,
//! additivity) hold on the actual FL utility, not just on textbook games.
//!
//! Builds a small federation, forms the FL-aggregation game over its
//! owners, computes exact SVs, and machine-checks each axiom.
//!
//! ```text
//! cargo run --release --example axiom_audit
//! ```

use fedchain::config::FlConfig;
use fedchain::ground_truth::AggregateUtility;
use fedchain::world::World;
use shapley::axioms::{check_efficiency, check_null_player, check_symmetry};
use shapley::coalition::Coalition;
use shapley::estimator::{Exact, MonteCarlo, SvEstimator};
use shapley::monte_carlo::McConfig;
use shapley::utility::CoalitionUtility;

fn main() {
    let mut config = FlConfig::quick_demo();
    config.num_owners = 5;
    config.sigma = 2.0;
    let world = World::generate(&config).expect("valid configuration");
    let updates = world.local_updates(&config);
    let utility = AggregateUtility::new(
        &updates,
        &world.test,
        config.data.features,
        config.data.classes,
    );

    println!("game: 5 owners, FL-aggregation utility, σ = 2.0\n");
    let sv = Exact.estimate(&utility).values;
    for (owner, value) in sv.iter().enumerate() {
        println!("  owner {owner}: v = {value:+.4}");
    }

    println!("\naxiom checks (exact SV):");
    println!(
        "  efficiency (Σv = u(N) − u(∅)) … {}",
        ok(check_efficiency(&utility, &sv))
    );
    println!(
        "  symmetry                      … {}",
        ok(check_symmetry(&utility, &sv))
    );
    println!(
        "  null player                   … {}",
        ok(check_null_player(&utility, &sv))
    );

    // Monte-Carlo cross-check: permutation sampling converges to the
    // exact values (the related-work baseline of Ghorbani & Zou).
    let mc = MonteCarlo {
        config: McConfig {
            permutations: 300,
            seed: 7,
        },
    }
    .estimate(&utility);
    let max_err = sv
        .iter()
        .zip(&mc.values)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    println!(
        "\nMonte-Carlo SV (300 permutations, {} utility evals): max |Δ| = {max_err:.4}",
        mc.utility_evaluations
    );

    let grand = utility.evaluate(Coalition::grand(5));
    let empty = utility.evaluate(Coalition::EMPTY);
    println!(
        "\nu(∅) = {empty:.4}, u(N) = {grand:.4}, Σv = {:.4}",
        sv.iter().sum::<f64>()
    );
}

fn ok(flag: bool) -> &'static str {
    if flag {
        "ok"
    } else {
        "VIOLATED"
    }
}
