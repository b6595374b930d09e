//! Renderer tests: every experiment's table builder handles normal and
//! edge-case rows without touching the expensive `run()` paths.

use super::ext_adversary::AdversaryRow;
use super::ext_privacy::PrivacyRow;
use super::ext_rounds::RoundsRow;
use super::fig1::Fig1Row;
use super::fig2::Fig2Point;
use super::table1::Table1Result;
use super::{ext_adversary, ext_privacy, ext_rounds, fig1, fig2, table1};
use fedchain::protocol::StageTimings;

#[test]
fn fig1_render_shapes() {
    let rows = vec![
        Fig1Row {
            sigma: 0.0,
            sv: vec![0.1, 0.2, 0.3],
            models_trained: 8,
        },
        Fig1Row {
            sigma: 2.0,
            sv: vec![-0.1, 0.0, 0.4],
            models_trained: 8,
        },
    ];
    let table = fig1::render(&rows);
    let text = table.render();
    assert!(text.contains("user0") && text.contains("user2"));
    assert!(text.contains("0.1000"));
    assert!(text.contains("-0.1000"));
    assert_eq!(table.rows.len(), 2);
}

#[test]
fn fig1_render_empty() {
    let table = fig1::render(&[]);
    assert_eq!(table.rows.len(), 0);
}

#[test]
fn fig2_render_grid() {
    let points = vec![
        Fig2Point {
            sigma: 0.0,
            num_groups: 2,
            cosine: Some(0.9),
            centered_cosine: Some(0.5),
        },
        Fig2Point {
            sigma: 0.0,
            num_groups: 3,
            cosine: None,
            centered_cosine: None,
        },
        Fig2Point {
            sigma: 1.0,
            num_groups: 2,
            cosine: Some(1.0),
            centered_cosine: Some(1.0),
        },
    ];
    let table = fig2::render(&points);
    let text = table.render();
    assert!(text.contains("m=2") && text.contains("m=3"));
    assert!(text.contains("undef"), "None renders as undef");
    assert!(text.contains("0.9000 (0.5000)"));
    // Missing (σ=1, m=3) renders as "-".
    assert!(text.contains('-'));
}

#[test]
fn table1_render_includes_speedups() {
    let result = Table1Result {
        group_sv: vec![(2, 0.1), (3, 0.2)],
        native_sv: 2.0,
        native_evaluations: 512,
        stratified_sv: 0.5,
        stratified_evaluations: 324,
        recovery: vec![
            table1::RecoveryCost {
                dropped: 0,
                secs: 1.5,
                utility_evaluations: 8,
                blocks: 2,
                stages: StageTimings::default(),
            },
            table1::RecoveryCost {
                dropped: 3,
                secs: 1.9,
                utility_evaluations: 8,
                blocks: 3,
                stages: StageTimings {
                    train_mask: 0.25,
                    assemble: 0.05,
                    commit: 0.0,
                    evaluate: 1.5,
                    ..StageTimings::default()
                },
            },
        ],
        scaling: vec![
            table1::OwnersScaling {
                num_owners: 9,
                num_cohorts: 1,
                secs: 1.5,
                utility_evaluations: 8,
                blocks: 2,
                stages: StageTimings::default(),
            },
            table1::OwnersScaling {
                num_owners: 144,
                num_cohorts: 16,
                secs: 6.0,
                utility_evaluations: 500,
                blocks: 17,
                stages: StageTimings {
                    train_mask: 2.0,
                    assemble: 0.5,
                    commit: 1.0,
                    evaluate: 2.5,
                    ..StageTimings::default()
                },
            },
        ],
        num_owners: 9,
    };
    let table = table1::render(&result);
    let text = table.render();
    assert!(text.contains("20.0x"), "2.0/0.1 speedup");
    assert!(text.contains("10.0x"), "2.0/0.2 speedup");
    assert!(text.contains("native (n=9)"));
    assert!(text.contains("stratified (n=9)"));
    assert!(text.contains("4.0x"), "2.0/0.5 stratified speedup");
    assert!(text.contains("512") && text.contains("324"), "eval counts");
    // Recovery-cost columns: per-dropout wall-clock + block counts.
    assert!(text.contains("round d=0") && text.contains("round d=3"));
    assert!(text.contains("2 blk") && text.contains("3 blk"));
    // Owners-scaling columns: sharded round wall-clock + block counts.
    assert!(text.contains("shard n=9 k=1") && text.contains("shard n=144 k=16"));
    assert!(text.contains("17 blk") && text.contains("500"));
    // Stage breakdown row: train/assemble/commit/evaluate per on-chain
    // column; estimator-only columns show "-".
    assert!(text.contains("stages t/a/c/e"));
    assert!(text.contains("t2.00s a500.0ms c1.00s e2.50s"));
}

#[test]
fn table1_render_without_recovery_measurements() {
    let result = Table1Result {
        group_sv: vec![(2, 0.1)],
        native_sv: 1.0,
        native_evaluations: 512,
        stratified_sv: 0.5,
        stratified_evaluations: 324,
        recovery: vec![],
        scaling: vec![],
        num_owners: 9,
    };
    let text = table1::render(&result).render();
    assert!(
        !text.contains("round d=0"),
        "no recovery columns when unmeasured"
    );
    assert!(
        !text.contains("shard n=9"),
        "no scaling columns when unmeasured"
    );
}

#[test]
fn adversary_render_shows_rank_out_of_n() {
    let rows = vec![AdversaryRow {
        attack: "free-rider".into(),
        num_groups: 3,
        adversary_sv: -0.5,
        honest_mean_sv: 0.1,
        adversary_rank: 8,
        num_owners: 9,
        accuracy: 0.9,
    }];
    let text = ext_adversary::render(&rows).render();
    assert!(text.contains("9/9"), "rank renders 1-based out of n");
    assert!(text.contains("free-rider"));
}

#[test]
fn privacy_render() {
    let rows = vec![PrivacyRow {
        num_groups: 3,
        min_anonymity: 3,
        mean_leak_distance: 0.25,
        resolution_levels: 3,
        cosine_vs_full_resolution: None,
    }];
    let text = ext_privacy::render(&rows).render();
    assert!(text.contains("undef"));
    assert!(text.contains("0.2500"));
}

#[test]
fn rounds_render() {
    let rows = vec![
        RoundsRow {
            num_groups: 2,
            rounds: 1,
            cosine_vs_per_user: Some(0.99),
        },
        RoundsRow {
            num_groups: 2,
            rounds: 8,
            cosine_vs_per_user: Some(1.0),
        },
    ];
    let text = ext_rounds::render(&rows).render();
    assert!(text.contains("0.9900"));
    assert!(text.contains("1.0000"));
}
