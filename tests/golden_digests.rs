//! Golden digests: six fixed configurations whose tip block digest,
//! final contract state digest and per-owner contribution bit patterns
//! are pinned **across commits**. Every other suite compares a run
//! against another run of the same build; this one compares against
//! constants, so a refactor of the round path proves itself
//! byte-identical (ROADMAP invariant 4) — or fails here.
//!
//! Each configuration is run at thread caps 1 and 2, pipelined
//! (`run`) and sequential (`run_sequential`); all four must reproduce
//! the same constants. A mismatch prints the observed values in the
//! constants' own syntax.

use std::sync::Mutex;

use fedchain::config::{FlConfig, SvMethod};
use fedchain::protocol::FlProtocol;
use fl_chain::contract::SmartContract;
use numeric::par;

/// The thread cap is process-global; tests that set it take turns.
static THREAD_CAP: Mutex<()> = Mutex::new(());

#[derive(Debug, PartialEq)]
struct Fingerprint {
    tip: String,
    state: String,
    contributions: Vec<u64>,
}

fn fingerprint(config: &FlConfig, pipelined: bool) -> Fingerprint {
    let mut protocol = FlProtocol::new(config.clone()).expect("valid config");
    let report = if pipelined {
        protocol.run()
    } else {
        protocol.run_sequential()
    }
    .expect("honest run");
    Fingerprint {
        tip: protocol
            .engine()
            .store_of(0)
            .expect("miner 0")
            .tip_digest()
            .to_hex(),
        state: protocol.contract().state_digest().to_hex(),
        contributions: report.per_owner_sv.iter().map(|v| v.to_bits()).collect(),
    }
}

fn assert_golden(config: FlConfig, tip: &str, state: &str, contributions: &[u64]) {
    let expected = Fingerprint {
        tip: tip.to_owned(),
        state: state.to_owned(),
        contributions: contributions.to_vec(),
    };
    let _guard = THREAD_CAP.lock().unwrap_or_else(|e| e.into_inner());
    for cap in [1, 2] {
        par::set_max_threads(cap);
        for pipelined in [true, false] {
            let got = fingerprint(&config, pipelined);
            assert_eq!(
                got, expected,
                "thread cap {cap}, pipelined {pipelined}; observed contributions: {:#x?}",
                got.contributions
            );
        }
    }
    par::set_max_threads(0);
}

/// quick_demo (4 owners, 2 groups) over two rounds.
fn flat() -> FlConfig {
    let mut config = FlConfig::quick_demo();
    config.rounds = 2;
    config
}

/// 8 owners in 2 cohorts of 4, 2 secure-agg groups per cohort, two
/// rounds.
fn sharded() -> FlConfig {
    let mut config = flat();
    config.num_owners = 8;
    config.num_cohorts = 2;
    config
}

#[test]
fn flat_group_exact_two_rounds() {
    assert_golden(
        flat(),
        "7d46b14b310c7b94d835ef654924180254a6172dc5e5fa31df6e46eddc2ce2cf",
        "f124ca40413c18e29866ca5bc61f73f609923f2668e393406e856d0130f5200d",
        &[
            0x3fdc444444444444,
            0x3fdd555555555556,
            0x3fdc444444444444,
            0x3fdd555555555556,
        ],
    );
}

#[test]
fn flat_with_dropout_and_recovery_round() {
    let mut config = flat();
    config.dropout_schedule = vec![(0, vec![1])];
    assert_golden(
        config,
        "c7313c9bc869963aa4a31e3fff5aa683577cce24207e99e8fe766938fa768390",
        "8acfc7638fc41de0ca2b26f93ea909b7817b15e8f016dd7c517e462467372bb4",
        &[
            0x3fdd333333333334,
            0x3fcccccccccccccd,
            0x3fdd333333333334,
            0x3fe5333333333333,
        ],
    );
}

#[test]
fn flat_monte_carlo() {
    let mut config = flat();
    config.sv_method = SvMethod::MonteCarlo { permutations: 16 };
    assert_golden(
        config,
        "7329cb284182e2f920696f9f3111db0f490f2a8095c5d3bbb6891e5a5dd788f7",
        "dcdf05cf51b266e7e3483894eed54595095cc312534cf603a7cbc07be79923e3",
        &[
            0x3fdc222222222224,
            0x3fdd777777777778,
            0x3fdc222222222224,
            0x3fdd777777777778,
        ],
    );
}

#[test]
fn flat_stratified() {
    let mut config = flat();
    config.sv_method = SvMethod::Stratified {
        samples_per_stratum: 4,
    };
    assert_golden(
        config,
        "e96c345a149d6277efd60fe64323210905ab8901917032ed8f4c6958cdd263e9",
        "aa3d4eba2876c21eb14567b53ea74184c2e739fbca22beb86ed2d9b39fe70989",
        &[
            0x3fdc444444444444,
            0x3fdd555555555556,
            0x3fdc444444444444,
            0x3fdd555555555556,
        ],
    );
}

#[test]
fn sharded_two_cohorts_two_rounds() {
    assert_golden(
        sharded(),
        "c0c38701fd3801637dbb56985faf25ed8fbc452a9eda56ffe9605bd97f9939f0",
        "7fef4ffeb07cf71b858cd5f72ffe43a30b045fd2bcad980c14d7e06322e266a4",
        &[
            0x3fd0fb5fdc458aed,
            0x3fd015b134cb8624,
            0x3fcf7ea712dcf7ec,
            0x3fcdb27b7446d196,
            0x3fcad60d1441b6f2,
            0x3fc6e7bf53896e7c,
            0x3fcf7ea712dcf7ec,
            0x3fc5d6ae42785d6a,
        ],
    );
}

#[test]
fn sharded_two_cohorts_with_dropout() {
    let mut config = sharded();
    config.dropout_schedule = vec![(1, vec![2, 5])];
    assert_golden(
        config,
        "515f34eeede053c1a657c266cb7b234a8ff114cc3eb292ca885997bf03ba09b5",
        "d94ad79f2f588b266dfb7e4212ceaa1f703e5427a0750d68ce9fe5ab5cae5efc",
        &[
            0x3fd0fb5fdc458aed,
            0x3fd015b134cb8624,
            0x3fbefd4e25b9efd7,
            0x3fd6fb5fdc458aed,
            0x3fcad60d1441b6f2,
            0x3fb435e50d79435e,
            0x3fd60397cdb2c03a,
            0x3fc5d6ae42785d6a,
        ],
    );
}
