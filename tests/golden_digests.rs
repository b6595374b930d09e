//! Golden digests: eight fixed configurations whose tip block digest,
//! final contract state digest and per-owner contribution bit patterns
//! are pinned **across commits**. Every other suite compares a run
//! against another run of the same build; this one compares against
//! constants, so a refactor of the round path proves itself
//! byte-identical (ROADMAP invariant 4) — or fails here.
//!
//! Each configuration is run at thread caps 1, 2, 3 and 8 (3 is the
//! first cap at which a nested `numeric::par` region can lease a thread
//! while an outer one holds part of the budget), pipelined (`run`) and
//! sequential (`run_sequential`); all eight must reproduce the same
//! constants. A mismatch prints the observed values in the constants'
//! own syntax.
//!
//! The `tip` and `state` strings were re-recorded once, in PR 14, on
//! purpose: the state root became a hash over per-section digests
//! (layout: `SmartContract::state_digest` on `FlContract`), a
//! consensus-format change that moves every state root and with it
//! every block and tip digest. The contribution bit patterns were not
//! touched by that change — what the contract computes did not move,
//! only how its state is hashed.
//!
//! The two whole-group dropout configurations were recorded while a
//! group whose members all dropped still sat in the coalition game as a
//! zero-model placeholder, restricted away; they pin that playing the
//! game over the surviving groups alone moved no bit.

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
    for cap in [1, 2, 3, 8] {
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
        "c5a6bf9e2d081e4bf2936b7bded2e3768182a3a115ddd909fc316df6ca3b7e87",
        "91b28c54a0faf08ec5f48b0f3911a7db58069f9f9cbe71f59b74d2c7c81720b5",
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
        "45a5e12580ca0b6971da322551bbe07dc6f9dfd4965aa72cd0f7cc11d34f218c",
        "930d2a4172a5f1addd4105ab416ed816fd480910558e3cdfc1016a6a2c8517c7",
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
        "a2f14c0a98dd983208b7cbdfd4776d70962b6fb3ff387d2ebce9022fdd02dc13",
        "1d73bc74439b9dda84c0aa42fc0a575a664b4c999d6f9701c4f6589b943a0644",
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
        "3b7fa20269a26075c420723d35f2e42010164ee195894f7ae199d74dc7aae2dc",
        "613cd157649646dfaae760a631641423b9f0857c49c63109bab75aadab6407cb",
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
        "035b1ecd3cce3680a29505a5450356bb06f753d8ebd09d1bc2ce19e524d33007",
        "45858feb4ed5838fc10c01cebb9b1bbf0dbb4911c2727c11b7b6ed2a9ef1751a",
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
fn flat_round_with_a_whole_group_dropped() {
    // Round 0 groups the six owners [5, 2], [1, 3], [0, 4].
    let mut config = flat();
    config.num_owners = 6;
    config.num_groups = 3;
    config.dropout_schedule = vec![(0, vec![2, 5])];
    assert_golden(
        config,
        "8d25ec6617b61496423da71bad27af0d3b6c373059180f5d9f6e01ca3caf309f",
        "c02c6d94f165d480216f972fc20d30c34a3e922227ede539525ccac4134fdc25",
        &[
            0x3fd9777777777778,
            0x3fd6444444444444,
            0x3fc3333333333333,
            0x3fd6444444444444,
            0x3fd9777777777778,
            0x3fc3333333333333,
        ],
    );
}

#[test]
fn sharded_round_with_a_whole_group_dropped() {
    // Round 1 puts [7, 4] in a group of cohort 0.
    let mut config = sharded();
    config.dropout_schedule = vec![(1, vec![4, 7])];
    assert_golden(
        config,
        "27e2b4bb10b65a3ba644a0d881b630d2742642c119d8f86b8dc3703dad306eb4",
        "3389f189b2682a99bdf887dbdcb08b562d91c113a144787502b84a495c5f54aa",
        &[
            0x3fd53fa42089cf32,
            0x3fd459f5790fca68,
            0x3fd0a2e1c2520a2f,
            0x3fcf1e9235b2e858,
            0x3fbe34a2b10bf66d,
            0x3fc853d614f5853e,
            0x3fd0a2e1c2520a2f,
            0x3fb435e50d79435e,
        ],
    );
}

#[test]
fn sharded_two_cohorts_with_dropout() {
    let mut config = sharded();
    config.dropout_schedule = vec![(1, vec![2, 5])];
    assert_golden(
        config,
        "ca7f6bc555b1453db3f12588a556d964f615c949aa6c7e6d5ac6ca8ba8060da0",
        "b112f6bfa48e676c0934e960b416fc6c658feba2d0d6b2538e5741aa6489eae5",
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
