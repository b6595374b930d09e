//! End-to-end integration tests spanning every crate: the paper's
//! protocol from dataset generation to on-chain contribution ledger.

use std::collections::BTreeMap;

use fedchain::config::FlConfig;
use fedchain::protocol::{FlProtocol, ProtocolError};
use fedchain::rewards::{allocate, NegativePolicy};
use fl_chain::consensus::engine::{EngineError, MinerBehavior};
use fl_chain::contract::SmartContract;
use fl_chain::gas::Gas;
use fl_chain::tx::AccountId;

fn quick() -> FlConfig {
    FlConfig::quick_demo()
}

#[test]
fn whole_pipeline_runs_and_is_auditable() {
    let mut protocol = FlProtocol::new(quick()).expect("valid config");
    let report = protocol.run().expect("honest run");

    // Chain: one key block + one round block, all replicas consistent.
    assert_eq!(report.blocks, 2);
    let engine = protocol.engine();
    let digests: Vec<_> = (0..4u32)
        .map(|id| engine.contract_of(id).expect("miner").state_digest())
        .collect();
    assert!(digests.windows(2).all(|w| w[0] == w[1]));
    for id in 0..4u32 {
        assert_eq!(engine.store_of(id).expect("miner").verify_chain(), Ok(()));
    }

    // Learning: the federated model beats random guessing decisively.
    assert!(report.accuracy_history[0] > 0.5);

    // Economics: rewards follow contributions.
    let payouts = allocate(100.0, &report.per_owner_sv, NegativePolicy::ClampZero);
    assert!((payouts.iter().sum::<f64>() - 100.0).abs() < 1e-6);
}

#[test]
fn sharded_cohort_run_spans_mempool_consensus_and_audit() {
    // 64 owners in 4 cohorts of 16, 2 secure-agg groups per cohort, an
    // 8-owner miner committee: the round streams 4 cohort blocks through
    // the mempool, every committee replica converges, and a full replay
    // audit verifies each per-cohort bundle's state root.
    let mut config = quick();
    config.num_owners = 64;
    config.num_groups = 2;
    config.num_cohorts = 4;
    config.miner_committee = 8;
    let mut protocol = FlProtocol::new(config).expect("valid config");
    let report = protocol.run().expect("honest run");

    // One key block + one block per cohort.
    assert_eq!(report.blocks, 5);
    assert_eq!(report.per_owner_sv.len(), 64);
    let record = &report.round_records[0];
    assert_eq!(record.cohorts.len(), 4);
    assert_eq!(record.groups.len(), 8);
    let mut members: Vec<usize> = record
        .cohorts
        .iter()
        .flat_map(|c| c.members.clone())
        .collect();
    members.sort_unstable();
    assert_eq!(members, (0..64).collect::<Vec<_>>());

    let engine = protocol.engine();
    assert_eq!(engine.miner_count(), 8);
    let digests: Vec<_> = (0..8u32)
        .map(|id| engine.contract_of(id).expect("miner").state_digest())
        .collect();
    assert!(digests.windows(2).all(|w| w[0] == w[1]));
    for id in 0..8u32 {
        assert_eq!(engine.store_of(id).expect("miner").verify_chain(), Ok(()));
    }

    let params = protocol.contract().params().clone();
    let audit = fedchain::audit::replay_chain(
        engine.store_of(0).expect("miner"),
        params,
        protocol.test_set().clone(),
    )
    .expect("replay");
    assert!(audit.clean, "per-cohort bundles must replay exactly");
}

#[test]
fn masked_updates_on_chain_never_equal_plaintext_encodings() {
    // Privacy audit: walk the committed blocks and check that no
    // submitted masked vector could be trivially decoded into a weight
    // vector of plausible magnitude. A plaintext fixed-point encoding of
    // logistic-regression weights decodes to values in (say) ±100; a
    // masked vector decodes to ring-uniform garbage.
    use fedchain::contract_fl::FlCall;
    use numeric::FixedCodec;

    let mut config = quick();
    config.num_groups = 1; // one group of 4: everyone is pairwise masked
    let mut protocol = FlProtocol::new(config.clone()).expect("valid config");
    protocol.run().expect("honest run");

    let engine = protocol.engine();
    let store = engine.store_of(0).expect("miner");
    let codec = FixedCodec::new(config.frac_bits);
    let mut masked_seen = 0;
    for height in 0..store.height() {
        let block = store.block_at(height).expect("height valid");
        for tx in &block.txs {
            if let FlCall::SubmitMaskedUpdate { masked, .. } = &tx.call {
                masked_seen += 1;
                let decoded = codec.decode_vec(masked);
                let wild = decoded.iter().filter(|v| v.abs() > 1e6).count();
                assert!(
                    wild * 2 > decoded.len(),
                    "a masked update decoded to mostly-plausible weights — mask missing?"
                );
            }
        }
    }
    assert_eq!(masked_seen, 4, "all four masked updates are on-chain");
}

#[test]
fn on_chain_group_sv_matches_off_chain_algorithm_1() {
    // The contract's evaluation must equal the off-chain reference
    // implementation of Algorithm 1 run over the same local updates.
    use fedchain::contract_fl::AccuracyUtility;
    use fedchain::world::World;
    use shapley::group::{group_shapley, GroupSvConfig};

    let config = quick();
    let mut protocol = FlProtocol::new(config.clone()).expect("valid config");
    let report = protocol.run().expect("honest run");

    // Rebuild the same world off-chain and train the same local updates.
    let world = World::generate(&config).expect("valid config");
    let updates = world.local_updates(&config);
    let utility = AccuracyUtility::new(&world.test, config.data.features, config.data.classes);
    let off_chain = group_shapley(
        &updates,
        &utility,
        &GroupSvConfig {
            num_groups: config.num_groups,
            seed: config.permutation_seed,
            round: 0,
        },
    );

    let on_chain = &report.round_records[0];
    assert_eq!(on_chain.per_owner_sv.len(), off_chain.per_user.len());
    for (chain, reference) in on_chain.per_owner_sv.iter().zip(&off_chain.per_user) {
        assert!(
            (chain - reference).abs() < 1e-6,
            "on-chain {chain} vs off-chain {reference} — fixed-point noise only"
        );
    }
}

#[test]
fn single_fraudulent_leader_cannot_alter_the_ledger() {
    let honest = {
        let mut p = FlProtocol::new(quick()).expect("valid config");
        p.run().expect("honest run")
    };
    let behaviors: BTreeMap<AccountId, MinerBehavior> =
        [(0u32, MinerBehavior::CorruptProposals)].into();
    let mut p = FlProtocol::with_behaviors(quick(), &behaviors).expect("valid config");
    let fraud = p.run().expect("honest majority commits");

    assert!(fraud.failed_views > 0);
    assert_eq!(honest.per_owner_sv, fraud.per_owner_sv);
    assert_eq!(honest.accuracy_history, fraud.accuracy_history);
}

#[test]
fn byzantine_majority_blocks_progress() {
    let behaviors: BTreeMap<AccountId, MinerBehavior> = [
        (1u32, MinerBehavior::RejectAll),
        (2u32, MinerBehavior::RejectAll),
        (3u32, MinerBehavior::RejectAll),
    ]
    .into();
    let mut p = FlProtocol::with_behaviors(quick(), &behaviors).expect("valid config");
    match p.run() {
        Err(ProtocolError::Consensus(EngineError::NoQuorum { .. })) => {}
        other => panic!("expected NoQuorum, got {other:?}"),
    }
}

#[test]
fn gas_grows_with_cohort_size() {
    let gas_for = |owners: usize| -> Gas {
        let mut config = quick();
        config.num_owners = owners;
        config.num_groups = 2;
        let mut p = FlProtocol::new(config).expect("valid config");
        p.run().expect("honest run").total_gas
    };
    let small = gas_for(3);
    let large = gas_for(6);
    assert!(
        large > small,
        "more owners must burn more gas: {small} vs {large}"
    );
}

#[test]
fn multi_round_ledger_is_sum_of_round_records() {
    let mut config = quick();
    config.rounds = 3;
    let mut p = FlProtocol::new(config).expect("valid config");
    let report = p.run().expect("honest run");
    assert_eq!(report.round_records.len(), 3);
    for (owner, &total) in report.per_owner_sv.iter().enumerate() {
        let per_round: f64 = report
            .round_records
            .iter()
            .map(|r| r.per_owner_sv[owner])
            .sum();
        assert!((total - per_round).abs() < 1e-12);
    }
}

#[test]
fn determinism_across_full_stack() {
    // Two completely independent protocol instances must agree on every
    // observable: SVs, accuracies, chain digests — without that,
    // verification by re-execution (`fl_chain::consensus::engine`) cannot
    // work.
    let run = || {
        let mut p = FlProtocol::new(quick()).expect("valid config");
        let report = p.run().expect("honest run");
        let tip = p.engine().store_of(0).expect("miner").tip_digest();
        (report.per_owner_sv, report.accuracy_history, tip)
    };
    let (sv1, acc1, tip1) = run();
    let (sv2, acc2, tip2) = run();
    assert_eq!(sv1, sv2);
    assert_eq!(acc1, acc2);
    assert_eq!(tip1, tip2);
}
