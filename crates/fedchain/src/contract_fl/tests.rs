use super::*;
use fl_chain::codec::{Decode, DecodeError};
use fl_chain::contract::{SmartContract, TxContext};
use fl_crypto::shamir::Shamir;
use fl_ml::dataset::SyntheticDigits;
use numeric::FixedCodec;
use shapley::hierarchy::RoundPlan;

fn test_params(n: usize, m: usize) -> FlParams {
    FlParams {
        owners: (0..n as u32).collect(),
        num_groups: m,
        sv_method: SvMethod::GroupExact,
        permutation_seed: 7,
        total_rounds: 2,
        model_dim: (64 + 1) * 10,
        num_features: 64,
        num_classes: 10,
        frac_bits: 24,
        escrow_threshold: n / 2 + 1,
        num_cohorts: 1,
    }
}

fn contract(n: usize, m: usize) -> FlContract {
    let test_set = SyntheticDigits::small().generate(99);
    FlContract::genesis(test_params(n, m), test_set)
}

fn ctx(sender: AccountId) -> TxContext {
    TxContext {
        block_height: 0,
        view: 0,
        sender,
        tx_index: 0,
    }
}

fn advertise_all(c: &mut FlContract, n: usize) {
    for i in 0..n as u32 {
        c.execute(
            &ctx(i),
            &FlCall::AdvertiseKey {
                public_key: vec![i as u8 + 1; 32],
            },
        )
        .unwrap();
    }
}

/// Empties slot `p` of a per-owner table, as only a doctored snapshot
/// can.
fn clear<T>(table: &mut Table<T>, p: usize) {
    if table.slots[p].take().is_some() {
        table.filled -= 1;
    }
}

/// Unmasked "masked" updates: with no pairwise masks (sum of zero
/// masks), the ring math still holds — the contract cannot tell.
fn plain_update(c: &FlContract, value: f64) -> Vec<u64> {
    let codec = FixedCodec::new(c.params().frac_bits);
    codec.encode_vec(&vec![value; c.params().model_dim])
}

#[test]
fn owner_positions_follow_the_owner_list_not_the_ids() {
    let mut params = test_params(3, 2);
    params.owners = vec![9, 2, 5];
    let mut c = FlContract::genesis(params, SyntheticDigits::small().generate(99));
    assert_eq!(c.genesis.by_id, vec![1, 2, 0]);
    assert_eq!(c.genesis.position(9), Ok(0));
    assert_eq!(c.genesis.position(2), Ok(1));
    assert_eq!(c.genesis.position(5), Ok(2));
    // An id between two owner ids is no owner, before or after them.
    for stranger in [0, 4, 7, 10] {
        assert_eq!(
            c.genesis.position(stranger),
            Err(FlError::NotAnOwner(stranger))
        );
    }
    let public_key = vec![1; 32];
    assert!(matches!(
        c.execute(&ctx(4), &FlCall::AdvertiseKey { public_key }),
        Err(FlError::NotAnOwner(4))
    ));
}

#[test]
fn key_exchange_rules() {
    let mut c = contract(3, 2);
    assert!(matches!(
        c.execute(
            &ctx(9),
            &FlCall::AdvertiseKey {
                public_key: vec![1; 32]
            }
        ),
        Err(FlError::NotAnOwner(9))
    ));
    // Keys must be full-width group elements: a short (or oversized)
    // encoding is rejected before it can poison the recovery path.
    assert!(matches!(
        c.execute(
            &ctx(0),
            &FlCall::AdvertiseKey {
                public_key: vec![1]
            }
        ),
        Err(FlError::BadKeyEncoding {
            expected: 32,
            got: 1
        })
    ));
    assert!(matches!(
        c.execute(
            &ctx(0),
            &FlCall::AdvertiseKey {
                public_key: vec![1; 33]
            }
        ),
        Err(FlError::BadKeyEncoding {
            expected: 32,
            got: 33
        })
    ));
    // Length-valid but degenerate or non-canonical group elements are
    // rejected with the offender named (a degenerate key would force a
    // predictable pair mask on every peer).
    for bad in [vec![0u8; 32], {
        let mut one = vec![0u8; 32];
        one[31] = 1;
        one
    }] {
        assert!(matches!(
            c.execute(&ctx(0), &FlCall::AdvertiseKey { public_key: bad }),
            Err(FlError::InvalidKeyElement { owner: 0, .. })
        ));
    }
    assert!(matches!(
        c.execute(
            &ctx(0),
            &FlCall::AdvertiseKey {
                public_key: vec![0xFF; 32] // >= p: not canonical
            }
        ),
        Err(FlError::InvalidKeyElement { owner: 0, .. })
    ));
    c.execute(
        &ctx(0),
        &FlCall::AdvertiseKey {
            public_key: vec![1; 32],
        },
    )
    .unwrap();
    assert!(matches!(
        c.execute(
            &ctx(0),
            &FlCall::AdvertiseKey {
                public_key: vec![2; 32]
            }
        ),
        Err(FlError::KeyAlreadyAdvertised(0))
    ));
    assert_eq!(c.public_key_of(0), Some(&[1u8; 32][..]));
    assert_eq!(c.public_key_of(1), None);
}

#[test]
fn submissions_require_complete_keys() {
    let mut c = contract(3, 2);
    let update = plain_update(&c, 0.1);
    assert!(matches!(
        c.execute(
            &ctx(0),
            &FlCall::SubmitMaskedUpdate {
                round: 0,
                masked: update
            }
        ),
        Err(FlError::KeysIncomplete { have: 0, need: 3 })
    ));
}

#[test]
fn submission_validation() {
    let mut c = contract(3, 2);
    advertise_all(&mut c, 3);
    let update = plain_update(&c, 0.1);
    // Wrong round.
    assert!(matches!(
        c.execute(
            &ctx(0),
            &FlCall::SubmitMaskedUpdate {
                round: 5,
                masked: update.clone()
            }
        ),
        Err(FlError::WrongRound {
            expected: 0,
            got: 5
        })
    ));
    // Wrong dimension.
    assert!(matches!(
        c.execute(
            &ctx(0),
            &FlCall::SubmitMaskedUpdate {
                round: 0,
                masked: vec![0u64; 3]
            }
        ),
        Err(FlError::DimMismatch { .. })
    ));
    // Valid, then duplicate.
    c.execute(
        &ctx(0),
        &FlCall::SubmitMaskedUpdate {
            round: 0,
            masked: update.clone(),
        },
    )
    .unwrap();
    assert!(matches!(
        c.execute(
            &ctx(0),
            &FlCall::SubmitMaskedUpdate {
                round: 0,
                masked: update
            }
        ),
        Err(FlError::DuplicateSubmission(0))
    ));
}

#[test]
fn incomplete_round_needs_threshold_survivors_and_escrow() {
    // 3 owners, threshold 2. One submission: survivors below the
    // escrow threshold, the round cannot even open recovery.
    let mut c = contract(3, 2);
    advertise_all(&mut c, 3);
    let update = plain_update(&c, 0.1);
    c.execute(
        &ctx(0),
        &FlCall::SubmitMaskedUpdate {
            round: 0,
            masked: update.clone(),
        },
    )
    .unwrap();
    assert!(matches!(
        c.execute(&ctx(0), &FlCall::EvaluateRound { round: 0 }),
        Err(FlError::InsufficientSurvivors {
            survivors: 1,
            need: 2
        })
    ));
    // Two submissions reach the threshold, but the missing owner
    // never escrowed its key shares: its masks are unrecoverable.
    c.execute(
        &ctx(1),
        &FlCall::SubmitMaskedUpdate {
            round: 0,
            masked: update,
        },
    )
    .unwrap();
    assert!(matches!(
        c.execute(&ctx(0), &FlCall::EvaluateRound { round: 0 }),
        Err(FlError::EscrowMissing(2))
    ));
    // Nothing transitioned: the round is still accepting submissions.
    assert_eq!(c.phase(), &RoundPhase::Submitting);
}

#[test]
fn full_round_evaluates_and_advances() {
    let mut c = contract(4, 2);
    advertise_all(&mut c, 4);
    for i in 0..4u32 {
        let update = plain_update(&c, 0.01 * (i as f64 + 1.0));
        c.execute(
            &ctx(i),
            &FlCall::SubmitMaskedUpdate {
                round: 0,
                masked: update,
            },
        )
        .unwrap();
    }
    let out = c
        .execute(&ctx(0), &FlCall::EvaluateRound { round: 0 })
        .unwrap();
    assert!(out.events[0].contains("evaluate: round 0"));
    assert_eq!(c.current_round(), 1);
    assert_eq!(c.history().len(), 1);
    let record = &c.history()[0];
    assert_eq!(record.per_owner_sv.len(), 4);
    assert_eq!(record.utility_evaluations, 4); // 2^m, m=2
                                               // Groups partition all 4 owners.
    let total: usize = record.groups.iter().map(Vec::len).sum();
    assert_eq!(total, 4);
    // Submissions cleared for the next round.
    assert_eq!(c.submissions.filled, 0);
}

fn contract_with_method(n: usize, m: usize, method: SvMethod) -> FlContract {
    let mut params = test_params(n, m);
    params.sv_method = method;
    let test_set = SyntheticDigits::small().generate(99);
    FlContract::genesis(params, test_set)
}

fn run_one_round(c: &mut FlContract, n: usize) {
    advertise_all(c, n);
    for i in 0..n as u32 {
        let update = plain_update(c, 0.01 * (i as f64 + 1.0));
        c.execute(
            &ctx(i),
            &FlCall::SubmitMaskedUpdate {
                round: 0,
                masked: update,
            },
        )
        .unwrap();
    }
    c.execute(&ctx(0), &FlCall::EvaluateRound { round: 0 })
        .unwrap();
}

#[test]
fn method_choice_appears_in_audit_record() {
    let method = SvMethod::Stratified {
        samples_per_stratum: 2,
    };
    let mut c = contract_with_method(4, 4, method);
    run_one_round(&mut c, 4);
    let record = &c.history()[0];
    assert_eq!(record.sv_method, method);
    // Stratified cost envelope: 2 evals × m² strata × k samples.
    assert_eq!(record.utility_evaluations, 2 * 16 * 2);
    assert_eq!(record.samples, 16 * 2);
    // Exact records report zero samples.
    let mut exact = contract_with_method(4, 4, SvMethod::GroupExact);
    run_one_round(&mut exact, 4);
    let exact_record = &exact.history()[0];
    assert_eq!(exact_record.sv_method, SvMethod::GroupExact);
    assert_eq!(exact_record.samples, 0);
    assert_eq!(exact_record.utility_evaluations, 16);
}

#[test]
fn method_name_appears_in_round_event() {
    let mut c = contract_with_method(3, 3, SvMethod::MonteCarlo { permutations: 8 });
    advertise_all(&mut c, 3);
    for i in 0..3u32 {
        let update = plain_update(&c, 0.01);
        c.execute(
            &ctx(i),
            &FlCall::SubmitMaskedUpdate {
                round: 0,
                masked: update,
            },
        )
        .unwrap();
    }
    let out = c
        .execute(&ctx(0), &FlCall::EvaluateRound { round: 0 })
        .unwrap();
    assert!(
        out.events[0].contains("method monte_carlo"),
        "event must name the estimator: {}",
        out.events[0]
    );
}

#[test]
fn method_is_part_of_the_state_digest() {
    // Two replicas that agree on everything but the estimator must
    // diverge from genesis: the method is consensus configuration.
    let a = contract_with_method(3, 2, SvMethod::GroupExact);
    let b = contract_with_method(3, 2, SvMethod::MonteCarlo { permutations: 50 });
    assert_ne!(a.state_digest(), b.state_digest());
}

#[test]
fn sampling_replicas_stay_digest_identical() {
    // The sampling estimators are deterministic per (seed, round), so
    // two honest replicas running Stratified agree bit-for-bit.
    let method = SvMethod::Stratified {
        samples_per_stratum: 3,
    };
    let mut a = contract_with_method(4, 2, method);
    let mut b = contract_with_method(4, 2, method);
    run_one_round(&mut a, 4);
    run_one_round(&mut b, 4);
    assert_eq!(a.state_digest(), b.state_digest());
    assert_eq!(a.history()[0].per_owner_sv, b.history()[0].per_owner_sv);
}

/// Genesis panics through `FlParams::validate`, and only through it.
#[test]
#[should_panic(expected = "must support the group count")]
fn genesis_rejects_method_that_cannot_cover_the_groups() {
    let mut params = test_params(4, 2);
    params.sv_method = SvMethod::MonteCarlo { permutations: 0 };
    let test_set = SyntheticDigits::small().generate(99);
    let _ = FlContract::genesis(params, test_set);
}

#[test]
fn contributions_accumulate_across_rounds() {
    let mut c = contract(3, 3);
    advertise_all(&mut c, 3);
    for round in 0..2u64 {
        for i in 0..3u32 {
            let update = plain_update(&c, 0.01 * (i as f64 + 1.0));
            c.execute(
                &ctx(i),
                &FlCall::SubmitMaskedUpdate {
                    round,
                    masked: update,
                },
            )
            .unwrap();
        }
        c.execute(&ctx(0), &FlCall::EvaluateRound { round })
            .unwrap();
    }
    assert!(c.finished());
    // Cumulative SV equals the sum over round records.
    for (pos, owner) in (0..3u32).enumerate() {
        let total: f64 = c.history().iter().map(|r| r.per_owner_sv[pos]).sum();
        let ledger = c.contributions()[&owner];
        assert!((ledger - total).abs() < 1e-12);
    }
    // Further activity is rejected.
    assert!(matches!(
        c.execute(&ctx(0), &FlCall::EvaluateRound { round: 2 }),
        Err(FlError::ProtocolFinished)
    ));
}

#[test]
fn replicas_stay_digest_identical() {
    let mut a = contract(3, 2);
    let mut b = contract(3, 2);
    assert_eq!(a.state_digest(), b.state_digest());
    advertise_all(&mut a, 3);
    advertise_all(&mut b, 3);
    assert_eq!(a.state_digest(), b.state_digest());
    let update = plain_update(&a, 0.2);
    for c in [&mut a, &mut b] {
        c.execute(
            &ctx(1),
            &FlCall::SubmitMaskedUpdate {
                round: 0,
                masked: update.clone(),
            },
        )
        .unwrap();
    }
    assert_eq!(a.state_digest(), b.state_digest());
}

#[test]
fn digest_changes_with_state() {
    let mut c = contract(3, 2);
    let before = c.state_digest();
    advertise_all(&mut c, 3);
    assert_ne!(c.state_digest(), before);
}

#[test]
fn flat_round_record_has_no_cohort_section() {
    let mut c = contract(4, 2);
    run_one_round(&mut c, 4);
    assert!(c.history()[0].cohorts.is_empty());
}

#[test]
#[should_panic(expected = "num_cohorts must be in 1..=4")]
fn genesis_rejects_zero_cohorts() {
    let mut params = test_params(4, 2);
    params.num_cohorts = 0;
    FlContract::genesis(params, SyntheticDigits::small().generate(99));
}

#[test]
#[should_panic(expected = "num_cohorts must be in 1..=4")]
fn genesis_rejects_more_cohorts_than_owners() {
    let mut params = test_params(4, 1);
    params.num_cohorts = 5;
    FlContract::genesis(params, SyntheticDigits::small().generate(99));
}

#[test]
#[should_panic(expected = "exceed the smallest cohort")]
fn genesis_rejects_groups_wider_than_smallest_cohort() {
    let mut params = test_params(4, 3);
    params.num_cohorts = 2;
    FlContract::genesis(params, SyntheticDigits::small().generate(99));
}

#[test]
#[should_panic(expected = "SV method must support the cohort count")]
fn genesis_rejects_method_incapable_of_cohort_count() {
    let mut params = test_params(26, 1);
    params.num_cohorts = 26;
    FlContract::genesis(params, SyntheticDigits::small().generate(99));
}

#[test]
fn validate_rejects_every_bad_genesis_layout() {
    // (owners, groups, cohorts, method, the check that fails): genesis'
    // checks, stated by `FlParams::validate` as typed errors.
    let cases = [
        (
            4,
            2,
            1,
            SvMethod::MonteCarlo { permutations: 0 },
            "group count",
        ),
        (4, 2, 0, SvMethod::GroupExact, "num_cohorts"),
        (4, 1, 5, SvMethod::GroupExact, "num_cohorts"),
        (4, 3, 2, SvMethod::GroupExact, "smallest cohort"),
        (26, 1, 26, SvMethod::GroupExact, "cohort count"),
    ];
    let test_set = SyntheticDigits::small().generate(99);
    for (n, m, k, method, check) in cases {
        let mut params = test_params(n, m);
        params.num_cohorts = k;
        params.sv_method = method;
        match params.validate(&test_set) {
            Err(FlError::InvalidParams(reason)) if reason.contains(check) => {}
            other => panic!("n={n} m={m} k={k} {method:?}: {other:?}"),
        }
    }
}

#[test]
fn duplicate_owner_ids_are_rejected_before_genesis() {
    // Two positions sharing id 0 would leave one key slot for two
    // owners, and the round would wait on `KeysIncomplete` forever.
    let test_set = SyntheticDigits::small().generate(99);
    let params = FlParams {
        owners: vec![0, 0, 1],
        escrow_threshold: 2,
        ..test_params(3, 1)
    };
    match params.validate(&test_set) {
        Err(FlError::InvalidParams(reason)) if reason.contains("duplicate owner id 0") => {}
        other => panic!("owners [0, 0, 1]: {other:?}"),
    }
    match crate::audit::replay_chain(&fl_chain::store::ChainStore::new(), params, test_set) {
        Err(crate::audit::AuditError::InvalidParams(FlError::InvalidParams(_))) => {}
        other => panic!("replay_chain: {other:?}"),
    }
}

#[test]
fn sharded_history_snapshot_roundtrip() {
    // CohortEvidence must survive the snapshot/restore cycle and
    // land on the identical state digest.
    let (n, m, k) = (8usize, 2usize, 2usize);
    let mut w = dropout_lifecycle::masked_world_sharded(n, m, k);
    for i in 0..n {
        let masked = dropout_lifecycle::masked_submission(&w, i, 0);
        w.contract
            .execute(
                &ctx(i as u32),
                &FlCall::SubmitMaskedUpdate { round: 0, masked },
            )
            .unwrap();
    }
    w.contract
        .execute(&ctx(0), &FlCall::EvaluateRound { round: 0 })
        .unwrap();
    assert!(!w.contract.history()[0].cohorts.is_empty());
    let snap = w.contract.snapshot_state();
    let restored = FlContract::restore(
        w.contract.params().clone(),
        SyntheticDigits::small().generate(99),
        &snap,
    )
    .unwrap();
    assert_eq!(restored.state_digest(), w.contract.state_digest());
}

mod dropout_lifecycle {
    //! The round state machine under real pairwise masks: escrow,
    //! dropout declaration, share verification, survivor-only
    //! evaluation.

    use super::*;
    use fl_crypto::dh::{DhGroup, DhKeyPair};
    use fl_crypto::dropout::escrow_private_key;
    use fl_crypto::secure_agg::{KeyDirectory, PartyState};
    use fl_crypto::ChaChaPrg;

    pub(super) struct MaskedWorld {
        pub contract: FlContract,
        /// `ids[i]`: the account id at owner position `i`.
        pub ids: Vec<AccountId>,
        pub keypairs: Vec<DhKeyPair>,
        /// `escrowed[i][j]`: share of owner i's key held by owner j.
        pub escrowed: Vec<Vec<Share>>,
        pub groups: Vec<Vec<usize>>,
        pub weights: Vec<Vec<f64>>,
    }

    /// Builds a contract with real DH keys advertised, escrows
    /// committed, and per-owner plaintext weights prepared.
    pub(super) fn masked_world(n: usize, m: usize) -> MaskedWorld {
        masked_world_from(super::contract(n, m))
    }

    /// Like [`masked_world`] but sharded into `k` cohorts: the
    /// group directories are the flattened per-cohort groupings of
    /// the round-0 cohort plan.
    pub(super) fn masked_world_sharded(n: usize, m: usize, k: usize) -> MaskedWorld {
        let mut params = test_params(n, m);
        params.num_cohorts = k;
        let test_set = SyntheticDigits::small().generate(99);
        masked_world_from(FlContract::genesis(params, test_set))
    }

    /// Like [`masked_world`] over the owner list `ids`, which need
    /// not ascend with the positions.
    pub(super) fn masked_world_with_ids(ids: &[AccountId], m: usize) -> MaskedWorld {
        let mut params = test_params(ids.len(), m);
        params.owners = ids.to_vec();
        masked_world_from(FlContract::genesis(
            params,
            SyntheticDigits::small().generate(99),
        ))
    }

    fn masked_world_from(contract: FlContract) -> MaskedWorld {
        let ids = contract.params().owners.clone();
        let n = ids.len();
        let m = contract.params().num_groups;
        let k = contract.params().num_cohorts;
        let dh = DhGroup::simulation_256();
        let shamir = Shamir::default();
        let threshold = contract.params().escrow_threshold;
        let keypairs: Vec<DhKeyPair> = (0..n)
            .map(|i| dh.keypair_from_seed(&[i as u8 + 1; 32]))
            .collect();
        let mut c = contract;
        for (&id, kp) in ids.iter().zip(&keypairs) {
            c.execute(
                &ctx(id),
                &FlCall::AdvertiseKey {
                    public_key: kp.public.to_be_bytes(),
                },
            )
            .unwrap();
        }
        let escrowed: Vec<Vec<Share>> = keypairs
            .iter()
            .enumerate()
            .map(|(i, kp)| {
                let mut prg = ChaChaPrg::from_seed(&[i as u8 + 50; 32]);
                escrow_private_key(&shamir, kp, threshold, n, &mut prg).unwrap()
            })
            .collect();
        for (&id, shares) in ids.iter().zip(&escrowed) {
            let commitments: Vec<Hash32> = shares.iter().map(|s| share_commitment(id, s)).collect();
            c.execute(&ctx(id), &FlCall::EscrowKeyShares { commitments })
                .unwrap();
        }
        let groups: Vec<Vec<usize>> = RoundPlan::new(c.params().permutation_seed, 0, n, k, m)
            .unwrap()
            .groups()
            .concat();
        let dim = c.params().model_dim;
        let weights: Vec<Vec<f64>> = (0..n).map(|i| vec![0.1 * (i as f64 + 1.0); dim]).collect();
        MaskedWorld {
            contract: c,
            ids,
            keypairs,
            escrowed,
            groups,
            weights,
        }
    }

    pub(super) fn masked_submission(w: &MaskedWorld, i: usize, round: u64) -> Vec<u64> {
        let codec = FixedCodec::new(w.contract.params().frac_bits);
        let group = w
            .groups
            .iter()
            .find(|g| g.contains(&i))
            .expect("every owner grouped");
        if group.len() == 1 {
            return codec.encode_vec(&w.weights[i]);
        }
        let dh = DhGroup::simulation_256();
        let mut dir = KeyDirectory::new();
        for &j in group {
            dir.advertise(w.ids[j], w.keypairs[j].public).unwrap();
        }
        let party = PartyState::derive(&dh, w.ids[i], &w.keypairs[i], &dir).unwrap();
        party.masked_update(&codec, round, &w.weights[i])
    }

    /// Round-0 masked submissions from `owners`, each accepted.
    fn submit_round0(w: &mut MaskedWorld, owners: &[usize]) {
        for &i in owners {
            let masked = masked_submission(w, i, 0);
            w.contract
                .execute(
                    &ctx(w.ids[i]),
                    &FlCall::SubmitMaskedUpdate { round: 0, masked },
                )
                .unwrap();
        }
    }

    /// Position `provider`'s escrowed share of position `dropped`'s key.
    pub(super) fn recovery_share(
        w: &MaskedWorld,
        round: u64,
        dropped: usize,
        provider: usize,
    ) -> FlCall {
        let share = &w.escrowed[dropped][provider];
        FlCall::SubmitRecoveryShare {
            round,
            dropped: w.ids[dropped],
            share_x: share.x,
            share_y: share.y.to_be_bytes(),
        }
    }

    /// Owner ids that do not ascend with their positions, driven call
    /// by call through setup, a round with one dropout recovered from
    /// more survivors than the threshold, and a clean round. After each
    /// call the state digest and the SHA-256 of the snapshot are pinned:
    /// both are consensus formats. Every `FlProtocol` run uses ids
    /// `0..n`, where id order and position order coincide; this is the
    /// test that tells them apart.
    #[test]
    fn unordered_owner_ids_pin_every_state_and_snapshot() {
        const PINS: [(&str, &str); 26] = [
            (
                "c300da355fc1c247f046d9649f917db1b6c29dce16c73b775cb4ba8ddfb7070a",
                "111a6169624f60e352af6a2b91a80ef3fb54161ac1e6cb85a74d4fce49f1d29b",
            ),
            (
                "9961421150c7c7d6c35f4f36463ccfefc2d63b178386cc7577383b43c0a9fb81",
                "4ee6e7fc7ef8babb7285c0a40bfb94fa299f000119dcef7671e83212261611bd",
            ),
            (
                "52d821fbcf4437587dcfed555da43e057e92e4f9de88681474e07bddba20226c",
                "a3ebead85e2ffd067b0213d879698f4b34173f9ddf171e68d5722703c2a59930",
            ),
            (
                "1d97c32c2c290a582d4f512d38da27acf30b3f4fece6a7f354c7aa5d643ad6f3",
                "b33643ce6b39d845b28fb4af52b2d05fff9d7df5b038819c984d0f60d13f7bbe",
            ),
            (
                "5032539012f1ea5408a015e51f12205e040e3fe679a2a32013e597861109fec6",
                "1251a014fbb3279e584a2acb8070ea2ea233fb8b2eab02739f696fc4458543fa",
            ),
            (
                "3607eef01f74c2ff9e999ed175866fcbe82589f6321767edad3027fea52318b0",
                "f67bcb45f0323ecd4dc6974add74dfde77a2a0a35c53738d5a70b5451f8eed85",
            ),
            (
                "75af48af3cef815e41901daa9443375e0a146b13301e718ec33b07f9a9dca2eb",
                "97d91f16a2807d86e28b1ffcdc2093f07a43dd58eddec220a1d9b4fa22e68ffb",
            ),
            (
                "a21df61a55127bb90cc8466a3603eb7d57021058f5bfb5462c0228d04fe13c9e",
                "66957fff97a7747ec6b3420d2b6b466ae670e28f7abddcb9e012ad0f4557201f",
            ),
            (
                "9c02c5ea6741c6596e416880597702636a4984cfe1153e2f8d673364ce44188a",
                "c3e47eb76173662b150664d73a3ae00ef6c493851294c58adfb51a39682e1aec",
            ),
            (
                "d26462da86f74f8fcd3526ac367b1b4ee49b384e8771e0089443c52ac63b7ca0",
                "2fd571fc34e3989f67e57784545f16ef1bd27398055af771b0783ea77d81f925",
            ),
            (
                "10f3a4713e4f029fbde27646aef3f91172e1cc79419c6574493569190e436d4e",
                "ff9ce13a95bf7923968fb0c40dcbd7bfb33e491319a0e094dc75a17ebe102ceb",
            ),
            (
                "4785e18bb8c330a1d50757e43ce4ec22c198291299b05419411ddb605a144f0d",
                "5e4c56756c890452c7035394da10ee90781a5c2539a0544cd92e5149ef5b921c",
            ),
            (
                "176a3b3097b1bbf6c49161277155a959a1b9ec74abea5c679819e4016351cbcf",
                "3e4df4d0b421b23261c6623d645100eeb6dd27ad561e3fac72ad9f9da25a59fd",
            ),
            (
                "de9dd39118c004e47405a02fc0fd63e8269e61436b034c094f741ecd3a131cb2",
                "8b0d5644232db0b42296ce1537559e88e5115ae2d9c2f75a61d1bb09cf30df16",
            ),
            (
                "62f6364e3268127ca430b18885a71923743e323ee9cc2605a5eda98b6b63fd41",
                "2a8ac5ce51c29b7852b5b98a66122ebb1ca0147505bd04433231397a407094eb",
            ),
            (
                "2447992e23248ac442b7b28789fbcdf6dc1c902a414596c5f8826bcde703548f",
                "e5815e1c9b14611d49d7e1936b525b11d78f60fd200d8da1d34eca9b44c562da",
            ),
            (
                "afb05e55e520fc06756e432215fa1f52c01d4b2ffd434b6dcb7e4e34f764af2e",
                "8b8b465170e134fb73e9eb384cc298b7691f65c16c40db514b301ec18602898e",
            ),
            (
                "cc8160ec5d7ed19fe5c030aaf3bc2b19c01e23720536e084f39a0a339752cb46",
                "f015a4a950c2af2424f8f91d8431e91a87f693125665396ce37dc7473ebfd594",
            ),
            (
                "45c467d25ab53732f518ca5a686905fa89ad0543f3c01f959280fe184de9e5e6",
                "63127c8c01fc33e2928b9722dbf2e91794585a7573a2df6b94045012ad6ca1f2",
            ),
            (
                "a19828def8d9698161d47d2ea89adacef24a334bf2b45356b4080e8f0deefc32",
                "c4a79102d71bf93fd19acb5aa1dc5a220028a825ef833bff36c8a301b1e0f8a7",
            ),
            (
                "32a70579c780962306eb64e06c15cfb85e2489b8856fb97ce1a336da75adf45c",
                "ab41001609eab5ef34a42c944c08627fd591ef43cf65dd88d0bef86ad9ef3153",
            ),
            (
                "2957b1b0a7b7a83503ff348c61e8ec464ce56a89cc93cc7ccd12785fe158a92b",
                "67a5960cdd63d81ec95d04cbd8b77210b6bf4fe50673bd091bc199bced7ad876",
            ),
            (
                "6bfeab37b65f88b342b03e5d9db1e7f252cf8117ea98e94449076492d30243b7",
                "fdca634311e96971596b778bc5f769eaf731a846c269525c9954bbb7cd494414",
            ),
            (
                "df2fc6f94eb758192e5221d7f85c9824d334c92b451b385cd119899a0b728db0",
                "f8ea4ac408b69152c36a4da2150bea7a518078077018766ef973ccacea38a2a1",
            ),
            (
                "5317c6d80f172ecf796a8f65025f0798f4ddf617025db388c82f5875566b3a6a",
                "8e7b30c924fe03b694a016806a67f0e9da369815bdf12e60a01b116dc9e3ab12",
            ),
            (
                "0566c06c0ae1e049153469f27c6e08dfef9d82b4da5c925bfdeeca58a73ae102",
                "5d2551707234aee933a368efce0a7a43669ead33261117f77018bc499e9d78e1",
            ),
        ];
        let ids: [AccountId; 5] = [9, 2, 5, 7, 0];
        let (m, dropped) = (2, 2);
        let mut w = masked_world_with_ids(&ids, m);
        let params = w.contract.params().clone();
        let (n, threshold) = (ids.len(), params.escrow_threshold);
        // The world ran setup on its own contract; replay it call by
        // call on a fresh one.
        let mut c = FlContract::genesis(params.clone(), SyntheticDigits::small().generate(99));
        let mut observed: Vec<(String, String)> = Vec::new();
        let mut run = |c: &mut FlContract, position: usize, call: FlCall| {
            c.execute(&ctx(ids[position]), &call)
                .unwrap_or_else(|e| panic!("{call:?}: {e}"));
            let snapshot = Hash32::of_bytes(&c.snapshot_state());
            observed.push((c.state_digest().to_hex(), snapshot.to_hex()));
        };
        for i in 0..n {
            let public_key = w.keypairs[i].public.to_be_bytes();
            run(&mut c, i, FlCall::AdvertiseKey { public_key });
        }
        for (i, shares) in w.escrowed.iter().enumerate() {
            let commitments = shares.iter().map(|s| share_commitment(ids[i], s)).collect();
            run(&mut c, i, FlCall::EscrowKeyShares { commitments });
        }
        let survivors: Vec<usize> = (0..n).filter(|&i| i != dropped).collect();
        assert!(survivors.len() > threshold);
        for &i in &survivors {
            let masked = masked_submission(&w, i, 0);
            run(&mut c, i, FlCall::SubmitMaskedUpdate { round: 0, masked });
        }
        run(&mut c, 0, FlCall::EvaluateRound { round: 0 });
        for &p in &survivors {
            run(&mut c, p, recovery_share(&w, 0, dropped, p));
        }
        run(&mut c, 0, FlCall::EvaluateRound { round: 0 });
        // Recovery takes the first threshold providers in ascending id
        // (0, 2, 7), not in ascending position (9, 2, 7).
        let record = &c.history()[0];
        assert_eq!(record.dropped, vec![dropped]);
        assert_eq!(record.recovery[0].providers, vec![4, 1, 3]);
        w.groups = RoundPlan::new(params.permutation_seed, 1, n, 1, m)
            .unwrap()
            .groups()
            .concat();
        for i in 0..n {
            let masked = masked_submission(&w, i, 1);
            run(&mut c, i, FlCall::SubmitMaskedUpdate { round: 1, masked });
        }
        run(&mut c, 0, FlCall::EvaluateRound { round: 1 });
        assert!(c.finished());

        let pinned = PINS.map(|(digest, snapshot)| (digest.to_string(), snapshot.to_string()));
        if observed != pinned {
            let rows: Vec<String> = observed
                .iter()
                .map(|(digest, snapshot)| format!("(\"{digest}\", \"{snapshot}\"),"))
                .collect();
            panic!("pinned states moved; observed:\n{}", rows.join("\n"));
        }
    }

    #[test]
    fn escrow_requires_key_size_and_uniqueness() {
        let mut c = contract(3, 2);
        let commitments = vec![Hash32::ZERO; 3];
        assert!(matches!(
            c.execute(
                &ctx(0),
                &FlCall::EscrowKeyShares {
                    commitments: commitments.clone()
                }
            ),
            Err(FlError::EscrowWithoutKey(0))
        ));
        advertise_all(&mut c, 3);
        assert!(matches!(
            c.execute(
                &ctx(0),
                &FlCall::EscrowKeyShares {
                    commitments: vec![Hash32::ZERO; 2]
                }
            ),
            Err(FlError::EscrowSizeMismatch {
                expected: 3,
                got: 2
            })
        ));
        c.execute(
            &ctx(0),
            &FlCall::EscrowKeyShares {
                commitments: commitments.clone(),
            },
        )
        .unwrap();
        assert_eq!(c.escrows.slots[0], Some(commitments.clone()));
        assert!(matches!(
            c.execute(&ctx(0), &FlCall::EscrowKeyShares { commitments }),
            Err(FlError::EscrowAlreadyCommitted(0))
        ));
    }

    #[test]
    fn dropout_round_completes_on_survivors_only() {
        // 4 owners in ONE group (everyone pairwise masked), owner 2
        // vanishes after masking. Threshold = 3.
        let mut w = masked_world(4, 1);
        let dropped = 2usize;
        submit_round0(&mut w, &[0, 1, 3]);

        // Evaluation with a missing owner opens recovery.
        let out = w
            .contract
            .execute(&ctx(0), &FlCall::EvaluateRound { round: 0 })
            .unwrap();
        assert!(
            out.events[0].contains("entered recovery"),
            "{:?}",
            out.events
        );
        assert_eq!(
            w.contract.phase(),
            &RoundPhase::Recovering { dropped: vec![2] }
        );

        // Late submission from the dropped owner is rejected.
        let late = masked_submission(&w, dropped, 0);
        assert!(matches!(
            w.contract.execute(
                &ctx(2),
                &FlCall::SubmitMaskedUpdate {
                    round: 0,
                    masked: late
                }
            ),
            Err(FlError::RoundInRecovery(0))
        ));

        // Recovery-share validation: wrong target, dead sender,
        // foreign evaluation point, tampered value, early evaluate.
        assert!(matches!(
            w.contract.execute(&ctx(0), &recovery_share(&w, 0, 1, 0)),
            Err(FlError::NotDropped(1))
        ));
        assert!(matches!(
            w.contract.execute(&ctx(2), &recovery_share(&w, 0, 2, 2)),
            Err(FlError::NotASurvivor(2))
        ));
        assert!(matches!(
            w.contract.execute(&ctx(0), &recovery_share(&w, 0, 2, 1)),
            Err(FlError::BadRecoveryShare {
                expected_x: 1,
                got: 2
            })
        ));
        let tampered = FlCall::SubmitRecoveryShare {
            round: 0,
            dropped: 2,
            share_x: 1,
            share_y: vec![0xAB; 32],
        };
        assert!(matches!(
            w.contract.execute(&ctx(0), &tampered),
            Err(FlError::ShareCommitmentMismatch {
                dropped: 2,
                provider: 0
            })
        ));
        // An oversized share value must be a clean error, never a
        // parse panic that would crash every replica.
        let oversized = FlCall::SubmitRecoveryShare {
            round: 0,
            dropped: 2,
            share_x: 1,
            share_y: vec![0xAB; 33],
        };
        assert!(matches!(
            w.contract.execute(&ctx(0), &oversized),
            Err(FlError::BadShareEncoding {
                expected: 32,
                got: 33
            })
        ));
        assert!(matches!(
            w.contract
                .execute(&ctx(0), &FlCall::EvaluateRound { round: 0 }),
            Err(FlError::RecoveryIncomplete {
                dropped: 2,
                have: 0,
                need: 3
            })
        ));

        // Three survivors reveal their verified shares; duplicates
        // are rejected.
        for provider in [0usize, 1, 3] {
            w.contract
                .execute(
                    &ctx(provider as u32),
                    &recovery_share(&w, 0, dropped, provider),
                )
                .unwrap();
        }
        assert!(matches!(
            w.contract
                .execute(&ctx(0), &recovery_share(&w, 0, dropped, 0)),
            Err(FlError::DuplicateRecoveryShare {
                dropped: 2,
                provider: 0
            })
        ));

        // The second EvaluateRound completes the round on survivors.
        let out = w
            .contract
            .execute(&ctx(0), &FlCall::EvaluateRound { round: 0 })
            .unwrap();
        assert!(out.events[0].contains("survivors 3/4"), "{:?}", out.events);
        assert_eq!(w.contract.current_round(), 1);
        assert_eq!(w.contract.phase(), &RoundPhase::Submitting);

        let record = &w.contract.history()[0];
        assert_eq!(record.survivors, vec![0, 1, 3]);
        assert_eq!(record.dropped, vec![2]);
        assert_eq!(record.per_owner_sv[2], 0.0);
        assert_eq!(record.recovery.len(), 1);
        assert_eq!(record.recovery[0].dropped, 2);
        assert_eq!(record.recovery[0].providers, vec![0, 1, 3]);

        // Survivor-only aggregate: the single group model must be
        // the survivors' mean — masks (incl. the dropped owner's
        // residuals) stripped exactly.
        let expect = (0.1 + 0.2 + 0.4) / 3.0;
        for v in w.contract.global_model() {
            assert!((v - expect).abs() < 1e-6, "got {v}, want {expect}");
        }
    }

    #[test]
    fn a_survivor_missing_its_submission_fails_the_round_and_writes_nothing() {
        // Owner 2 drops and its key is recovered; then survivor 1's
        // submission is gone from the state before the round evaluates.
        let mut w = masked_world(4, 1);
        submit_round0(&mut w, &[0, 1, 3]);
        let evaluate = FlCall::EvaluateRound { round: 0 };
        w.contract.execute(&ctx(0), &evaluate).unwrap();
        for provider in [0usize, 1, 3] {
            let share = recovery_share(&w, 0, 2, provider);
            w.contract.execute(&ctx(provider as u32), &share).unwrap();
        }
        clear(&mut w.contract.submissions, 1);
        let (digest, snapshot) = (w.contract.state_digest(), w.contract.snapshot_state());
        assert!(matches!(
            w.contract.execute(&ctx(0), &evaluate),
            Err(FlError::MissingSubmission(1))
        ));
        assert_eq!(w.contract.state_digest(), digest);
        assert_eq!(w.contract.snapshot_state(), snapshot);
        assert!(w.contract.history().is_empty());
        assert_eq!(
            w.contract.phase(),
            &RoundPhase::Recovering { dropped: vec![2] }
        );
    }

    #[test]
    fn a_restored_recovery_missing_the_dropped_escrow_is_a_typed_error() {
        // Recovery opens only for escrowed owners, so no call sequence
        // loses the escrow of a dropped owner; a snapshot handed to
        // `restore` can. Its absence is a typed error at the next share,
        // and a shortened escrow never gets past `restore`.
        let mut w = masked_world(4, 1);
        submit_round0(&mut w, &[0, 1, 3]);
        w.contract
            .execute(&ctx(0), &FlCall::EvaluateRound { round: 0 })
            .unwrap();
        let share = recovery_share(&w, 0, 2, 0);
        let restore = |c: &FlContract| {
            let test_set = SyntheticDigits::small().generate(99);
            FlContract::restore(c.params().clone(), test_set, &c.snapshot_state())
        };

        let mut removed = w.contract.clone();
        clear(&mut removed.escrows, 2);
        let mut restored = restore(&removed).expect("a missing escrow is well-formed");
        let digest = restored.state_digest();
        assert_eq!(digest, removed.state_digest());
        assert!(matches!(
            restored.execute(&ctx(0), &share),
            Err(FlError::EscrowMissing(2))
        ));
        assert_eq!(restored.state_digest(), digest);

        let mut cut = w.contract.clone();
        cut.escrows.slots[2].as_mut().unwrap().truncate(1);
        let digest = cut.state_digest();
        assert!(matches!(
            restore(&cut),
            Err(DecodeError::BadTag {
                type_name: "FlContract escrows",
                ..
            })
        ));
        assert_eq!(cut.state_digest(), digest);

        w.contract.execute(&ctx(0), &share).unwrap();
    }

    /// A snapshot spelled as the id-keyed maps the contract kept before
    /// its per-owner tables, written by the codec's own `BTreeMap`
    /// encoding.
    #[derive(Clone)]
    struct MapSnapshot {
        round_and_phase: Vec<u8>,
        keys: BTreeMap<AccountId, Vec<u8>>,
        escrows: BTreeMap<AccountId, Vec<Hash32>>,
        submissions: BTreeMap<AccountId, Vec<u64>>,
        /// dropped → provider → (x, y bytes).
        shares: BTreeMap<AccountId, BTreeMap<AccountId, (u64, Vec<u8>)>>,
        contributions: BTreeMap<AccountId, f64>,
        model_and_history: Vec<u8>,
    }

    impl MapSnapshot {
        fn of(c: &FlContract) -> Self {
            let ids = &c.params().owners;
            let mut round_and_phase = Vec::new();
            c.current_round().encode_to(&mut round_and_phase);
            c.phase().encode_to(&mut round_and_phase);
            let mut model_and_history = Vec::new();
            c.global_model().encode_to(&mut model_and_history);
            c.history().encode_to(&mut model_and_history);
            // A table as the id-keyed map it stands for.
            fn map<T, V>(
                ids: &[AccountId],
                table: &Table<T>,
                value: impl Fn(&T) -> V,
            ) -> BTreeMap<AccountId, V> {
                let slots = ids.iter().zip(&table.slots);
                slots
                    .filter_map(|(&id, v)| Some((id, value(v.as_ref()?))))
                    .collect()
            }
            Self {
                round_and_phase,
                keys: map(ids, &c.keys, Vec::clone),
                escrows: map(ids, &c.escrows, Vec::clone),
                submissions: map(ids, &c.submissions, |update| update.to_vec()),
                shares: map(ids, &c.recovery_shares, |shares| {
                    map(ids, shares, |s| (s.x, s.y.to_be_bytes()))
                }),
                contributions: c.contributions().clone(),
                model_and_history,
            }
        }

        fn encode(&self) -> Vec<u8> {
            let mut out = self.round_and_phase.clone();
            self.keys.encode_to(&mut out);
            self.escrows.encode_to(&mut out);
            self.submissions.encode_to(&mut out);
            self.shares.encode_to(&mut out);
            self.contributions.encode_to(&mut out);
            out.extend_from_slice(&self.model_and_history);
            out
        }
    }

    #[test]
    fn restore_refuses_what_no_call_could_have_written() {
        // Owner ids that do not ascend with positions; round 0 evaluated,
        // round 1 in recovery for id 5 with two shares in: every
        // per-owner section is populated.
        let ids = [9, 2, 5, 7, 0];
        let mut w = masked_world_with_ids(&ids, 2);
        let run = |w: &mut MaskedWorld, position: usize, call: FlCall| {
            w.contract.execute(&ctx(ids[position]), &call).unwrap();
        };
        for i in 0..5 {
            let masked = masked_submission(&w, i, 0);
            run(&mut w, i, FlCall::SubmitMaskedUpdate { round: 0, masked });
        }
        run(&mut w, 0, FlCall::EvaluateRound { round: 0 });
        w.groups = RoundPlan::new(w.contract.params().permutation_seed, 1, 5, 1, 2)
            .unwrap()
            .groups()
            .concat();
        for i in [0, 1, 3, 4] {
            let masked = masked_submission(&w, i, 1);
            run(&mut w, i, FlCall::SubmitMaskedUpdate { round: 1, masked });
        }
        run(&mut w, 0, FlCall::EvaluateRound { round: 1 });
        for p in [3, 4] {
            let share = recovery_share(&w, 1, 2, p);
            run(&mut w, p, share);
        }

        // The tables encode as the maps they stand for, and restore
        // from them.
        let c = &w.contract;
        let maps = MapSnapshot::of(c);
        assert_eq!(maps.encode(), c.snapshot_state());
        let test_set = SyntheticDigits::small().generate(99);
        let restore = |maps: &MapSnapshot| {
            FlContract::restore(c.params().clone(), test_set.clone(), &maps.encode())
        };
        assert_eq!(restore(&maps).unwrap().state_digest(), c.state_digest());

        // Account 4 sits between two owner ids.
        type Forgery = fn(&mut MapSnapshot);
        let forgeries: [(&str, &str, Forgery); 11] = [
            ("a key of a stranger", "FlContract keys", |s| {
                s.keys.insert(4, s.keys[&9].clone());
            }),
            ("an escrow of a stranger", "FlContract escrows", |s| {
                s.escrows.insert(4, s.escrows[&9].clone());
            }),
            ("an update of a stranger", "FlContract updates", |s| {
                s.submissions.insert(4, s.submissions[&9].clone());
            }),
            ("shares for a stranger", "FlContract recovery shares", |s| {
                s.shares.insert(4, s.shares[&5].clone());
            }),
            (
                "a share from a stranger",
                "FlContract recovery shares",
                |s| {
                    let shares = s.shares.get_mut(&5).unwrap();
                    let (_, share) = shares.pop_first().unwrap();
                    shares.insert(4, share);
                },
            ),
            (
                "an escrow cut to one commitment",
                "FlContract escrows",
                |s| {
                    s.escrows.get_mut(&5).unwrap().truncate(1);
                },
            ),
            ("a 31-byte key", "FlContract keys", |s| {
                s.keys.get_mut(&2).unwrap().pop();
            }),
            ("a degenerate key", "FlContract keys", |s| {
                s.keys.insert(2, vec![0; 32]);
            }),
            ("a short update", "FlContract updates", |s| {
                s.submissions.get_mut(&2).unwrap().pop();
            }),
            (
                "a contribution of a stranger",
                "FlContract contributions",
                |s| {
                    s.contributions.insert(4, 0.0);
                },
            ),
            ("a lost contribution", "FlContract contributions", |s| {
                s.contributions.remove(&9);
            }),
        ];
        for (what, refused, forge) in forgeries {
            let mut forged = maps.clone();
            forge(&mut forged);
            match restore(&forged) {
                Err(DecodeError::BadTag { type_name, .. }) if type_name == refused => {}
                other => panic!("{what}: {:?}", other.map(|c| c.state_digest())),
            }
        }
    }

    #[test]
    fn recovery_state_is_part_of_the_digest() {
        // Two replicas agree while both track the same lifecycle;
        // declaring the dropout (and each accepted share) moves the
        // digest, so replicas cannot silently disagree on phase.
        let build = || {
            let mut w = masked_world(4, 1);
            submit_round0(&mut w, &[0, 1, 3]);
            w
        };
        let mut a = build();
        let b = build();
        assert_eq!(a.contract.state_digest(), b.contract.state_digest());
        a.contract
            .execute(&ctx(0), &FlCall::EvaluateRound { round: 0 })
            .unwrap();
        assert_ne!(
            a.contract.state_digest(),
            b.contract.state_digest(),
            "entering recovery must move the state root"
        );
        let before_share = a.contract.state_digest();
        a.contract
            .execute(&ctx(0), &recovery_share(&a, 0, 2, 0))
            .unwrap();
        assert_ne!(
            a.contract.state_digest(),
            before_share,
            "every accepted share must move the state root"
        );
    }

    #[test]
    fn recovery_over_inconsistent_state_is_a_typed_error() {
        // `EvaluateRound` only reaches `finish_round` once every dropped
        // owner has its threshold of verified shares, so the states
        // below take a doctored snapshot or a bug elsewhere to reach. A
        // replica must still answer each with `RecoveryFailed` and an
        // untouched root — never a panic.
        let mut w = masked_world(4, 1);
        submit_round0(&mut w, &[0, 1, 3]);
        w.contract
            .execute(&ctx(0), &FlCall::EvaluateRound { round: 0 })
            .unwrap();
        for provider in [0usize, 1, 3] {
            w.contract
                .execute(&ctx(provider as u32), &recovery_share(&w, 0, 2, provider))
                .unwrap();
        }

        let assert_fails = |mut c: FlContract, needle: &str| {
            let root = c.state_digest();
            match c.finish_round(0, &[2]) {
                Err(FlError::RecoveryFailed { owner: 2, reason }) => {
                    assert!(reason.contains(needle), "{reason}")
                }
                other => panic!("expected RecoveryFailed, got {other:?}"),
            }
            assert_eq!(c.state_digest(), root);
            assert_eq!(c.current_round(), 0);
        };

        let mut no_shares = w.contract.clone();
        no_shares.recovery_shares = Table::new(4);
        assert_fails(no_shares, "no recovery shares");

        let mut no_key = w.contract.clone();
        clear(&mut no_key.keys, 2);
        assert_fails(no_key, "no advertised public key");

        // A share filed under an account that owns nothing has no slot
        // in memory; `restore` refuses it in a snapshot
        // (`restore_refuses_what_no_call_could_have_written`).

        // The untouched state still completes.
        w.contract.finish_round(0, &[2]).unwrap();
        assert_eq!(w.contract.current_round(), 1);
    }

    #[test]
    fn full_round_records_everyone_as_survivor() {
        let mut w = masked_world(4, 2);
        for i in 0..4usize {
            let masked = masked_submission(&w, i, 0);
            w.contract
                .execute(
                    &ctx(i as u32),
                    &FlCall::SubmitMaskedUpdate { round: 0, masked },
                )
                .unwrap();
        }
        w.contract
            .execute(&ctx(0), &FlCall::EvaluateRound { round: 0 })
            .unwrap();
        let record = &w.contract.history()[0];
        assert_eq!(record.survivors, vec![0, 1, 2, 3]);
        assert!(record.dropped.is_empty());
        assert!(record.recovery.is_empty());
    }

    #[test]
    fn sharded_round_emits_cohort_evidence_and_composes() {
        // 8 owners, 2 cohorts of 4, 2 groups per cohort, nobody
        // drops: the hierarchical path must bind per-cohort
        // evidence into the record and compose within-cohort
        // values with the second-level cohort values.
        let (n, m, k) = (8usize, 2usize, 2usize);
        let mut w = masked_world_sharded(n, m, k);
        for i in 0..n {
            let masked = masked_submission(&w, i, 0);
            w.contract
                .execute(
                    &ctx(i as u32),
                    &FlCall::SubmitMaskedUpdate { round: 0, masked },
                )
                .unwrap();
        }
        let out = w
            .contract
            .execute(&ctx(0), &FlCall::EvaluateRound { round: 0 })
            .unwrap();
        assert!(out.events[0].contains("k=2 cohorts"), "{:?}", out.events);

        let record = &w.contract.history()[0];
        assert_eq!(record.cohorts.len(), k);
        assert_eq!(record.groups.len(), k * m);
        assert_eq!(record.per_group_sv.len(), k * m);

        // The cohort memberships partition the owner set.
        let mut all: Vec<usize> = record
            .cohorts
            .iter()
            .flat_map(|c| c.members.clone())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..n).collect::<Vec<_>>());

        for (c, ev) in record.cohorts.iter().enumerate() {
            assert_eq!(ev.survivors, ev.members, "nobody dropped");
            assert!(ev.dropped.is_empty());
            assert_eq!(ev.sv_method, SvMethod::GroupExact);
            // Composition efficiency: each cohort's member values
            // sum to the cohort's second-level value.
            let total: f64 = ev.members.iter().map(|&i| record.per_owner_sv[i]).sum();
            assert!(
                (total - ev.sv).abs() < 1e-9,
                "cohort {c}: members sum {total}, cohort SV {}",
                ev.sv
            );
        }
        // The record totals include the second-level game on top
        // of the per-cohort passes.
        let within: usize = record.cohorts.iter().map(|c| c.utility_evaluations).sum();
        assert!(record.utility_evaluations > within);
    }

    #[test]
    fn fully_dropped_cohort_scores_zero_and_survives_evaluation() {
        // 9 owners, 3 cohorts of 3, one group per cohort. Every
        // member of one cohort drops after masking; the 6 survivors
        // (>= threshold 5) recover the keys and the round completes
        // with the dead cohort out of the second-level game.
        let (n, m, k) = (9usize, 1usize, 3usize);
        let mut w = masked_world_sharded(n, m, k);
        let threshold = w.contract.params().escrow_threshold;
        let plan = RoundPlan::new(w.contract.params().permutation_seed, 0, n, k, m).unwrap();
        let dead: Vec<usize> = {
            let mut v = plan.cohorts()[0].clone();
            v.sort_unstable();
            v
        };
        let survivors: Vec<usize> = (0..n).filter(|i| !dead.contains(i)).collect();

        for &i in &survivors {
            let masked = masked_submission(&w, i, 0);
            w.contract
                .execute(
                    &ctx(i as u32),
                    &FlCall::SubmitMaskedUpdate { round: 0, masked },
                )
                .unwrap();
        }
        w.contract
            .execute(
                &ctx(survivors[0] as u32),
                &FlCall::EvaluateRound { round: 0 },
            )
            .unwrap();
        assert!(matches!(w.contract.phase(), RoundPhase::Recovering { .. }));
        for &d in &dead {
            for &p in survivors.iter().take(threshold) {
                w.contract
                    .execute(&ctx(p as u32), &recovery_share(&w, 0, d, p))
                    .unwrap();
            }
        }
        w.contract
            .execute(
                &ctx(survivors[0] as u32),
                &FlCall::EvaluateRound { round: 0 },
            )
            .unwrap();

        let record = &w.contract.history()[0];
        assert_eq!(record.survivors, survivors);
        assert_eq!(record.dropped, dead);
        // The dead cohort stays evidence-complete but worthless.
        let ev0 = &record.cohorts[0];
        assert!(ev0.survivors.is_empty());
        assert_eq!(ev0.sv, 0.0);
        assert_eq!(ev0.utility_evaluations, 0);
        for &i in &dead {
            assert_eq!(record.per_owner_sv[i], 0.0);
        }
        // Live cohorts still compose to their second-level values.
        for ev in &record.cohorts[1..] {
            let total: f64 = ev.members.iter().map(|&i| record.per_owner_sv[i]).sum();
            assert!((total - ev.sv).abs() < 1e-9);
        }
        assert_eq!(w.contract.current_round(), 1);
        assert_eq!(w.contract.phase(), &RoundPhase::Submitting);
    }
}

#[test]
fn masked_aggregation_cancels_for_real_masks() {
    // End-to-end through the contract: three owners in ONE group mask
    // pairwise; the group model must equal the mean of the plaintext.
    use fl_crypto::dh::DhGroup;
    use fl_crypto::secure_agg::{KeyDirectory, PartyState};

    let mut c = contract(3, 1); // single group: all three cancel
    let dh = DhGroup::simulation_256();
    let codec = FixedCodec::new(c.params().frac_bits);
    let dim = c.params().model_dim;

    let keypairs: Vec<_> = (0..3u8)
        .map(|i| dh.keypair_from_seed(&[i + 1; 32]))
        .collect();
    let mut dir = KeyDirectory::new();
    for (i, kp) in keypairs.iter().enumerate() {
        dir.advertise(i as u32, kp.public).unwrap();
    }
    for (i, kp) in keypairs.iter().enumerate() {
        c.execute(
            &ctx(i as u32),
            &FlCall::AdvertiseKey {
                public_key: kp.public.to_be_bytes(),
            },
        )
        .unwrap();
    }
    let plain: Vec<Vec<f64>> = (0..3).map(|i| vec![0.1 * (i as f64 + 1.0); dim]).collect();
    for (i, kp) in keypairs.iter().enumerate() {
        let party = PartyState::derive(&dh, i as u32, kp, &dir).unwrap();
        let masked = party.masked_update(&codec, 0, &plain[i]);
        c.execute(
            &ctx(i as u32),
            &FlCall::SubmitMaskedUpdate { round: 0, masked },
        )
        .unwrap();
    }
    c.execute(&ctx(0), &FlCall::EvaluateRound { round: 0 })
        .unwrap();
    // Global model = the single group model = mean of plaintexts = 0.2.
    for w in c.global_model() {
        assert!((w - 0.2).abs() < 1e-6, "got {w}");
    }
}

#[test]
fn fl_call_decode_roundtrips_every_variant() {
    let calls = [
        FlCall::AdvertiseKey {
            public_key: vec![7; 32],
        },
        FlCall::SubmitMaskedUpdate {
            round: 3,
            masked: vec![1, u64::MAX, 0],
        },
        FlCall::EvaluateRound { round: 9 },
        FlCall::EscrowKeyShares {
            commitments: vec![Hash32::of_bytes(b"a"), Hash32::of_bytes(b"b")],
        },
        FlCall::SubmitRecoveryShare {
            round: 1,
            dropped: 2,
            share_x: 3,
            share_y: vec![0xde, 0xad],
        },
    ];
    for call in &calls {
        let enc = call.encode();
        assert_eq!(&FlCall::decode(&enc).unwrap(), call);
        // Strict: a truncated call must never decode.
        assert!(FlCall::decode(&enc[..enc.len() - 1]).is_err());
    }
    assert!(FlCall::decode(&[0xee]).is_err(), "unknown tag rejected");
}

#[test]
fn snapshot_state_restores_to_identical_digest() {
    // Drive a contract through a full round — keys, escrows, masked
    // updates, evaluation — then snapshot, restore, and require the
    // restored contract to be digest-identical AND behaviourally
    // live (it must accept the next round's traffic).
    let mut c = contract(3, 2);
    advertise_all(&mut c, 3);
    for i in 0..3u32 {
        let masked = plain_update(&c, 0.5);
        c.execute(&ctx(i), &FlCall::SubmitMaskedUpdate { round: 0, masked })
            .unwrap();
    }
    c.execute(&ctx(0), &FlCall::EvaluateRound { round: 0 })
        .unwrap();
    assert_eq!(c.history().len(), 1);

    let blob = c.snapshot_state();
    let test_set = SyntheticDigits::small().generate(99);
    let mut restored =
        FlContract::restore(test_params(3, 2), test_set, &blob).expect("snapshot decodes");
    assert_eq!(
        restored.state_digest(),
        c.state_digest(),
        "restore must be digest-exact"
    );
    assert_eq!(restored.history().len(), 1);

    // The restored contract keeps executing in lockstep.
    for i in 0..3u32 {
        let call = FlCall::SubmitMaskedUpdate {
            round: 1,
            masked: plain_update(&restored, 0.25),
        };
        restored.execute(&ctx(i), &call).unwrap();
        c.execute(&ctx(i), &call).unwrap();
    }
    assert_eq!(restored.state_digest(), c.state_digest());
}

#[test]
fn snapshot_restore_rejects_malformed_blobs() {
    let c = contract(3, 2);
    let blob = c.snapshot_state();
    let test_set = SyntheticDigits::small().generate(99);
    // Truncations and trailing garbage must error, never panic.
    for cut in [0, 1, blob.len() / 2, blob.len() - 1] {
        assert!(
            FlContract::restore(test_params(3, 2), test_set.clone(), &blob[..cut]).is_err(),
            "prefix of {cut} bytes"
        );
    }
    let mut padded = blob;
    padded.push(0);
    assert!(FlContract::restore(test_params(3, 2), test_set, &padded).is_err());
}

// ---- AccuracyUtility: coalitions scored in logit space ----

mod accuracy_utility {
    use super::*;
    use fl_ml::dataset::Dataset;
    use fl_ml::metrics::model_accuracy_design_reference;
    use fl_ml::rng::Xoshiro256;
    use fl_ml::{Design, LogisticModel};
    use numeric::linalg::mean_vectors;
    use numeric::stats::is_argmax;
    use numeric::Matrix;
    use proptest::prelude::*;
    use shapley::coalition::Coalition;
    use shapley::group::GroupModelGame;
    use shapley::utility::{CoalitionUtility, ModelUtility, RestrictedGame};

    fn random_test_set(
        rng: &mut Xoshiro256,
        rows: usize,
        features: usize,
        classes: usize,
    ) -> Dataset {
        let x = (0..rows * features)
            .map(|_| rng.next_f64() * 16.0)
            .collect();
        let labels = (0..rows)
            .map(|_| rng.next_below(classes as u64) as usize)
            .collect();
        Dataset::new(Matrix::from_vec(rows, features, x), labels, classes)
    }

    fn random_models(rng: &mut Xoshiro256, m: usize, dim: usize) -> Vec<Vec<f64>> {
        (0..m)
            .map(|_| (0..dim).map(|_| rng.next_gaussian()).collect())
            .collect()
    }

    /// A test set whose row `r` is labelled `labels[r]`, for driving
    /// `of_scores` with hand-written logits.
    fn labelled(labels: &[usize], classes: usize) -> AccuracyUtility {
        let x = Matrix::from_vec(labels.len(), 1, vec![1.0; labels.len()]);
        AccuracyUtility::new(&Dataset::new(x, labels.to_vec(), classes), 1, classes)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn prop_every_coalition_matches_the_gemm_softmax_oracle(
            seed in any::<u64>(),
            rows in 1usize..60,
            long in any::<bool>(),
            features in 1usize..6,
            classes in 2usize..5,
            m in 1usize..6,
        ) {
            // Long test sets (thousands of rows) run every walk over many
            // register groups and screen blocks.
            let rows = if long { 6_000 + rows } else { rows };
            let mut rng = Xoshiro256::seed_from_u64(seed);
            let test_set = random_test_set(&mut rng, rows, features, classes);
            let models = random_models(&mut rng, m, (features + 1) * classes);
            let utility = AccuracyUtility::new(&test_set, features, classes);
            let design = Design::new(&test_set);
            let game = GroupModelGame::new(&models, &utility);
            for coalition in Coalition::powerset(m).skip(1) {
                let members: Vec<Vec<f64>> =
                    coalition.members().map(|j| models[j].clone()).collect();
                let mean = LogisticModel::from_flat(&mean_vectors(&members), features, classes);
                // Both sides are `correct / rows`: exact equality.
                prop_assert_eq!(
                    game.evaluate(coalition),
                    model_accuracy_design_reference(&mean, &design),
                    "coalition {:?}", coalition
                );
            }
            prop_assert_eq!(game.evaluate(Coalition::EMPTY), utility.of_empty());
        }
    }

    #[test]
    fn scores_many_lays_out_every_models_scores_to_the_bit() {
        // Table I's shape (9 models, 1 124 rows of 64 features, 10
        // classes) and `sharded_1k`'s second level (32 models, 410 rows
        // of 16 features, 4 classes): row `r` of model `j`'s logits at
        // `(r · m + j) · classes` of the one product, equal to `scores`
        // of that model alone. One model is all zeros.
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (m, rows, features, classes) in
            [(9usize, 1_124usize, 64usize, 10usize), (32, 410, 16, 4)]
        {
            let mut rng = Xoshiro256::seed_from_u64(rows as u64);
            let test_set = random_test_set(&mut rng, rows, features, classes);
            let utility = AccuracyUtility::new(&test_set, features, classes);
            let mut models = random_models(&mut rng, m, (features + 1) * classes);
            models[1].fill(0.0);
            let many = utility.scores_many(&models);
            assert_eq!(many.len(), rows * m * classes);
            for (j, model) in models.iter().enumerate() {
                let alone = utility.scores(model);
                for r in 0..rows {
                    assert_eq!(
                        bits(&many[(r * m + j) * classes..][..classes]),
                        bits(&alone[r * classes..][..classes]),
                        "{m} models of {classes} classes: model {j}, row {r}"
                    );
                }
            }
        }
    }

    #[test]
    fn of_model_is_of_scores_of_scores_and_matches_the_oracle() {
        let test_set = SyntheticDigits::small().generate(99);
        let utility = AccuracyUtility::new(&test_set, 64, 10);
        let design = Design::new(&test_set);
        let mut rng = Xoshiro256::seed_from_u64(5);
        for w in random_models(&mut rng, 4, 650) {
            let scores = utility.scores(&w);
            assert_eq!(scores.len(), test_set.len() * 10);
            assert_eq!(utility.of_model(&w), utility.of_scores(&scores));
            assert_eq!(
                utility.of_model(&w),
                model_accuracy_design_reference(&LogisticModel::from_flat(&w, 64, 10), &design)
            );
        }
    }

    #[test]
    fn equal_logits_resolve_to_the_lowest_class_index() {
        // Rows labelled 0, 1, 2; every row's logits tie across classes.
        let utility = labelled(&[0, 1, 2], 3);
        assert_eq!(utility.of_scores(&[0.5; 9]), 1.0 / 3.0);
        // A tie between the label and a *later* class goes to the label,
        // a tie with an earlier class does not.
        let utility = labelled(&[1, 1], 3);
        assert_eq!(
            utility.of_scores(&[0.0, 2.0, 2.0, /* row 1 */ 2.0, 2.0, 0.0]),
            0.5
        );
    }

    #[test]
    fn zero_model_is_the_empty_coalition() {
        let test_set = SyntheticDigits::small().generate(99);
        let utility = AccuracyUtility::new(&test_set, 64, 10);
        assert_eq!(utility.of_model(&vec![0.0; 650]), utility.of_empty());
        let zeros = test_set.labels.iter().filter(|&&l| l == 0).count();
        assert_eq!(utility.of_empty(), zeros as f64 / test_set.len() as f64);
    }

    #[test]
    fn fully_dropped_placeholder_group_leaves_the_game() {
        // The contract plays a round's game over the surviving groups
        // only. That is, to the bit, the game with a zero-model
        // placeholder at a fully dropped group's index restricted away —
        // for random models (rows settle nowhere) and for three copies of
        // one model (rows settle once the placeholder is gone).
        let test_set = SyntheticDigits::small().generate(99);
        let utility = AccuracyUtility::new(&test_set, 64, 10);
        let mut rng = Xoshiro256::seed_from_u64(11);
        let random = random_models(&mut rng, 3, 650);
        let agreeing = vec![random[0].clone(); 3];
        for survivors in [random, agreeing] {
            let with_placeholder = vec![
                survivors[0].clone(),
                vec![0.0; 650],
                survivors[1].clone(),
                survivors[2].clone(),
            ];
            let full = GroupModelGame::new(&with_placeholder, &utility);
            let restricted = RestrictedGame::new(&full, vec![0, 2, 3]);
            let without = GroupModelGame::new(&survivors, &utility);
            for coalition in Coalition::powerset(3) {
                assert_eq!(
                    restricted.evaluate(coalition).to_bits(),
                    without.evaluate(coalition).to_bits()
                );
            }
            let batch: Vec<Coalition> = Coalition::powerset(3).collect();
            let bits = |values: Vec<f64>| values.into_iter().map(f64::to_bits).collect::<Vec<_>>();
            assert_eq!(
                bits(restricted.evaluate_many(&batch)),
                bits(without.evaluate_many(&batch))
            );
        }
    }

    /// The accuracy utility over models that are their own logits
    /// (`scores` is the identity). Every method is forwarded; `settled`
    /// only when `settle` holds, so the two wrappers play one game, rows
    /// settled or all walked.
    struct AsLogits<'a> {
        utility: &'a AccuracyUtility,
        settle: bool,
    }

    impl ModelUtility for AsLogits<'_> {
        fn of_model(&self, logits: &[f64]) -> f64 {
            self.utility.of_scores(logits)
        }

        fn of_empty(&self) -> f64 {
            self.utility.of_empty()
        }

        fn granule(&self) -> Option<usize> {
            self.utility.granule()
        }

        fn labels(&self) -> Option<&[usize]> {
            self.utility.labels()
        }

        fn of_tally(&self, hits: f64) -> f64 {
            self.utility.of_tally(hits)
        }

        fn settled(&self, row: usize, members: &[&[f64]]) -> Option<f64> {
            self.settle
                .then(|| self.utility.settled(row, members))
                .flatten()
        }
    }

    /// `x` moved by `ulps` representable steps.
    fn step(x: f64, ulps: i64) -> f64 {
        (0..ulps.abs()).fold(x, |x, _| if ulps > 0 { x.next_up() } else { x.next_down() })
    }

    /// `rows` rows of `classes` logits under each of `m` members, drawn
    /// around the settling margin (`shapley::group`, "Settled
    /// granules"): per row a clear hit, the label a few ulps either side
    /// of the margin over its top rival, or of a tie with it; a `±0.0`
    /// pair; a NaN, an infinity or 2^1001 in one member; the same at
    /// subnormal scale; or noise. Returns the labels and the logits.
    fn near_tie_logits(
        rng: &mut Xoshiro256,
        m: usize,
        rows: usize,
        classes: usize,
    ) -> (Vec<usize>, Vec<Vec<f64>>) {
        let labels: Vec<usize> = (0..rows)
            .map(|_| rng.next_below(classes as u64) as usize)
            .collect();
        let mut models = vec![vec![0.0; rows * classes]; m];
        // 2^-40 and 2^-1000, the margin's two parts.
        let relative = f64::from_bits((1023 - 40) << 52);
        let absolute = f64::from_bits((1023 - 1000) << 52);
        for (r, &label) in labels.iter().enumerate() {
            let kind = rng.next_below(9);
            let exponent = if kind == 7 {
                -1060
            } else {
                rng.next_below(61) as i32 - 30
            };
            // Members of a row apart in magnitude round their partial sums.
            let spread = [0, 19][rng.next_below(2) as usize];
            let odd = rng.next_below(m as u64) as usize;
            let special = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 2f64.powi(1001)]
                [rng.next_below(4) as usize];
            let rival = (label + 1) % classes;
            for (j, model) in models.iter_mut().enumerate() {
                let shift = rng.next_below(2 * spread + 1) as i32 - spread as i32;
                let scale = (exponent + shift).max(-1074);
                let scale = if scale < -1022 {
                    f64::from_bits(1 << (1074 + scale))
                } else {
                    f64::from_bits(((1023 + scale) as u64) << 52)
                };
                let row = &mut model[r * classes..][..classes];
                for x in row.iter_mut() {
                    *x = (rng.next_f64() * 2.0 - 1.0) * scale;
                }
                let top = (0..classes)
                    .filter(|&c| c != label)
                    .map(|c| row[c])
                    .fold(f64::NEG_INFINITY, f64::max);
                let ulps = rng.next_below(9) as i64 - 4;
                let clear = 3.0 * top.abs() + scale;
                let margin = top + 2.0 * top.abs() * relative + absolute;
                match kind {
                    0..=2 => row[label] = clear,
                    3 => row[label] = step(margin, ulps),
                    4 => row[label] = step(top, ulps),
                    5 => {
                        (row[label], row[rival]) =
                            if j % 2 == 0 { (0.0, -0.0) } else { (-0.0, 0.0) }
                    }
                    6 => {
                        row[label] = clear;
                        if j == odd {
                            row[rng.next_below(classes as u64) as usize] = special;
                        }
                    }
                    7 => row[label] = step(if ulps % 2 == 0 { top } else { margin }, ulps),
                    _ => {}
                }
            }
        }
        (labels, models)
    }

    /// Both games value every coalition of `batch` to the bit.
    fn assert_same_values(
        a: &impl CoalitionUtility,
        b: &impl CoalitionUtility,
        batch: &[Coalition],
    ) {
        let bits = |values: Vec<f64>| values.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        assert_eq!(bits(a.evaluate_many(batch)), bits(b.evaluate_many(batch)));
        for &coalition in batch.iter().take(16) {
            assert_eq!(
                a.evaluate(coalition).to_bits(),
                b.evaluate(coalition).to_bits()
            );
        }
    }

    #[test]
    fn one_model_game_counts_is_argmax_row_by_row() {
        // 2..=17 classes; the logits hold near ties, exact ties, `±0.0`,
        // NaN and `±∞`, so the screen leaves rows to the exact decision.
        // Over one model the coalition mean is the logits themselves, so
        // a value is the rows whose first maximum is the label, settled
        // or screened or decided exactly.
        for classes in 2..=17usize {
            let mut rng = Xoshiro256::seed_from_u64(classes as u64);
            for rows in [1usize, 15, 16, 17, 203] {
                let (labels, models) = near_tie_logits(&mut rng, 1, rows, classes);
                let utility = labelled(&labels, classes);
                let logits = &models[0];
                let hits = (0..rows)
                    .filter(|&r| is_argmax(&logits[r * classes..][..classes], labels[r]))
                    .count();
                let want = utility.of_tally(hits as f64);
                for settle in [false, true] {
                    let view = AsLogits {
                        utility: &utility,
                        settle,
                    };
                    let game = GroupModelGame::new(&models, &view);
                    let got = game.evaluate(Coalition::grand(1));
                    assert_eq!(got, want, "{classes} classes, {rows} rows, settle {settle}");
                }
            }
        }
    }

    #[test]
    fn partly_settled_table1_game_equals_the_spelled_out_oracle_at_caps_1_and_2() {
        // Table I's shape on a world small enough that about half of its
        // 300 test rows settle: every coalition's value is the members'
        // logits summed in ascending order from `0.0`, scaled by `1/|S|`,
        // `is_argmax` on each row that does not settle plus the settled
        // rows' tallies, over the row count.
        use crate::config::FlConfig;
        use crate::world::World;
        use shapley::estimator::{Exact, SvEstimator};
        use shapley::utility::utility_fn;
        let mut config = FlConfig::paper_setting();
        config.num_groups = 9;
        config.sigma = 1.0;
        config.data.instances = 1_500;
        let world = World::generate(&config).expect("valid config");
        let models = world.local_updates(&config);
        let classes = config.data.classes;
        let utility = AccuracyUtility::new(&world.test, config.data.features, classes);
        let logits: Vec<Vec<f64>> = models.iter().map(|w| utility.scores(w)).collect();
        let rows = world.test.len();
        let settled: Vec<Option<f64>> = (0..rows)
            .map(|r| {
                let members: Vec<&[f64]> = logits
                    .iter()
                    .map(|l| &l[r * classes..][..classes])
                    .collect();
                utility.settled(r, &members)
            })
            .collect();
        let walked = settled.iter().filter(|s| s.is_none()).count();
        assert!(
            walked >= 20 && rows - walked >= 20,
            "{walked} of {rows} rows walked"
        );
        let oracle = |coalition: Coalition| {
            if coalition.is_empty() {
                return utility.of_empty();
            }
            let mut sum = vec![0.0f64; rows * classes];
            for j in coalition.members() {
                for (acc, s) in sum.iter_mut().zip(&logits[j]) {
                    *acc += s;
                }
            }
            let inv = 1.0 / coalition.len() as f64;
            let mean: Vec<f64> = sum.iter().map(|sum| sum * inv).collect();
            let labels = world.test.labels.iter();
            let rows = mean.chunks_exact(classes).zip(labels).zip(&settled);
            let hits: f64 = rows
                .map(|((row, &label), settled)| {
                    settled.unwrap_or(f64::from(u8::from(is_argmax(row, label))))
                })
                .sum();
            utility.of_tally(hits)
        };
        let batch: Vec<Coalition> = Coalition::powerset(9).collect();
        let want: Vec<u64> = batch.iter().map(|&c| oracle(c).to_bits()).collect();
        let want_sv = Exact.estimate(&utility_fn(9, oracle)).values;
        let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for cap in [1usize, 2] {
            numeric::par::set_max_threads(cap);
            let game = GroupModelGame::new(&models, &utility);
            assert_eq!(bits(&game.evaluate_many(&batch)), want, "cap {cap}");
            for &coalition in batch.iter().step_by(37) {
                assert_eq!(
                    game.evaluate(coalition).to_bits(),
                    oracle(coalition).to_bits()
                );
            }
            assert_eq!(
                bits(&Exact.estimate(&game).values),
                bits(&want_sv),
                "cap {cap}"
            );
        }
        numeric::par::set_max_threads(0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]
        #[test]
        fn prop_settled_rows_leave_every_coalition_value_bit_identical(
            seed in any::<u64>(),
            classes in 2usize..=6,
        ) {
            use shapley::estimator::{Exact, Stratified, SvEstimator};
            use shapley::stratified::StratifiedConfig;
            let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            let mut rng = Xoshiro256::seed_from_u64(seed);
            let (mut games, mut engaged) = (0usize, 0usize);
            // m = 1..=12 exactly, inside one tile of the member-trie walk
            // and past it (a walk budget of one block a tile: the label
            // screen's 16 rows), whole and restricted; then 64 groups,
            // sampled. The tiles are counted on the game that keeps
            // every row.
            let mut shapes: Vec<(usize, usize, bool)> = Vec::new();
            for m in 1..=12usize {
                shapes.push((m, 6 + rng.next_below(11) as usize, false));
                shapes.push((m, 17 + rng.next_below(48) as usize, true));
            }
            shapes.push((64, 4 + rng.next_below(4) as usize, false));
            for (m, rows, past_tile) in shapes {
                let (labels, models) = near_tie_logits(&mut rng, m, rows, classes);
                let accuracy = labelled(&labels, classes);
                let settling = AsLogits { utility: &accuracy, settle: true };
                let walking = AsLogits { utility: &accuracy, settle: false };
                let game = GroupModelGame::new(&models, &settling).with_walk_bytes(1);
                let plain = GroupModelGame::new(&models, &walking).with_walk_bytes(1);
                prop_assert_eq!(plain.walk_tiles(m) > 1, past_tile, "m = {}, {} rows", m, rows);
                games += 1;
                engaged += usize::from(game.eval_flops() < plain.eval_flops());
                if m == 64 {
                    let batch: Vec<Coalition> =
                        (0..64).map(|_| Coalition(rng.next_u64() >> rng.next_below(64))).collect();
                    assert_same_values(&game, &plain, &batch);
                    let stratified = Stratified {
                        config: StratifiedConfig { samples_per_stratum: 1, seed },
                    };
                    prop_assert_eq!(
                        bits(&stratified.estimate(&game).values),
                        bits(&stratified.estimate(&plain).values)
                    );
                    continue;
                }
                assert_same_values(&game, &plain, &Coalition::powerset(m).collect::<Vec<_>>());
                prop_assert_eq!(
                    bits(&Exact.estimate(&game).values),
                    bits(&Exact.estimate(&plain).values),
                    "m = {}, {} rows", m, rows
                );
                let alive: Vec<usize> = (0..m).filter(|&j| j == 0 || rng.next_below(3) > 0).collect();
                let restricted = RestrictedGame::new(&game, alive.clone());
                let restricted_plain = RestrictedGame::new(&plain, alive.clone());
                assert_same_values(
                    &restricted,
                    &restricted_plain,
                    &Coalition::powerset(alive.len()).collect::<Vec<_>>(),
                );
            }
            prop_assert!(engaged * 4 >= games * 3, "settled rows in {} of {} games", engaged, games);
        }
    }
}

// ---- The sectioned state root: memoised ≡ cold, every field bound ----

mod state_root {
    use super::dropout_lifecycle::{
        masked_submission, masked_world, masked_world_sharded, recovery_share, MaskedWorld,
    };
    use super::*;
    use fl_ml::dataset::Dataset;
    use fl_ml::rng::Xoshiro256;
    use proptest::prelude::*;

    /// A replica restored from the contract's own snapshot: no memo and
    /// no shared value survives a snapshot.
    fn cold(c: &FlContract, test_set: &Dataset) -> FlContract {
        FlContract::restore(c.params().clone(), test_set.clone(), &c.snapshot_state())
            .expect("own snapshot decodes")
    }

    /// The root of [`cold`]: every section is hashed afresh.
    fn cold_root(c: &FlContract, test_set: &Dataset) -> Hash32 {
        cold(c, test_set).state_digest()
    }

    /// A submission writes to the submissions map and to nothing else:
    /// the scratch it ran on still reads every other section, every
    /// round record and every earlier update from the original's own
    /// allocations. A clone that copied them would pass every digest
    /// check and fail here.
    fn assert_submission_copied_its_map_only(original: &FlContract, scratch: &FlContract) {
        assert!(scratch.keys.shares_value_with(&original.keys));
        assert!(scratch.escrows.shares_value_with(&original.escrows));
        assert!(scratch
            .contributions
            .shares_value_with(&original.contributions));
        assert!(scratch
            .global_model
            .shares_value_with(&original.global_model));
        assert!(scratch
            .history_leaves
            .shares_value_with(&original.history_leaves));
        assert_eq!(scratch.history.len(), original.history.len());
        for (copied, record) in scratch.history.iter().zip(&original.history) {
            assert!(Arc::ptr_eq(copied, record));
        }
        assert!(!scratch.submissions.shares_value_with(&original.submissions));
        assert_eq!(scratch.submissions.filled, original.submissions.filled + 1);
        for (copied, update) in scratch
            .submissions
            .slots
            .iter()
            .zip(&original.submissions.slots)
        {
            if let Some(update) = update {
                assert!(copied.as_ref().unwrap().shares_value_with(update));
            }
        }
    }

    /// A contract driven call by call, held to the memo and
    /// copy-on-write invariants at every step.
    struct Walk {
        c: FlContract,
        test_set: Dataset,
        last_accepted: Option<(AccountId, FlCall)>,
        rejected: usize,
    }

    impl Walk {
        /// Executes one call; returns whether the contract accepted it.
        fn step(&mut self, sender: AccountId, call: FlCall) -> bool {
            let before = self.c.state_digest();
            let snapshot = self.c.snapshot_state();
            // A scratch replica runs the call first, as the consensus
            // engine does: it starts from the original's memos and
            // shares its values, must answer like a cold replica
            // afterwards, and must leave the original alone — its
            // values (the snapshot reads them) as well as its memos.
            let mut scratch = self.c.clone();
            let scratch_ok = scratch.execute(&ctx(sender), &call).is_ok();
            assert_eq!(
                scratch.state_digest(),
                cold_root(&scratch, &self.test_set),
                "scratch memo went stale on {call:?}"
            );
            assert_eq!(self.c.state_digest(), before);
            assert_eq!(
                self.c.snapshot_state(),
                snapshot,
                "scratch wrote through to the original on {call:?}"
            );
            let cold = cold(&self.c, &self.test_set);
            assert_eq!(cold.state_digest(), before);
            assert_eq!(cold.snapshot_state(), snapshot);
            if scratch_ok && matches!(call, FlCall::SubmitMaskedUpdate { .. }) {
                assert_submission_copied_its_map_only(&self.c, &scratch);
            }

            let accepted = self.c.execute(&ctx(sender), &call).is_ok();
            assert_eq!(accepted, scratch_ok);
            let after = self.c.state_digest();
            assert_eq!(after, scratch.state_digest());
            assert_eq!(
                after,
                cold_root(&self.c, &self.test_set),
                "memo went stale on {call:?}"
            );
            if accepted {
                self.last_accepted = Some((sender, call));
            } else {
                assert_eq!(after, before, "a rejected call moved the root: {call:?}");
                self.rejected += 1;
            }
            accepted
        }

        fn honest(&mut self, sender: usize, call: FlCall) {
            assert!(
                self.step(sender as u32, call.clone()),
                "honest call rejected: {call:?}"
            );
        }

        /// Up to two calls the contract must reject, whatever its phase.
        fn hostile(&mut self, rng: &mut Xoshiro256, w: &MaskedWorld) {
            for _ in 0..rng.next_below(3) {
                let n = self.c.params().owners.len();
                let dim = self.c.params().model_dim;
                let round = self.c.current_round();
                let owner = rng.next_below(n as u64) as usize;
                let other = rng.next_below(n as u64) as usize;
                let (sender, call) = match (rng.next_below(8), self.last_accepted.clone()) {
                    // Every accepted call is a rejected one the second time.
                    (0, Some(replay)) => replay,
                    (1, _) => (
                        owner as u32,
                        FlCall::SubmitMaskedUpdate {
                            round: round + 1,
                            masked: vec![0; dim],
                        },
                    ),
                    (2, _) => (
                        owner as u32,
                        FlCall::SubmitMaskedUpdate {
                            round,
                            masked: vec![0; dim - 1],
                        },
                    ),
                    (3, _) => (
                        owner as u32,
                        FlCall::AdvertiseKey {
                            public_key: vec![9; 31],
                        },
                    ),
                    (4, _) => (
                        owner as u32,
                        FlCall::EscrowKeyShares {
                            commitments: vec![Hash32::ZERO; n + 1],
                        },
                    ),
                    (5, _) => (owner as u32, FlCall::EvaluateRound { round: round + 1 }),
                    (6, _) => {
                        // A share that does not open its commitment.
                        let mut forged = recovery_share(w, round, owner, other);
                        if let FlCall::SubmitRecoveryShare { share_y, .. } = &mut forged {
                            share_y[31] ^= 1;
                        }
                        (other as u32, forged)
                    }
                    _ => (
                        n as u32 + 7,
                        FlCall::AdvertiseKey {
                            public_key: vec![9; 32],
                        },
                    ),
                };
                assert!(!self.step(sender, call.clone()), "accepted {call:?}");
            }
        }
    }

    /// Setup, then every round of the protocol: survivors submit in a
    /// random order, round 0 always loses an owner (so recovery runs),
    /// later rounds lose one half the time; rejected calls in between.
    fn walk(seed: u64, k: usize) -> Walk {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let (n, m) = (4 * k, 2);
        // The world's own contract has run setup already; the walk
        // replays it, call by call, on a fresh replica.
        let mut w = if k == 1 {
            masked_world(n, m)
        } else {
            masked_world_sharded(n, m, k)
        };
        let params = w.contract.params().clone();
        let test_set = SyntheticDigits::small().generate(99);
        let mut walk = Walk {
            c: FlContract::genesis(params.clone(), test_set.clone()),
            test_set,
            last_accepted: None,
            rejected: 0,
        };

        for i in rng.permutation(n) {
            walk.hostile(&mut rng, &w);
            let public_key = w.keypairs[i].public.to_be_bytes();
            walk.honest(i, FlCall::AdvertiseKey { public_key });
        }
        for i in rng.permutation(n) {
            walk.hostile(&mut rng, &w);
            let commitments = w.escrowed[i]
                .iter()
                .map(|s| share_commitment(i as u32, s))
                .collect();
            walk.honest(i, FlCall::EscrowKeyShares { commitments });
        }

        for round in 0..params.total_rounds {
            w.groups = RoundPlan::new(params.permutation_seed, round, n, k, m)
                .unwrap()
                .groups()
                .concat();
            let dropped =
                (round == 0 || rng.next_below(2) == 0).then(|| rng.next_below(n as u64) as usize);
            let mut survivors: Vec<usize> = (0..n).filter(|&i| Some(i) != dropped).collect();
            rng.shuffle(&mut survivors);
            for &i in &survivors {
                walk.hostile(&mut rng, &w);
                let masked = masked_submission(&w, i, round);
                walk.honest(i, FlCall::SubmitMaskedUpdate { round, masked });
            }
            walk.hostile(&mut rng, &w);
            walk.honest(survivors[0], FlCall::EvaluateRound { round });
            if let Some(d) = dropped {
                assert!(matches!(walk.c.phase(), RoundPhase::Recovering { .. }));
                rng.shuffle(&mut survivors);
                let extra = rng.next_below(2) as usize;
                let providers = (params.escrow_threshold + extra).min(survivors.len());
                for &p in &survivors[..providers] {
                    walk.hostile(&mut rng, &w);
                    walk.honest(p, recovery_share(&w, round, d, p));
                }
                walk.hostile(&mut rng, &w);
                walk.honest(survivors[0], FlCall::EvaluateRound { round });
            }
            assert_eq!(walk.c.current_round(), round + 1);
        }
        walk.hostile(&mut rng, &w);
        walk
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn memoised_root_equals_cold_root_after_every_call(
            seed in any::<u64>(),
            k in 1usize..=2,
        ) {
            let walk = walk(seed, k);
            prop_assert!(walk.c.finished());
            prop_assert_eq!(walk.c.history().len(), 2);
            prop_assert_eq!(walk.c.history()[0].dropped.len(), 1);
            prop_assert_eq!(walk.c.history()[0].cohorts.len(), if k == 1 { 0 } else { k });
            prop_assert!(walk.rejected >= 10, "only {} rejected calls", walk.rejected);
        }
    }

    #[test]
    fn every_digest_bound_field_moves_the_root() {
        // Round 0 evaluated in full, round 1 in recovery with one share
        // in: every section of the state is populated.
        let mut w = masked_world(4, 2);
        let run = |w: &mut MaskedWorld, sender: usize, call: FlCall| {
            w.contract.execute(&ctx(sender as u32), &call).unwrap();
        };
        for i in 0..4 {
            let masked = masked_submission(&w, i, 0);
            run(&mut w, i, FlCall::SubmitMaskedUpdate { round: 0, masked });
        }
        run(&mut w, 0, FlCall::EvaluateRound { round: 0 });
        w.groups = RoundPlan::new(w.contract.params().permutation_seed, 1, 4, 1, 2)
            .unwrap()
            .groups()
            .concat();
        for i in [0, 1, 3] {
            let masked = masked_submission(&w, i, 1);
            run(&mut w, i, FlCall::SubmitMaskedUpdate { round: 1, masked });
        }
        run(&mut w, 0, FlCall::EvaluateRound { round: 1 });
        let share = recovery_share(&w, 1, 2, 0);
        run(&mut w, 0, share);

        let c = w.contract;
        let test_set = SyntheticDigits::small().generate(99);
        let root = c.state_digest();
        assert_eq!(root, cold_root(&c, &test_set));

        type Forgery = fn(&mut FlContract);
        let forgeries: [(&str, Forgery); 9] = [
            ("a key byte", |c| c.keys.slots[3].as_mut().unwrap()[31] ^= 1),
            ("one escrow commitment", |c| {
                c.escrows.slots[1].as_mut().unwrap()[2].0[0] ^= 1
            }),
            ("one masked word", |c| {
                c.submissions.slots[3].as_mut().unwrap()[649] ^= 1
            }),
            ("a recovery share", |c| {
                let shares = c.recovery_shares.slots[2].as_mut().unwrap();
                shares.slots[0].as_mut().unwrap().y = U256::from_be_bytes(&[7; 32]);
            }),
            ("one contribution", |c| {
                *c.contributions.get_mut(&0).unwrap() += 1e-9
            }),
            ("one model weight", |c| c.global_model[649] += 1e-9),
            ("one field of an old record", |c| {
                c.history_mut(0).global_accuracy += 1e-9
            }),
            ("the round", |c| c.current_round += 1),
            ("the phase", |c| c.phase = RoundPhase::Submitting),
        ];
        let mut roots = vec![root];
        for (what, forge) in forgeries {
            // The clone starts with every memo warm: only the
            // invalidation on the mutable borrow can move its root.
            let mut forged = c.clone();
            forge(&mut forged);
            let forged_root = forged.state_digest();
            assert_eq!(forged_root, cold_root(&forged, &test_set), "{what}");
            assert!(
                !roots.contains(&forged_root),
                "forging {what} went unnoticed"
            );
            roots.push(forged_root);
        }
        assert_eq!(c.state_digest(), root);
    }
}
