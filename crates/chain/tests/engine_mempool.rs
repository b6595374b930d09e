//! Integration between the mempool and the consensus engine, driven the
//! way the protocol drives them: `submit_batch` → `drain_bundle` →
//! `commit_bundle`, whose view loop is the paper's "wait for another
//! leader to propose".

use std::collections::BTreeMap;

use fl_chain::consensus::engine::{ConsensusEngine, EngineConfig, MinerBehavior};
use fl_chain::consensus::leader::LeaderSchedule;
use fl_chain::contract::{ExecutionOutcome, SmartContract, TxContext};
use fl_chain::gas::Gas;
use fl_chain::hash::Hash32;
use fl_chain::mempool::Mempool;
use fl_chain::tx::Transaction;

/// Accumulator contract used as a minimal deterministic state machine.
#[derive(Debug, Clone, Default)]
struct Accumulator {
    total: u64,
}

impl SmartContract for Accumulator {
    type Call = u64;
    type Error = String;

    fn execute(&mut self, _ctx: &TxContext, call: &u64) -> Result<ExecutionOutcome, String> {
        self.total = self.total.wrapping_add(*call);
        Ok(ExecutionOutcome::event(format!("+{call}"), Gas(1)))
    }

    fn state_digest(&self) -> Hash32 {
        Hash32::of("accumulator", &self.total)
    }
}

fn engine(miners: u32, behaviors: &[(u32, MinerBehavior)]) -> ConsensusEngine<Accumulator> {
    let schedule = LeaderSchedule::round_robin((0..miners).collect());
    ConsensusEngine::new(
        Accumulator::default(),
        schedule,
        &behaviors.iter().copied().collect::<BTreeMap<_, _>>(),
        EngineConfig::default(),
    )
    .expect("non-empty miner set")
}

/// A pool holding `txs`, all admitted.
fn pool_of(txs: Vec<Transaction<u64>>) -> Mempool<u64> {
    let mut pool = Mempool::new(100);
    assert!(pool.submit_batch(txs).all_admitted());
    pool
}

#[test]
fn mempool_drained_into_blocks_until_empty() {
    let mut pool = pool_of((0..10).map(|n| Transaction::new(0, n, n + 1)).collect());
    let mut engine = engine(4, &[]);
    let mut blocks = 0;
    while !pool.is_empty() {
        engine
            .commit_bundle(&pool.drain_bundle(4))
            .expect("honest commit");
        blocks += 1;
    }
    assert_eq!(blocks, 3, "10 txs at 4/block = 3 blocks");
    assert_eq!(engine.honest_contract().total, (1..=10).sum::<u64>());
}

#[test]
fn rejected_proposal_retries_under_the_next_leader() {
    // A fraudulent first leader costs one view; the same bundle then
    // commits under the next leader, exactly once and in order, with
    // nothing handed back to the pool.
    let mut pool = pool_of((0..6).map(|n| Transaction::new(0, n, 10 + n)).collect());
    let mut engine = engine(4, &[(0, MinerBehavior::CorruptProposals)]);

    let report = engine
        .commit_bundle(&pool.drain_bundle(6))
        .expect("the honest majority commits under leader 1");
    assert_eq!(report.attempts, 2, "fraud costs exactly one view");
    assert_eq!(report.rejected_leaders, vec![0]);
    assert!(pool.is_empty());
    assert_eq!(engine.honest_contract().total, (10..16).sum::<u64>());
    assert_eq!(engine.stats().failed_views, 1);
}

#[test]
fn interleaved_senders_keep_nonce_order() {
    let mut pool = pool_of(vec![
        Transaction::new(0, 0, 1),
        Transaction::new(1, 0, 2),
        Transaction::new(0, 1, 3),
        Transaction::new(1, 1, 4),
    ]);
    let mut engine = engine(3, &[]);
    let report = engine
        .commit_bundle(&pool.drain_bundle(10))
        .expect("honest commit");
    assert_eq!(report.events, vec!["+1", "+2", "+3", "+4"]);
}

#[test]
fn seeded_schedule_commits_identically() {
    // The same transactions through a seeded (pseudorandom) leader
    // schedule: different leaders, same state.
    let txs: Vec<Transaction<u64>> = (0..5).map(|n| Transaction::new(0, n, n * n)).collect();
    let bundle = pool_of(txs).drain_bundle(5);

    let mut round_robin = engine(5, &[]);
    round_robin.commit_bundle(&bundle).unwrap();

    let schedule = LeaderSchedule::seeded((0..5).collect(), [3u8; 32]);
    let mut seeded = ConsensusEngine::new(
        Accumulator::default(),
        schedule,
        &BTreeMap::new(),
        EngineConfig::default(),
    )
    .unwrap();
    seeded.commit_bundle(&bundle).unwrap();

    assert_eq!(
        round_robin.honest_contract().total,
        seeded.honest_contract().total
    );
}
