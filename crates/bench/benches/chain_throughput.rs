//! Chain-level benchmarks: block commitment with re-execution
//! verification (the paper's consensus cost) at different cohort sizes
//! and on a 1024-owner FL contract state, and batched mempool admission.
//!
//! Committed medians live in `BENCH_chain_throughput.json`; regenerate
//! with `CRITERION_JSON=out.jsonl cargo bench --bench chain_throughput`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::collections::BTreeMap;
use std::hint::black_box;

use fl_bench::fixtures::MidRound;
use fl_chain::consensus::engine::{ConsensusEngine, EngineConfig};
use fl_chain::consensus::leader::LeaderSchedule;
use fl_chain::contract::{ExecutionOutcome, SmartContract, TxContext};
use fl_chain::gas::Gas;
use fl_chain::hash::Hash32;
use fl_chain::mempool::Mempool;
use fl_chain::merkle::MerkleTree;
use fl_chain::tx::{Transaction, TxBundle};

/// A storage-bound contract standing in for the FL contract's submission
/// path: it accumulates vectors, like masked updates, and digests state.
#[derive(Debug, Clone, Default)]
struct VectorStore {
    sum: Vec<u64>,
    count: u64,
}

impl SmartContract for VectorStore {
    type Call = Vec<u64>;
    type Error = String;

    fn execute(&mut self, _ctx: &TxContext, call: &Vec<u64>) -> Result<ExecutionOutcome, String> {
        if self.sum.is_empty() {
            self.sum = vec![0u64; call.len()];
        }
        for (a, &x) in self.sum.iter_mut().zip(call) {
            *a = a.wrapping_add(x);
        }
        self.count += 1;
        Ok(ExecutionOutcome {
            events: vec![],
            gas_used: Gas(call.len() as u64),
        })
    }

    fn state_digest(&self) -> Hash32 {
        Hash32::of("vector-store", &(self.sum.clone(), self.count))
    }
}

fn submissions(n: usize, dim: usize) -> Vec<Transaction<Vec<u64>>> {
    (0..n)
        .map(|i| Transaction::new(i as u32, 0, vec![i as u64; dim]))
        .collect()
}

fn bench_commit(c: &mut Criterion) {
    let mut group = c.benchmark_group("commit_block");
    group.sample_size(20);
    // `VectorStore` holds one 650-word vector, so the replica copies a
    // commit makes (a scratch per miner, the proven outcome per replica)
    // cost nothing there; at the `sharded_1k` shape they carry 1024
    // keys and 512 masked updates.
    let miners = 4usize;
    let mid_round = MidRound::new(1024, 32);
    let (state, bundle) = (&mid_round.replica, mid_round.next_bundle());
    group.bench_function(BenchmarkId::new("fl_1024_owners_miners", miners), |b| {
        b.iter(|| {
            let schedule = LeaderSchedule::round_robin((0..miners as u32).collect());
            let mut engine = ConsensusEngine::new(
                black_box(state).clone(),
                schedule,
                &BTreeMap::new(),
                EngineConfig::default(),
            )
            .expect("non-empty miner set");
            engine
                .commit_bundle(black_box(&bundle))
                .expect("honest commit")
        })
    });
    for miners in [3usize, 9, 21] {
        group.bench_with_input(BenchmarkId::new("miners", miners), &miners, |b, &miners| {
            b.iter(|| {
                let schedule = LeaderSchedule::round_robin((0..miners as u32).collect());
                let mut engine = ConsensusEngine::new(
                    VectorStore::default(),
                    schedule,
                    &BTreeMap::new(),
                    EngineConfig::default(),
                )
                .expect("non-empty miner set");
                let bundle = TxBundle::seal_unchecked(black_box(submissions(miners, 650)));
                engine.commit_bundle(&bundle).expect("honest commit")
            })
        });
    }
    group.finish();
}

/// `count` transactions from `senders` senders in sender-contiguous
/// runs (the shape a round block has: each owner's txs arrive together),
/// contiguous nonces, pool-admissible in submission order. The payload
/// is a bare `u64` so the measurement isolates admission bookkeeping,
/// not payload cloning.
fn admission_batch(count: usize, senders: usize) -> Vec<Transaction<u64>> {
    let per_sender = count / senders;
    (0..count)
        .map(|i| Transaction::new((i / per_sender) as u32, (i % per_sender) as u64, i as u64))
        .collect()
}

fn bench_admission(c: &mut Criterion) {
    let mut group = c.benchmark_group("mempool_admission");
    group.sample_size(20);
    let (count, senders) = (1024usize, 8usize);
    // Capacity computed once, nonce expectations cached across each
    // same-sender run.
    group.bench_function(BenchmarkId::new("batched", count), |b| {
        let batch = admission_batch(count, senders);
        b.iter(|| {
            let mut pool: Mempool<u64> = Mempool::new(count);
            let admission = pool.submit_batch(black_box(batch.clone()));
            assert!(admission.all_admitted());
            pool.len()
        })
    });
    group.finish();
}

/// Sealing pays the Merkle transaction root once per block; the engine
/// then commits the bundle without rebuilding the tree per miner
/// replica (compare against `merkle_root` × miner count).
fn bench_bundle_seal(c: &mut Criterion) {
    let mut group = c.benchmark_group("bundle_seal");
    group.sample_size(20);
    for count in [64usize, 1024] {
        let batch = admission_batch(count, 8);
        group.bench_with_input(BenchmarkId::from_parameter(count), &batch, |b, batch| {
            b.iter(|| TxBundle::seal(black_box(batch.clone())).expect("contiguous"))
        });
    }
    group.finish();
}

fn bench_merkle(c: &mut Criterion) {
    let mut group = c.benchmark_group("merkle_root");
    for leaves in [10usize, 100, 1000] {
        let digests: Vec<Hash32> = (0..leaves)
            .map(|i| Hash32::of_bytes(&(i as u64).to_le_bytes()))
            .collect();
        group.bench_with_input(
            BenchmarkId::from_parameter(leaves),
            &digests,
            |b, digests| b.iter(|| MerkleTree::build(black_box(digests)).root()),
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_commit,
    bench_admission,
    bench_bundle_seal,
    bench_merkle
);
criterion_main!(benches);
