//! Cohort-scaling benchmarks: flat vs sharded round wall-clock as the
//! owner count grows, per-cohort commit streaming on the chain side, and
//! cold-disk certification of a sharded chain.
//!
//! The flat round's secure-aggregation cost is quadratic in the group
//! size (pairwise DH masks), so with a fixed group count it grows ~n².
//! Sharding fixes the cohort size instead, making per-cohort cost
//! constant and total cost ~n — the `cohort_round` group measures both
//! curves so the committed JSON can show the sharded runs landing far
//! under the flat extrapolation.
//!
//! Before anything is timed, [`gate`] runs the acceptance configuration
//! once: 1024 owners in 32 cohorts of 32, streamed end-to-end through
//! mempool, consensus, and audit, persisted to disk, and re-certified
//! bit-identically from the cold bytes by `fedchain::audit::fast_sync`.
//!
//! The `state_root` group prices what every replica pays per block for
//! the contract's state root: mid-round, one more cohort bundle in, with
//! the untouched sections memoised (a live replica) against none (a
//! freshly restored one), asserted equal before sampling.
//!
//! Committed medians live in `BENCH_cohort_scaling.json`; regenerate
//! with `CRITERION_JSON=out.jsonl cargo bench --bench cohort_scaling`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use fedchain::audit::fast_sync;
use fedchain::config::{FlConfig, SvMethod};
use fedchain::contract_fl::{FlContract, FlParams};
use fedchain::protocol::FlProtocol;
use fl_bench::fixtures::MidRound;
use fl_chain::consensus::engine::{ConsensusEngine, EngineConfig};
use fl_chain::consensus::leader::LeaderSchedule;
use fl_chain::contract::{ExecutionOutcome, SmartContract, TxContext};
use fl_chain::durability::DurabilityConfig;
use fl_chain::gas::Gas;
use fl_chain::hash::Hash32;
use fl_chain::log::LogConfig;
use fl_chain::mempool::Mempool;
use fl_chain::tx::Transaction;
use fl_ml::dataset::{Dataset, SyntheticDigits};

/// Unique scratch directory, removed on drop.
struct TestDir(PathBuf);

impl TestDir {
    fn new(tag: &str) -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path =
            std::env::temp_dir().join(format!("fl-bench-cohort-{tag}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&path).expect("create bench dir");
        Self(path)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TestDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A no-dropout round at bench scale: a narrow model (16 features, 4
/// classes) keeps masked-vector width constant across owner counts, the
/// dataset grows with `n` so every owner holds data, a 4-miner committee
/// bounds re-execution cost, and stratified sampling keeps both SV
/// levels polynomial. The empty dropout schedule skips the O(n²) escrow.
fn bench_config(owners: usize, cohorts: usize) -> FlConfig {
    let mut config = FlConfig::quick_demo();
    config.num_owners = owners;
    config.num_groups = 4;
    config.num_cohorts = cohorts;
    config.miner_committee = 4;
    config.sv_method = SvMethod::Stratified {
        samples_per_stratum: 2,
    };
    config.data = SyntheticDigits {
        instances: (2 * owners).max(600),
        features: 16,
        classes: 4,
        ..SyntheticDigits::default()
    };
    config.train.epochs = 4;
    config
}

/// The acceptance run, persisted: its scratch directory stays alive for
/// the fast-sync benchmark.
struct Gate {
    dir: TestDir,
    params: FlParams,
    test_set: Dataset,
    live_tip: Hash32,
    blocks: u64,
}

/// Runs the ROADMAP acceptance configuration once — 1024 owners, 32
/// cohorts of 32 — end-to-end through mempool/consensus/audit with a
/// write-ahead log attached, then certifies the cold bytes: `fast_sync`
/// must replay one setup block plus 32 per-cohort blocks to the exact
/// live tip digest. Panics the bench process on any violation.
fn gate() -> &'static Gate {
    static GATE: OnceLock<Gate> = OnceLock::new();
    GATE.get_or_init(|| {
        let dir = TestDir::new("gate");
        let mut protocol = FlProtocol::new(bench_config(1024, 32)).expect("valid config");
        protocol
            .persist_to(
                dir.path(),
                DurabilityConfig {
                    log: LogConfig {
                        segment_bytes: 4 * 1024 * 1024,
                    },
                    snapshot_every: u64::MAX,
                },
            )
            .expect("fresh dir attaches");
        let report = protocol.run().expect("honest 1024-owner run");
        assert_eq!(report.blocks, 33, "setup + one block per cohort");
        assert_eq!(report.per_owner_sv.len(), 1024);
        assert_eq!(report.round_records[0].cohorts.len(), 32);
        let live_tip = protocol.engine().store_of(0).expect("miner 0").tip_digest();
        let params = protocol.contract().params().clone();
        let test_set = protocol.test_set().clone();
        drop(protocol); // the certification below runs from cold bytes

        let sync = fast_sync(dir.path(), params.clone(), test_set.clone())
            .expect("cold sharded chain certifies");
        assert_eq!(sync.blocks, 33);
        assert!(sync.audit.clean, "per-cohort evidence must replay exactly");
        assert_eq!(
            sync.tip_digest, live_tip,
            "the on-disk sharded chain is bit-identical to the live chain"
        );
        Gate {
            dir,
            params,
            test_set,
            live_tip,
            blocks: report.blocks,
        }
    })
}

/// Full on-chain rounds, flat vs sharded. Flat sweeps the owner count
/// with the group count fixed (cost ~n² from pairwise masks); sharded
/// holds the cohort size at 32 up to 1024 owners (cost ~n), then rides
/// the 64-cohort method cap to 10⁴ owners (cohorts of ~156).
fn bench_round(c: &mut Criterion) {
    let mut group = c.benchmark_group("cohort_round");
    group.sample_size(10);
    for &n in &[100usize, 200, 400] {
        group.bench_with_input(BenchmarkId::new("flat", n), &n, |b, &n| {
            b.iter(|| {
                let mut protocol =
                    FlProtocol::new(bench_config(black_box(n), 1)).expect("valid config");
                let report = protocol.run().expect("honest run");
                assert_eq!(report.blocks, 2);
                report.per_owner_sv.len()
            })
        });
    }
    for &(n, k) in &[(128usize, 4usize), (512, 16), (1024, 32), (10_000, 64)] {
        group.bench_with_input(BenchmarkId::new("sharded", n), &(n, k), |b, &(n, k)| {
            b.iter(|| {
                let mut protocol =
                    FlProtocol::new(bench_config(black_box(n), k)).expect("valid config");
                let report = protocol.run().expect("honest run");
                assert_eq!(report.blocks, 1 + k as u64);
                report.per_owner_sv.len()
            })
        });
    }
    group.finish();
}

/// Cold-disk certification of the acceptance chain: `fast_sync` re-scans
/// the log, re-executes all 33 blocks, and proves every per-cohort state
/// root — the auditor-side cost of a 1024-owner sharded round.
fn bench_fast_sync(c: &mut Criterion) {
    let mut group = c.benchmark_group("sharded_fast_sync");
    group.sample_size(10);
    group.bench_function(BenchmarkId::new("owners", 1024), |b| {
        let g = gate();
        b.iter(|| {
            let report = fast_sync(g.dir.path(), g.params.clone(), g.test_set.clone())
                .expect("cold chain certifies");
            assert_eq!(report.blocks, g.blocks);
            assert_eq!(report.tip_digest, g.live_tip);
            report.blocks
        })
    });
    group.finish();
}

/// A storage-bound contract isolating the chain-side cost of streaming
/// one round as `k` per-cohort bundles (admission → `drain_bundles` →
/// one `commit_bundle` each) from the FL work above.
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

fn bench_commit_stream(c: &mut Criterion) {
    let mut group = c.benchmark_group("cohort_commit_stream");
    group.sample_size(10);
    let owners = 1024usize;
    let miners = 4usize;
    for &bundles in &[1usize, 8, 32] {
        let per_bundle = owners / bundles;
        let sizes = vec![per_bundle; bundles];
        group.bench_with_input(BenchmarkId::new("bundles", bundles), &sizes, |b, sizes| {
            b.iter(|| {
                let schedule = LeaderSchedule::round_robin((0..miners as u32).collect());
                let mut engine = ConsensusEngine::new(
                    VectorStore::default(),
                    schedule,
                    &BTreeMap::new(),
                    EngineConfig::default(),
                )
                .expect("non-empty miner set");
                let mut pool: Mempool<Vec<u64>> = Mempool::new(owners);
                let txs: Vec<Transaction<Vec<u64>>> = (0..owners)
                    .map(|i| Transaction::new(i as u32, 0, vec![i as u64; 68]))
                    .collect();
                assert!(pool.submit_batch(black_box(txs)).all_admitted());
                for bundle in pool.drain_bundles(sizes) {
                    engine.commit_bundle(&bundle).expect("honest commit");
                }
                engine.height()
            })
        });
    }
    group.finish();
}

/// The state root after one more cohort bundle, mid-round, at the
/// `stream_churn` (32 owners × 4 cohorts) and acceptance (1024 × 32)
/// shapes. The replica has advertised keys and half the cohorts'
/// masked updates and has published a root (every memo warm). Replica
/// clones share their values, leaf memos included, so each iteration
/// makes the state it measures afresh and a second entry prices the
/// making alone:
///
/// * `warm` — a clone of that replica executes the next cohort's bundle
///   and answers with its root: the bundle's leaves and the submission
///   list are hashed, every other section answers from its memo;
///   `execute` is the clone and the bundle without the root;
/// * `cold` — a replica restored from the snapshot taken after that
///   bundle answers with its root: every section is hashed, which is
///   also what each block cost before the root was sectioned; `restore`
///   is the restore alone.
fn bench_state_root(c: &mut Criterion) {
    let mut group = c.benchmark_group("state_root");
    for &(n, k) in &[(32usize, 4usize), (1024, 32)] {
        let mid_round = MidRound::new(n, k);
        let next_bundle = |replica: &FlContract| {
            let mut scratch = replica.clone();
            mid_round.submit_next_cohort(&mut scratch);
            scratch
        };
        let restore = |snapshot: &[u8]| {
            let params = mid_round.replica.params().clone();
            FlContract::restore(params, mid_round.test_set.clone(), snapshot)
                .expect("own snapshot restores")
        };

        let replica = &mid_round.replica;
        let snapshot = next_bundle(replica).snapshot_state();
        assert_eq!(
            next_bundle(replica).state_digest(),
            restore(&snapshot).state_digest(),
            "a memoised root must equal the cold one"
        );
        group.bench_function(BenchmarkId::new("warm", n), |b| {
            b.iter(|| next_bundle(black_box(replica)).state_digest())
        });
        group.bench_function(BenchmarkId::new("execute", n), |b| {
            b.iter(|| next_bundle(black_box(replica)))
        });
        group.bench_function(BenchmarkId::new("cold", n), |b| {
            b.iter(|| restore(black_box(&snapshot)).state_digest())
        });
        group.bench_function(BenchmarkId::new("restore", n), |b| {
            b.iter(|| restore(black_box(&snapshot)))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_round,
    bench_fast_sync,
    bench_commit_stream,
    bench_state_root
);
criterion_main!(benches);
