//! Round-pipeline benchmarks: chains driven strictly sequentially
//! (`FlProtocol::run_sequential`) vs through the two-stage pipeline
//! (`FlProtocol::run`) — 20 narrow rounds, flat and cohort-sharded, and
//! the paper's Table I shape — and the cold audit of two persisted
//! chains.
//!
//! The pipeline runs round `r`'s on-chain tail (block commit, SV
//! evaluation) as the side task of the region in which round `r+1`'s
//! owners train and mask (`numeric::par::par_claim_mut`), so the
//! wall-clock win is bounded by `min(off_chain, on_chain)` per round —
//! the report's [`fedchain::protocol::StageTimings`] shows the two sides
//! — and whichever side ends first, both threads stay on the owners that
//! remain: `table1` (9 owners, dim 650, `m = 3`, 3 rounds; ≈ 17 ms of
//! training beside a ≈ 3 ms tail) is the shape that shows it. Both modes
//! are sampled at thread caps 1 and 2 (benchmark id suffix `cap1` /
//! `cap2`): at cap 1 the side task runs first, then the owners, and both
//! modes measure alike; cap 2 is skipped on a single-core host. The
//! bit-equality contract is asserted either way.
//!
//! Before anything is timed, [`gate`] runs both modes on every shape
//! and asserts the chains are **bit-identical**: same per-owner
//! contributions, same accuracy trace, same block count, same tip
//! digest. Panics the bench process on any divergence.
//!
//! `cold_audit/{stream_churn,sharded_128}/cap{1,2}` is what an auditor
//! waits for: `DurableStore::open` + `audit::replay_chain` over a chain
//! persisted once, outside the timed loop, its tip asserted equal to the
//! live one first. No replica fan-out sits above a replay, so its
//! `numeric::par` regions are top-level and ask for threads by their own
//! work: `stream_churn`'s 80 small evaluations must not pay for one
//! (cap 2 ≤ cap 1), `sharded_128`'s second-level evaluation runs are
//! worth one (cap 2 < cap 1).
//!
//! `{persisted,memory}/stream_churn/cap{1,2}` is the same chain through
//! `run()` with and without a durable store: `persist_to` a fresh
//! directory, then 26 flushed streams and 10 snapshots, which the run
//! hands to its writer thread and waits for only before it returns —
//! so the persisted run costs little more than the memory-only one.
//!
//! Committed medians live in `BENCH_round_pipeline.json`; regenerate
//! with `CRITERION_JSON=out.jsonl cargo bench --bench round_pipeline`.
//! `scripts/bench_smoke.sh` gates `pipelined/4/cap2` against
//! `sequential/4/cap1`, `pipelined/table1/cap2` against
//! `sequential/table1/cap2`, `cold_audit/stream_churn/cap2` against its
//! `cap1` neighbour and `persisted/stream_churn/cap2` against
//! `memory/stream_churn/cap2`, each inside one run.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use fedchain::audit;
use fedchain::config::{FlConfig, SvMethod};
use fedchain::protocol::FlProtocol;
use fedchain::FlCall;
use fl_chain::durability::{DurabilityConfig, DurableStore};
use fl_ml::dataset::SyntheticDigits;
use numeric::par;

/// The narrow-model shape of the sharded rounds: 16 features × 4 classes,
/// stratified sampling at both SV levels, a 4-miner committee.
fn narrow(
    owners: usize,
    cohorts: usize,
    groups: usize,
    instances: usize,
    epochs: usize,
    rounds: u64,
) -> FlConfig {
    let mut config = FlConfig::quick_demo();
    config.num_owners = owners;
    config.num_groups = groups;
    config.num_cohorts = cohorts;
    config.rounds = rounds;
    config.miner_committee = 4;
    config.sv_method = SvMethod::Stratified {
        samples_per_stratum: 2,
    };
    config.data = SyntheticDigits {
        instances,
        features: 16,
        classes: 4,
        ..SyntheticDigits::default()
    };
    config.train.epochs = epochs;
    config
}

/// The pipeline shapes by benchmark id: `1` and `4` are 20-round
/// no-dropout chains of 16 owners — flat (groups of 8, one block per
/// round) and streamed (one block per cohort, groups of 2); `table1` is
/// the paper's Table I run at `m = 3` over three rounds, every owner
/// mining — `BENCHMARK.json`'s `table1_train`.
fn bench_config(shape: &str) -> FlConfig {
    match shape {
        "1" => narrow(16, 1, 2, 600, 6, 20),
        "4" => narrow(16, 4, 2, 600, 6, 20),
        _ => FlConfig {
            num_groups: 3,
            rounds: 3,
            sigma: 1.0,
            ..FlConfig::paper_setting()
        },
    }
}

const SHAPES: [&str; 3] = ["1", "4", "table1"];

/// Blocks a run of `config` must commit: the setup block, one block per
/// cohort per round, one recovery block per churned round.
fn expected_blocks(config: &FlConfig) -> u64 {
    let churned = config.dropout_schedule.len() as u64;
    1 + config.rounds * config.num_cohorts as u64 + churned
}

/// Runs both shapes in both modes once and asserts the pipelined chain
/// is bit-identical to the sequential chain before any sampling.
fn gate() {
    static GATE: OnceLock<()> = OnceLock::new();
    GATE.get_or_init(|| {
        for shape in SHAPES {
            let mut seq = FlProtocol::new(bench_config(shape)).expect("valid config");
            let seq_report = seq.run_sequential().expect("honest sequential run");
            let mut pipe = FlProtocol::new(bench_config(shape)).expect("valid config");
            let pipe_report = pipe.run().expect("honest pipelined run");
            assert_eq!(seq_report.blocks, expected_blocks(&bench_config(shape)));
            assert_eq!(seq_report.blocks, pipe_report.blocks);
            assert_eq!(
                seq_report.per_owner_sv, pipe_report.per_owner_sv,
                "{shape}: pipelined contributions must equal sequential"
            );
            assert_eq!(
                seq_report.accuracy_history, pipe_report.accuracy_history,
                "{shape}: pipelined accuracy trace must equal sequential"
            );
            assert_eq!(
                seq.engine().store_of(0).expect("miner 0").tip_digest(),
                pipe.engine().store_of(0).expect("miner 0").tip_digest(),
                "{shape}: pipelined chain must be bit-identical to sequential"
            );
            // The stage clock is live in both modes.
            assert!(pipe_report.stages.train_mask > 0.0);
            assert!(pipe_report.stages.evaluate > 0.0);
        }
    });
}

/// One timed chain in either mode, world generation included.
fn run_chain(shape: &str, pipelined: bool) -> usize {
    let mut protocol = FlProtocol::new(bench_config(black_box(shape))).expect("valid config");
    let report = if pipelined {
        protocol.run()
    } else {
        protocol.run_sequential()
    }
    .expect("honest run");
    assert_eq!(report.blocks, expected_blocks(protocol.config()));
    report.per_owner_sv.len()
}

/// The thread caps this host can sample: 1, and 2 where there is a
/// second core.
fn caps() -> Vec<usize> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores < 2 {
        println!("round_pipeline: cap 2 skipped, {cores} core available");
    }
    [1usize, 2]
        .into_iter()
        .filter(|&cap| cap <= cores)
        .collect()
}

/// Sequential vs pipelined chains — flat (`1`), sharded (`4`) and
/// `table1` — at thread caps 1 and 2.
fn bench_pipeline(c: &mut Criterion) {
    gate();
    let mut group = c.benchmark_group("round_pipeline");
    group.sample_size(10);
    for cap in caps() {
        par::set_max_threads(cap);
        for shape in SHAPES {
            for (mode, pipelined) in [("sequential", false), ("pipelined", true)] {
                let id = BenchmarkId::new(format!("{mode}/{shape}"), format!("cap{cap}"));
                group.bench_function(id, |b| b.iter(|| run_chain(shape, pipelined)));
            }
        }
    }
    par::set_max_threads(0);
    group.finish();
}

/// The audited chains by benchmark id: `BENCHMARK.json`'s `stream_churn`,
/// and its `sharded_1k` at an eighth of the owners — the same 32 cohorts
/// and test set, so the same second-level game, four owners a cohort.
fn audit_config(shape: &str) -> FlConfig {
    match shape {
        "stream_churn" => {
            let mut config = narrow(32, 4, 2, 1200, 6, 20);
            config.dropout_schedule = vec![
                (2, vec![3]),
                (5, vec![7, 20]),
                (9, vec![11]),
                (13, vec![1, 30]),
                (17, vec![25]),
            ];
            config
        }
        _ => narrow(128, 32, 4, 2048, 4, 1),
    }
}

/// `DurableStore::open` + `audit::replay_chain` from genesis over a
/// chain persisted once, at thread caps 1 and 2.
fn bench_cold_audit(c: &mut Criterion) {
    let mut group = c.benchmark_group("cold_audit");
    group.sample_size(10);
    for shape in ["stream_churn", "sharded_128"] {
        let dir = std::env::temp_dir().join(format!(
            "fl-bench-cold-audit-{shape}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let config = audit_config(shape);
        let mut protocol = FlProtocol::new(config.clone()).expect("valid config");
        protocol
            .persist_to(&dir, DurabilityConfig::default())
            .expect("fresh directory");
        let report = protocol.run().expect("honest run");
        assert_eq!(report.blocks, expected_blocks(&config));
        let tip = protocol.engine().store_of(0).expect("miner 0").tip_digest();
        let params = protocol.contract().params().clone();
        let test_set = protocol.test_set().clone();
        drop(protocol);

        let audit = || {
            let (durable, _) = DurableStore::<FlCall>::open(&dir, DurabilityConfig::default())
                .expect("the persisted chain opens");
            let report = audit::replay_chain(durable.store(), params.clone(), test_set.clone())
                .expect("the persisted chain replays");
            (report.clean, durable.store().tip_digest())
        };
        for cap in caps() {
            par::set_max_threads(cap);
            assert_eq!(audit(), (true, tip), "{shape}, cap {cap}: audit ≠ live tip");
            group.bench_function(BenchmarkId::new(shape, format!("cap{cap}")), |b| {
                b.iter(audit)
            });
        }
        par::set_max_threads(0);
        let _ = std::fs::remove_dir_all(&dir);
    }
    group.finish();
}

/// `stream_churn` through `run()` with a store attached (`persist_to` a
/// fresh directory each iteration; the directories are removed after
/// sampling, outside the timed loop) and without, at thread caps 1 and
/// 2. The chains' tips are asserted equal, and equal to the reopened
/// directory's, first.
fn bench_persisted(c: &mut Criterion) {
    let config = audit_config("stream_churn");
    let run = |dir: Option<&Path>| {
        let mut protocol = FlProtocol::new(config.clone()).expect("valid config");
        if let Some(dir) = dir {
            protocol
                .persist_to(dir, DurabilityConfig::default())
                .expect("fresh directory");
        }
        let report = protocol.run().expect("honest run");
        assert_eq!(report.blocks, expected_blocks(&config));
        protocol.engine().store_of(0).expect("miner 0").tip_digest()
    };
    // Every iteration's directory sits under one root, removed at the end.
    let root = std::env::temp_dir().join(format!("fl-bench-persisted-{}", std::process::id()));
    let next = AtomicU64::new(0);
    let persisted = || {
        run(Some(
            &root.join(next.fetch_add(1, Ordering::Relaxed).to_string()),
        ))
    };

    let tip = persisted();
    let (durable, _) = DurableStore::<FlCall>::open(root.join("0"), DurabilityConfig::default())
        .expect("the persisted chain opens");
    assert_eq!(durable.store().tip_digest(), tip, "durable tip ≠ live tip");
    drop(durable);
    assert_eq!(run(None), tip, "persisted chain ≠ memory-only chain");

    let mut group = c.benchmark_group("round_pipeline");
    group.sample_size(10);
    for cap in caps() {
        par::set_max_threads(cap);
        group.bench_function(
            BenchmarkId::new("persisted/stream_churn", format!("cap{cap}")),
            |b| b.iter(persisted),
        );
        group.bench_function(
            BenchmarkId::new("memory/stream_churn", format!("cap{cap}")),
            |b| b.iter(|| run(None)),
        );
    }
    par::set_max_threads(0);
    group.finish();
    let _ = std::fs::remove_dir_all(&root);
}

criterion_group!(benches, bench_pipeline, bench_cold_audit, bench_persisted);
criterion_main!(benches);
