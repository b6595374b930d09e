//! Round-pipeline benchmarks: 20-round chains driven strictly
//! sequentially (`FlProtocol::run_sequential`) vs through the two-stage
//! pipeline (`FlProtocol::run`), flat and cohort-sharded.
//!
//! The pipeline overlaps round `r+1`'s off-chain half (local training,
//! masking, tx assembly) with round `r`'s on-chain tail (block commit,
//! SV evaluation), so the wall-clock win is bounded by
//! `min(off_chain, on_chain)` per round — the report's
//! [`fedchain::protocol::StageTimings`] shows the two sides. Both modes
//! are sampled at `numeric::par` thread caps 1 and 2 (benchmark id
//! suffix `cap1` / `cap2`): at cap 1 the overlap primitive runs the
//! stages in order and both modes measure alike; at cap 2 — skipped on a
//! single-core host — the pipeline's one extra thread runs the off-chain
//! stage while sequential mode spends it on its fan-outs. The
//! bit-equality contract is asserted either way.
//!
//! Before anything is timed, [`gate`] runs both modes on both shapes
//! and asserts the chains are **bit-identical**: same per-owner
//! contributions, same accuracy trace, same block count, same tip
//! digest. Panics the bench process on any divergence.
//!
//! Committed medians live in `BENCH_round_pipeline.json`; regenerate
//! with `CRITERION_JSON=out.jsonl cargo bench --bench round_pipeline`.
//! `scripts/bench_smoke.sh` gates `pipelined/4/cap2` against
//! `sequential/4/cap1` of one run.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::sync::OnceLock;

use fedchain::config::{FlConfig, SvMethod};
use fedchain::protocol::FlProtocol;
use fl_ml::dataset::SyntheticDigits;
use numeric::par;

const ROUNDS: u64 = 20;

/// A 20-round no-dropout chain: 16 owners, a narrow model (16 features,
/// 4 classes), stratified sampling at both SV levels, and a 4-miner
/// committee. `cohorts = 1` is the flat shape (groups of 8, one block
/// per round); `cohorts = 4` streams one block per cohort (groups of 2).
fn bench_config(cohorts: usize) -> FlConfig {
    let mut config = FlConfig::quick_demo();
    config.num_owners = 16;
    config.num_groups = 2;
    config.num_cohorts = cohorts;
    config.rounds = ROUNDS;
    config.miner_committee = 4;
    config.sv_method = SvMethod::Stratified {
        samples_per_stratum: 2,
    };
    config.data = SyntheticDigits {
        instances: 600,
        features: 16,
        classes: 4,
        ..SyntheticDigits::default()
    };
    config.train.epochs = 6;
    config
}

/// Blocks a run of `config` must commit: the setup block plus, per
/// round, one block per cohort.
fn expected_blocks(cohorts: usize) -> u64 {
    1 + ROUNDS * cohorts as u64
}

/// Runs both shapes in both modes once and asserts the pipelined chain
/// is bit-identical to the sequential chain before any sampling.
fn gate() {
    static GATE: OnceLock<()> = OnceLock::new();
    GATE.get_or_init(|| {
        for cohorts in [1usize, 4] {
            let mut seq = FlProtocol::new(bench_config(cohorts)).expect("valid config");
            let seq_report = seq.run_sequential().expect("honest sequential run");
            let mut pipe = FlProtocol::new(bench_config(cohorts)).expect("valid config");
            let pipe_report = pipe.run().expect("honest pipelined run");
            assert_eq!(seq_report.blocks, expected_blocks(cohorts));
            assert_eq!(seq_report.blocks, pipe_report.blocks);
            assert_eq!(
                seq_report.per_owner_sv, pipe_report.per_owner_sv,
                "k={cohorts}: pipelined contributions must equal sequential"
            );
            assert_eq!(
                seq_report.accuracy_history, pipe_report.accuracy_history,
                "k={cohorts}: pipelined accuracy trace must equal sequential"
            );
            assert_eq!(
                seq.engine().store_of(0).expect("miner 0").tip_digest(),
                pipe.engine().store_of(0).expect("miner 0").tip_digest(),
                "k={cohorts}: pipelined chain must be bit-identical to sequential"
            );
            // The stage clock is live in both modes.
            assert!(pipe_report.stages.train_mask > 0.0);
            assert!(pipe_report.stages.evaluate > 0.0);
        }
    });
}

/// One timed chain in either mode.
fn run_chain(cohorts: usize, pipelined: bool) -> usize {
    let mut protocol = FlProtocol::new(bench_config(black_box(cohorts))).expect("valid config");
    let report = if pipelined {
        protocol.run()
    } else {
        protocol.run_sequential()
    }
    .expect("honest run");
    assert_eq!(report.blocks, expected_blocks(cohorts));
    report.per_owner_sv.len()
}

/// 20-round chains, sequential vs pipelined, flat (`k=1`) and sharded
/// (`k=4`), at thread caps 1 and 2.
fn bench_pipeline(c: &mut Criterion) {
    gate();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut group = c.benchmark_group("round_pipeline");
    group.sample_size(10);
    for cap in [1usize, 2] {
        if cap > cores {
            println!("round_pipeline: cap {cap} skipped, {cores} core available");
            continue;
        }
        par::set_max_threads(cap);
        for cohorts in [1usize, 4] {
            for (mode, pipelined) in [("sequential", false), ("pipelined", true)] {
                let id = BenchmarkId::new(format!("{mode}/{cohorts}"), format!("cap{cap}"));
                group.bench_function(id, |b| b.iter(|| run_chain(cohorts, pipelined)));
            }
        }
    }
    par::set_max_threads(0);
    group.finish();
}

criterion_group!(benches, bench_pipeline);
criterion_main!(benches);
