//! Durability benchmarks: write-ahead-log append/flush cost, a stream
//! of blocks made durable with one flush per 1 / 4 / 32 of them,
//! cold-start replay throughput (blocks/s) vs chain length, and
//! torn-tail recovery (scan + truncate + replay of the surviving
//! prefix).
//!
//! Committed medians live in `BENCH_chain_durability.json`; regenerate
//! with `CRITERION_JSON=out.jsonl cargo bench --bench chain_durability`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use fl_chain::block::Block;
use fl_chain::durability::{DurabilityConfig, DurableStore};
use fl_chain::hash::Hash32;
use fl_chain::log::{crc32, LogConfig, SegmentedLog};
use fl_chain::store::ChainStore;
use fl_chain::tx::Transaction;

/// Unique scratch directory, removed on drop.
struct TestDir(PathBuf);

impl TestDir {
    fn new(tag: &str) -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!(
            "fl-bench-durability-{tag}-{}-{n}",
            std::process::id()
        ));
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

/// One-transaction blocks with a fixed payload width, so the on-disk
/// record size — and therefore segment fill — is constant per block.
fn next_block(store: &ChainStore<Vec<u64>>, salt: u64) -> Block<Vec<u64>> {
    Block::assemble(
        store.height(),
        store.tip_digest(),
        Hash32::of_bytes(&salt.to_le_bytes()),
        0,
        store.height(),
        vec![Transaction::new(0, store.height(), vec![salt; 64])],
    )
}

fn config() -> DurabilityConfig {
    DurabilityConfig {
        log: LogConfig {
            segment_bytes: 64 * 1024,
        },
        snapshot_every: u64::MAX,
    }
}

/// Persist an `n`-block chain into `dir` and leave it cold on disk.
fn build_chain(dir: &Path, n: u64) {
    let (mut durable, _) = DurableStore::<Vec<u64>>::open(dir, config()).expect("fresh dir");
    for i in 0..n {
        let block = next_block(durable.store(), i);
        durable.append(block).expect("honest append");
    }
}

fn bench_log_append(c: &mut Criterion) {
    let mut group = c.benchmark_group("log_append");
    group.sample_size(20);
    // 100 records of 1 KiB per iteration: frame, CRC, buffer, then one
    // flush (write + sync) at the end — the per-block durability point.
    let payload = vec![0xa5u8; 1024];
    group.bench_function(BenchmarkId::new("flush_per_100", "1KiB"), |b| {
        b.iter(|| {
            let dir = TestDir::new("append");
            let (mut log, _) = SegmentedLog::open(dir.path(), config().log).expect("fresh dir");
            for _ in 0..100 {
                log.append(black_box(&payload)).expect("append");
            }
            log.flush().expect("flush");
            log.segment_id()
        })
    });
    group.finish();
}

/// The segment files of `dir`, in id order.
fn segment_paths(dir: &Path) -> Vec<PathBuf> {
    let mut segments: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("read dir")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "seg"))
        .collect();
    segments.sort();
    segments
}

/// The segment files of `dir`, in id order, byte for byte.
fn segment_bytes(dir: &Path) -> Vec<Vec<u8>> {
    segment_paths(dir)
        .iter()
        .map(|p| std::fs::read(p).expect("read segment"))
        .collect()
}

/// A committed stream of 32 blocks made durable in a fresh directory
/// with one flush per 1, 4 or 32 blocks. One block per flush is
/// `DurableStore::append` block by block, the others
/// `DurableStore::append_batch` over chunks of the stream; the framing is
/// per block either way, so all three leave the same bytes on disk
/// (asserted before sampling) and differ only in how often they sync.
fn bench_append_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("append_batch");
    group.sample_size(20);
    let chain: ChainStore<Vec<u64>> = ChainStore::new();
    for i in 0..32 {
        chain.append(next_block(&chain, i)).expect("extends");
    }
    let stream = chain.blocks_from(0);
    let persist = |dir: &Path, per_flush: usize| {
        let (mut durable, _) = DurableStore::<Vec<u64>>::open(dir, config()).expect("fresh dir");
        if per_flush == 1 {
            for block in &stream {
                durable.append(block.clone()).expect("honest append");
            }
        } else {
            for chunk in stream.chunks(per_flush) {
                durable
                    .append_batch(chunk.iter().cloned())
                    .expect("honest batch");
            }
        }
        durable.store().height()
    };

    let singly = TestDir::new("batch-gate");
    persist(singly.path(), 1);
    let reference = segment_bytes(singly.path());
    for per_flush in [1usize, 4, 32] {
        let dir = TestDir::new("batch-gate");
        persist(dir.path(), per_flush);
        assert_eq!(
            segment_bytes(dir.path()),
            reference,
            "{per_flush} blocks per flush must write the bytes of block-by-block appends"
        );
        group.bench_with_input(
            BenchmarkId::new("blocks_per_flush", per_flush),
            &per_flush,
            |b, &per_flush| {
                b.iter(|| {
                    let dir = TestDir::new("batch");
                    persist(dir.path(), black_box(per_flush))
                })
            },
        );
    }
    group.finish();
}

fn bench_replay(c: &mut Criterion) {
    let mut group = c.benchmark_group("chain_replay");
    group.sample_size(20);
    for blocks in [16u64, 64, 256] {
        let dir = TestDir::new("replay");
        build_chain(dir.path(), blocks);
        group.bench_with_input(BenchmarkId::new("blocks", blocks), &dir, |b, dir| {
            b.iter(|| {
                // Cold open: scan segments, CRC every record, decode every
                // block, re-validate the whole chain through ChainStore.
                let (durable, report) =
                    DurableStore::<Vec<u64>>::open(black_box(dir.path()), config())
                        .expect("clean chain");
                assert_eq!(report.blocks, blocks);
                durable.store().height()
            })
        });
    }
    group.finish();
}

fn bench_torn_tail_recovery(c: &mut Criterion) {
    let mut group = c.benchmark_group("torn_tail_recovery");
    group.sample_size(20);
    let blocks = 64u64;
    let dir = TestDir::new("torn");
    build_chain(dir.path(), blocks);
    let last_segment = segment_paths(dir.path()).pop().expect("segments exist");
    let intact = std::fs::read(&last_segment).expect("read tail segment");
    group.bench_with_input(BenchmarkId::new("blocks", blocks), &dir, |b, dir| {
        b.iter(|| {
            // Re-tear each iteration: recovery physically truncates the
            // tail, so the torn state must be re-created to measure the
            // detect-truncate-replay path rather than a clean open.
            std::fs::write(&last_segment, &intact[..intact.len() - 9]).expect("tear tail");
            let (durable, report) =
                DurableStore::<Vec<u64>>::open(dir.path(), config()).expect("prefix recovers");
            assert!(report.truncated.is_some());
            assert_eq!(report.blocks, blocks - 1);
            durable.store().height()
        })
    });
    group.finish();
}

/// The byte-at-a-time table walk `log::crc32` was before it went to
/// eight bytes a step: one dependent table load per byte.
fn seed_crc32(bytes: &[u8]) -> u32 {
    let mut table = [0u32; 256];
    for (i, slot) in table.iter_mut().enumerate() {
        *slot = (0..8).fold(i as u32, |crc, _| {
            if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            }
        });
    }
    !bytes.iter().fold(!0u32, |crc, &b| {
        (crc >> 8) ^ table[((crc ^ u32::from(b)) & 0xff) as usize]
    })
}

/// The record checksum at a WAL-segment-sized payload, slicing-by-8
/// (`opt`) against the byte walk (`seed`); equal sums asserted first,
/// over an odd length too so the tail bytes are in it.
fn bench_crc(c: &mut Criterion) {
    let mut group = c.benchmark_group("crc32");
    let len = 64 * 1024;
    let payload: Vec<u8> = (0..len + 5).map(|i| (i * 31 % 251) as u8).collect();
    assert_eq!(crc32(&payload), seed_crc32(&payload));
    let payload = &payload[..len];
    assert_eq!(crc32(payload), seed_crc32(payload));
    group.bench_with_input(BenchmarkId::new("opt", len), payload, |b, payload| {
        b.iter(|| crc32(black_box(payload)))
    });
    group.bench_with_input(BenchmarkId::new("seed", len), payload, |b, payload| {
        b.iter(|| seed_crc32(black_box(payload)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_log_append,
    bench_append_batch,
    bench_replay,
    bench_torn_tail_recovery,
    bench_crc
);
criterion_main!(benches);
