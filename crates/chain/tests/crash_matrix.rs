//! Crash-matrix test for the durable chain store.
//!
//! Every [`CrashPoint`] is injected at every interesting log position
//! (mid-segment, exactly at a segment boundary, at every block of a
//! multi-block batch, during a snapshot), and after each crash the
//! reopened chain must be **bit-identical to a clean prefix** of the
//! pre-crash chain — never divergent, never reordered — and must remain
//! appendable up to the full reference chain. Corrupted-CRC and
//! stale-snapshot recoveries ride along.

use fl_chain::block::Block;
use fl_chain::codec::Encode;
use fl_chain::durability::{
    CrashPlan, CrashPoint, DurabilityConfig, DurabilityError, DurableStore,
};
use fl_chain::hash::Hash32;
use fl_chain::log::{LogConfig, RECORD_HEADER_BYTES};
use fl_chain::store::ChainStore;
use fl_chain::tx::Transaction;

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Unique scratch directory, removed on drop.
struct TestDir(PathBuf);

impl TestDir {
    fn new(tag: &str) -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path =
            std::env::temp_dir().join(format!("fl-chain-matrix-{tag}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&path).expect("create test dir");
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

/// Deterministic next block: one transaction, so every framed log record
/// has the same size and segment-boundary positions are predictable.
fn next_block(store: &ChainStore<u64>, salt: u64) -> Block<u64> {
    Block::assemble(
        store.height(),
        store.tip_digest(),
        Hash32::of_bytes(&salt.to_le_bytes()),
        0,
        store.height(),
        vec![Transaction::new(0, store.height(), salt)],
    )
}

/// A clean reference chain of `n` blocks (the ground truth every
/// recovery is compared against).
fn reference_chain(n: u64) -> ChainStore<u64> {
    let store: ChainStore<u64> = ChainStore::new();
    for i in 0..n {
        store.append(next_block(&store, i)).unwrap();
    }
    store
}

/// Byte-for-byte equality of two chains up to `height`.
fn assert_bit_identical_prefix(got: &ChainStore<u64>, reference: &ChainStore<u64>, height: u64) {
    assert_eq!(got.height(), height, "recovered chain length");
    for h in 0..height {
        assert_eq!(
            got.block_at(h).unwrap().encode(),
            reference.block_at(h).unwrap().encode(),
            "block {h} must be bit-identical to the clean reference"
        );
    }
    assert_eq!(got.verify_chain(), Ok(()), "recovered chain must verify");
}

/// Config sized so exactly two block records fit one segment: append 2
/// starts a new segment, making `crash_at = 2` a segment-boundary crash
/// and `crash_at = 1` a mid-segment crash.
fn two_records_per_segment() -> DurabilityConfig {
    let probe = reference_chain(1).block_at(0).unwrap().encode().len();
    DurabilityConfig {
        log: LogConfig {
            segment_bytes: 2 * (RECORD_HEADER_BYTES + probe),
        },
        snapshot_every: u64::MAX, // snapshots driven explicitly below
    }
}

#[test]
fn crash_matrix_reopen_is_clean_prefix() {
    const TOTAL: u64 = 5;
    let reference = reference_chain(TOTAL);

    struct Case {
        name: &'static str,
        point: CrashPoint,
        crash_at: u64,
        /// Blocks that must survive: the crashing append is lost for
        /// torn/unflushed records, durable for a post-flush crash.
        survive: u64,
        torn_tail: bool,
    }
    let cases = [
        Case {
            name: "torn record, mid-segment",
            point: CrashPoint::TornRecord,
            crash_at: 1,
            survive: 1,
            torn_tail: true,
        },
        Case {
            name: "torn record, segment boundary",
            point: CrashPoint::TornRecord,
            crash_at: 2,
            survive: 2,
            torn_tail: true,
        },
        Case {
            name: "lost before flush, mid-segment",
            point: CrashPoint::BeforeFlush,
            crash_at: 1,
            survive: 1,
            torn_tail: false,
        },
        Case {
            name: "lost before flush, segment boundary",
            point: CrashPoint::BeforeFlush,
            crash_at: 2,
            survive: 2,
            torn_tail: false,
        },
        Case {
            name: "after flush, mid-segment",
            point: CrashPoint::AfterFlushBeforeSnapshot,
            crash_at: 1,
            survive: 2,
            torn_tail: false,
        },
        Case {
            name: "after flush, segment boundary",
            point: CrashPoint::AfterFlushBeforeSnapshot,
            crash_at: 2,
            survive: 3,
            torn_tail: false,
        },
    ];

    for case in cases {
        let dir = TestDir::new("case");
        let config = two_records_per_segment();
        let (mut durable, _) = DurableStore::<u64>::open(dir.path(), config).unwrap();
        durable.set_crash_plan(CrashPlan {
            point: case.point,
            at: case.crash_at,
        });

        let mut died = false;
        for i in 0..TOTAL {
            let block = next_block(durable.store(), i);
            match durable.append(block) {
                Ok(()) => {}
                Err(DurabilityError::Crashed) => {
                    died = true;
                    break;
                }
                Err(other) => panic!("{}: unexpected error {other:?}", case.name),
            }
        }
        assert!(died, "{}: the crash plan must fire", case.name);

        // Reopen: the chain must be a clean prefix of the reference.
        let (reopened, report) = DurableStore::<u64>::open(dir.path(), config).unwrap();
        assert_bit_identical_prefix(reopened.store(), &reference, case.survive);
        assert_eq!(
            report.truncated.is_some(),
            case.torn_tail,
            "{}: torn-tail detection",
            case.name
        );

        // The recovered chain is live: appending the missing blocks
        // converges on the full reference chain.
        let mut durable = reopened;
        for i in case.survive..TOTAL {
            let block = next_block(durable.store(), i);
            durable.append(block).unwrap();
        }
        drop(durable);
        let (full, report) = DurableStore::<u64>::open(dir.path(), config).unwrap();
        assert!(
            report.truncated.is_none(),
            "{}: second reopen clean",
            case.name
        );
        assert_bit_identical_prefix(full.store(), &reference, TOTAL);
    }
}

/// Every append-path crash point at every block of a batch, once with
/// the whole batch inside one segment and once straddling two segment
/// rolls. What survives:
///
/// * `TornRecord` at block `j` keeps every block before `j`: the torn
///   write carries the records buffered ahead of it;
/// * `BeforeFlush` loses everything the batch had not flushed — the
///   whole batch, unless a segment roll inside it flushed a prefix;
/// * `AfterFlushBeforeSnapshot` keeps blocks up to and including `j`.
#[test]
fn crash_inside_a_batch_reopens_to_a_clean_prefix() {
    const BASE: u64 = 1; // appended one by one before the batch
    const BATCH: u64 = 4;
    const TOTAL: u64 = BASE + BATCH + 2;
    let reference = reference_chain(TOTAL);
    let one_segment = DurabilityConfig {
        log: LogConfig::default(),
        snapshot_every: u64::MAX,
    };
    // Two records per segment: appending block 2 flushes blocks 0–1 and
    // rolls, appending block 4 flushes 2–3 and rolls.
    let configs = [(one_segment, None), (two_records_per_segment(), Some(2))];

    for (config, per_segment) in configs {
        for point in [
            CrashPoint::TornRecord,
            CrashPoint::BeforeFlush,
            CrashPoint::AfterFlushBeforeSnapshot,
        ] {
            for position in 0..BATCH {
                // `CrashPlan::at` counts blocks, not batches.
                let at = BASE + position;
                let flushed_by_rolls = per_segment.map_or(BASE, |per| (at - at % per).max(BASE));
                let survive = match point {
                    CrashPoint::TornRecord => at,
                    CrashPoint::BeforeFlush => flushed_by_rolls,
                    CrashPoint::AfterFlushBeforeSnapshot => at + 1,
                    CrashPoint::TornSnapshot => unreachable!("not an append-path point"),
                };
                let case = format!("{point:?} at batch block {position}, {per_segment:?}/segment");

                let dir = TestDir::new("batch");
                let (mut durable, _) = DurableStore::<u64>::open(dir.path(), config).unwrap();
                for block in reference.blocks_from(0).into_iter().take(BASE as usize) {
                    durable.append(block).unwrap();
                }
                durable.set_crash_plan(CrashPlan { point, at });
                let batch = reference.blocks_from(BASE).into_iter().take(BATCH as usize);
                assert_eq!(
                    durable.append_batch(batch),
                    Err(DurabilityError::Crashed),
                    "{case}"
                );
                drop(durable);

                let (mut durable, report) = DurableStore::<u64>::open(dir.path(), config).unwrap();
                assert_bit_identical_prefix(durable.store(), &reference, survive);
                assert_eq!(
                    report.truncated.is_some(),
                    point == CrashPoint::TornRecord,
                    "{case}: torn-tail detection"
                );

                // The recovered chain is live: one more batch converges
                // on the full reference chain.
                durable
                    .append_batch(reference.blocks_from(survive))
                    .unwrap();
                drop(durable);
                let (full, report) = DurableStore::<u64>::open(dir.path(), config).unwrap();
                assert!(report.truncated.is_none(), "{case}: second reopen clean");
                assert_bit_identical_prefix(full.store(), &reference, TOTAL);
            }
        }
    }
}

#[test]
fn torn_snapshot_is_rejected_and_falls_back() {
    let dir = TestDir::new("torn-snap");
    let config = two_records_per_segment();
    let (mut durable, _) = DurableStore::<u64>::open(dir.path(), config).unwrap();
    for i in 0..2u64 {
        let block = next_block(durable.store(), i);
        durable.append(block).unwrap();
    }
    durable.write_snapshot(b"good-at-2").unwrap();
    for i in 2..4u64 {
        let block = next_block(durable.store(), i);
        durable.append(block).unwrap();
    }
    // Second snapshot write dies mid-file.
    durable.set_crash_plan(CrashPlan {
        point: CrashPoint::TornSnapshot,
        at: 1,
    });
    assert_eq!(
        durable.write_snapshot(b"torn-at-4"),
        Err(DurabilityError::Crashed)
    );
    drop(durable);

    let (reopened, report) = DurableStore::<u64>::open(dir.path(), config).unwrap();
    // Every flushed block survived; the torn snapshot did not.
    assert_bit_identical_prefix(reopened.store(), &reference_chain(4), 4);
    assert_eq!(report.snapshots_rejected, 1, "torn snapshot rejected");
    let snap = report.snapshot.expect("older snapshot survives");
    assert_eq!(snap.height, 2);
    assert_eq!(snap.state, b"good-at-2");
}

#[test]
fn stale_snapshot_still_recovers_full_chain() {
    // Crash after flushing block 3 but before any newer snapshot: the
    // snapshot is two blocks behind the durable tip. Recovery must serve
    // the *full* chain and the stale-but-valid snapshot.
    let dir = TestDir::new("stale-snap");
    let config = two_records_per_segment();
    let (mut durable, _) = DurableStore::<u64>::open(dir.path(), config).unwrap();
    for i in 0..2u64 {
        let block = next_block(durable.store(), i);
        durable.append(block).unwrap();
    }
    durable.write_snapshot(b"state-at-2").unwrap();
    durable.set_crash_plan(CrashPlan {
        point: CrashPoint::AfterFlushBeforeSnapshot,
        at: 3,
    });
    let block = next_block(durable.store(), 2);
    durable.append(block).unwrap();
    let block = next_block(durable.store(), 3);
    assert_eq!(durable.append(block), Err(DurabilityError::Crashed));
    drop(durable);

    let (reopened, report) = DurableStore::<u64>::open(dir.path(), config).unwrap();
    assert_bit_identical_prefix(reopened.store(), &reference_chain(4), 4);
    let snap = report.snapshot.expect("stale snapshot is still valid");
    assert_eq!(snap.height, 2, "snapshot lags the durable tip");
    assert_eq!(snap.state, b"state-at-2");
}

#[test]
fn corrupted_record_crc_truncates_to_clean_prefix() {
    let dir = TestDir::new("crc");
    let config = two_records_per_segment();
    let (mut durable, _) = DurableStore::<u64>::open(dir.path(), config).unwrap();
    for i in 0..3u64 {
        let block = next_block(durable.store(), i);
        durable.append(block).unwrap();
    }
    drop(durable);
    // Flip one payload byte of the final record (in the final segment).
    let mut segments: Vec<PathBuf> = std::fs::read_dir(dir.path())
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "seg"))
        .collect();
    segments.sort();
    let last_segment = segments.last().unwrap();
    let mut bytes = std::fs::read(last_segment).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0xff;
    std::fs::write(last_segment, &bytes).unwrap();

    let (reopened, report) = DurableStore::<u64>::open(dir.path(), config).unwrap();
    assert!(report.truncated.is_some(), "bad CRC must be detected");
    assert_bit_identical_prefix(reopened.store(), &reference_chain(3), 2);
}
